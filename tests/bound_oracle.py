"""Independent lower oracles for the relative-bound constant sigma(tau).

``ascent_sigma``: projected gradient ascent of ||M_b c|| - tau ||M_a c||
on the unit sphere of coordinates, from B's top and A's bottom singular
direction and 32 random starts, all advanced at once.

``sampled_sigma``: the largest ||B x|| - tau ||A x|| over random unit x in
D(A) and B's top directions on D(A) and on N(A), with every quotient norm
found by its own least squares on the graph blocks.

Every value either returns is attained by its witness, so it bounds
sigma(tau) from below; both can stop short of the maximum, above all where
the maximizer lies on N(A) and the objective has an infinite slope.
"""

import numpy as np

# Singular values of a graph block below this are zero: the test pairs
# keep every rank decision far from it.
_RANK_CUT = 1e-10


def ascent_sigma(mat_b: np.ndarray, mat_a: np.ndarray, tau: float,
                 seed: int = 0, starts: int = 32) -> tuple[float, np.ndarray]:
    """Best value (clamped at 0) and its unit coordinate vector."""
    hb = mat_b.conj().T @ mat_b
    ha = mat_a.conj().T @ mat_a
    d = hb.shape[0]
    rng = np.random.default_rng(seed)
    c = np.column_stack([np.linalg.svd(mat_b)[2][0].conj(),
                         np.linalg.svd(mat_a)[2][-1].conj(),
                         rng.standard_normal((d, starts))
                         + 1j * rng.standard_normal((d, starts))])
    c /= np.linalg.norm(c, axis=0)

    def forms(c):
        return (np.einsum("ij,ij->j", c.conj(), hb @ c).real,
                np.einsum("ij,ij->j", c.conj(), ha @ c).real)

    def value(c):
        p, q = forms(c)
        return np.sqrt(np.maximum(p, 0.0)) - tau * np.sqrt(np.maximum(q, 0.0))

    best = value(c)
    step = np.full(c.shape[1], 0.5)
    active = np.ones(c.shape[1], dtype=bool)
    for _ in range(200):
        p, q = forms(c)
        grad = (hb @ c / np.sqrt(np.maximum(p, 1e-30))
                - tau * (ha @ c) / np.sqrt(np.maximum(q, 1e-30)))
        # project onto the tangent space of the sphere
        grad -= np.einsum("ij,ij->j", c.conj(), grad) * c
        active &= np.linalg.norm(grad, axis=0) >= 1e-14
        cand = c + step * grad
        cand /= np.linalg.norm(cand, axis=0)
        v = value(cand)
        up = active & (v > best + 1e-15)
        down = active & ~up
        c[:, up], best[up] = cand[:, up], v[up]
        step[up] = np.minimum(1.0, 1.3 * step[up])
        step[down] *= 0.5
        active &= step >= 1e-12
        if not active.any():
            break
    i = int(np.argmax(best))
    return max(0.0, float(best[i])), c[:, i]


def _split(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the range and of the null space of ``block``."""
    u, s, vh = np.linalg.svd(block)
    r = int(np.count_nonzero(s > _RANK_CUT))
    return u[:, :r], vh[r:].conj().T


def _quotient_map(t, xs: np.ndarray) -> np.ndarray:
    """T x off T(0) for each column x of ``xs`` (inside D(T)): a particular
    solution with its part in T(0) = Gy N(Gx) projected out; linear in x."""
    g = np.asarray(t.graph.basis)
    gx, gy = g[: t.x_dim], g[t.x_dim:]
    ys = gy @ np.linalg.lstsq(gx, xs, rcond=None)[0]
    mv = np.linalg.qr(gy @ _split(gx)[1])[0]
    return ys - mv @ (mv.conj().T @ ys)


def sampled_sigma(a, b, tau: float, trials: int,
                  seed: int = 0) -> tuple[float, np.ndarray | None]:
    """Best sampled ||B x|| - tau ||A x|| over unit x in D(A), unclamped, and
    its x; (-inf, None) when D(A) = {0}."""
    g = np.asarray(a.graph.basis)
    dom = _split(g[: a.x_dim])[0]
    d = dom.shape[1]
    if d == 0:
        return -np.inf, None
    rng = np.random.default_rng(seed)
    xs = [dom @ (rng.standard_normal((d, trials)) + 1j * rng.standard_normal((d, trials)))]
    # N(A) = Gx N(Gy), where ||A x|| = 0 leaves no slack.
    for basis in (dom, np.linalg.qr(g[: a.x_dim] @ _split(g[a.x_dim:])[1])[0]):
        if basis.shape[1]:
            xs.append(basis @ np.linalg.svd(_quotient_map(b, basis))[2][:1].conj().T)
    xs = np.hstack(xs)
    xs /= np.linalg.norm(xs, axis=0)
    values = (np.linalg.norm(_quotient_map(b, xs), axis=0)
              - tau * np.linalg.norm(_quotient_map(a, xs), axis=0))
    i = int(np.argmax(values))
    return float(values[i]), xs[:, i]
