"""Independent lower oracle for the relative-bound constant sigma(tau).

Projected gradient ascent of ||M_b c|| - tau ||M_a c|| on the unit sphere
of coordinates, from B's top and A's bottom singular direction and 32
random starts, all advanced at once.  Every value it returns is attained
by its witness, so it bounds sigma(tau) from below; it can stop short of
the maximum, above all where the maximizer lies on N(A) and the objective
has an infinite slope.
"""

import numpy as np


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
