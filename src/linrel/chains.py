"""Inductive subspace chains of a relation pair and the index nu(A:B).

For relations A, B from X to Y with B(0) inside A(0):

    M_0 = X,        M_n = B^{-1}(A(M_{n-1}))
    N_1 = N(A),     N_n = A^{-1}(B(N_{n-1}))

The M chain is non-increasing and the N chain non-decreasing, so both
stabilize within dim X steps.  nu(A:B) is the first n at which N_1
escapes M_n, or +inf when it never does (guaranteed when N(A) sits
inside N(B)).  The primed chains are the same construction applied to
the adjoint pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import relation as rel
from . import subspace as sub
from .relation import LinearRelation
from .subspace import Subspace

__all__ = [
    "ChainReport",
    "m_chain",
    "n_chain",
    "nu",
    "check_equivalent_conditions",
    "verify_nu_duality",
    "chain_report",
]


@dataclass
class ChainReport:
    """Chains, stabilization data and containment table for one pair."""

    m_chain: list[Subspace]
    n_chain: list[Subspace]
    stabilized_at: int
    nu: float  # int or math.inf
    containment_table: list[list[bool]]
    ill_conditioned: bool = False

    def to_dict(self) -> dict:
        return {
            "m_dims": [s.dim for s in self.m_chain],
            "n_dims": [s.dim for s in self.n_chain],
            "stabilized_at": self.stabilized_at,
            "nu": self.nu,
            "containment_table": self.containment_table,
            "ill_conditioned": self.ill_conditioned,
        }


def _step_limit(a: LinearRelation, b: LinearRelation, max_n: int | None) -> int:
    """Steps a chain may take: ``max_n``, or enough to stabilize if None."""
    if a.x_dim != b.x_dim or a.y_dim != b.y_dim:
        raise ValueError("dimension mismatch between the pair")
    if max_n is not None and max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    return a.x_dim + 1 if max_n is None else max_n


class _Chain(list):
    """Chain entries from ``start``, with the image of each entry, taken
    once; ``stable`` once an entry repeats the one before it."""

    def __init__(self, start: Subspace):
        super().__init__([start])
        self.images, self.stable = [], False

    def image(self, t: LinearRelation, i: int) -> Subspace:
        """t(entry i): the image the step from entry i took, or for the
        last entry, taken now and kept."""
        if i == len(self.images):
            self.images.append(rel.image(t, self[i]))
        return self.images[i]


def _steps(fwd: LinearRelation, back: LinearRelation, chain: _Chain, n: int) -> _Chain:
    """The one step loop of both chains: extend ``chain`` in place by
    back^{-1}(fwd(last entry)) until it has taken ``n`` steps or is stable."""
    while len(chain) <= n and not chain.stable:
        chain.append(rel.preimage(back, chain.image(fwd, len(chain) - 1)))
        chain.stable = chain[-1].is_same(chain[-2])
    return chain


def m_chain(a: LinearRelation, b: LinearRelation,
            max_n: int | None = None) -> list[Subspace]:
    """[M_0, M_1, ...] up to stabilization (or max_n steps)."""
    return _steps(a, b, _Chain(sub.full_space(a.x_dim)), _step_limit(a, b, max_n))


def n_chain(a: LinearRelation, b: LinearRelation,
            max_n: int | None = None) -> list[Subspace]:
    """[N_1, N_2, ...] up to stabilization (or max_n steps); N_1 = N(A)."""
    return _steps(b, a, _Chain(a.kernel), _step_limit(a, b, max_n) - 1)


class _ChainSet:
    """One pair's M and N chains, grown in place as far as a caller asks,
    with their step images and verdicts, memoised by chain index (an index
    past a stabilized chain reads its last entry).  It lives in the pair's
    :func:`relation._pair` record and holds no reference to the pair:
    callers pass it in."""

    def __init__(self, a: LinearRelation, b: LinearRelation):
        self.ms, self.ns = m_chain(a, b, 0), n_chain(a, b, 0)  # [M_0], [N_1]
        self._gaps, self._rows, self._kappa = {}, {}, [(True, False)]

    @classmethod
    def of(cls, a: LinearRelation, b: LinearRelation, m: int, n: int) -> "_ChainSet":
        """The pair's set, its chains grown to hold M_m and N_n where they
        have not stabilized before."""
        record = rel._pair(a, b)
        if "chains" not in record:
            record["chains"] = cls(a, b)
        chains = record["chains"]
        _steps(a, b, chains.ms, m)
        _steps(b, a, chains.ns, n - 1)
        return chains

    def contained(self, i: int, k: int) -> tuple[bool, bool]:
        """``subspace.contained(M_i, N_k)``."""
        key = (min(i, len(self.ms) - 1), min(k, len(self.ns)) - 1)
        if key not in self._gaps:
            self._gaps[key] = sub.contained(self.ms[key[0]], self.ns[key[1]])
        return self._gaps[key]

    def row(self, n: int) -> tuple[list[bool], bool]:
        """Row n of the containment table, [N_k inside M_{n-k+1} for
        k = 1..n], as a new list, and whether any of its verdicts is flagged."""
        if n not in self._rows:
            cells = [self.contained(n - k + 1, k) for k in range(1, n + 1)]
            self._rows[n] = [ok for ok, _ in cells], any([flag for _, flag in cells])
        return [*self._rows[n][0]], self._rows[n][1]

    def kappa(self, a: LinearRelation, b: LinearRelation, n: int) -> tuple[bool, bool]:
        """Whether N_k lies in B^{-1}(A(N_{k+1})) and in D(B) for every
        k = 1..n, and whether any of those verdicts is flagged: a running
        tally over k.  Past a stabilized N chain, where N_k and N_{k+1}
        both read its last entry, a cell repeats the one before it."""
        run = self._kappa
        while len(run) <= n:
            k, (ok, flag) = len(run), run[-1]
            if k <= len(self.ns):
                nk = self.ns[k - 1]
                target = rel.preimage(b, rel.image(a, self.ns[min(k, len(self.ns) - 1)]))
                (ok1, f1), (ok2, f2) = sub.contained(target, nk), sub.contained(b.domain, nk)
                ok, flag = ok and ok1 and ok2, flag or f1 or f2
            run.append((ok, flag))
        return run[n]


def nu(a: LinearRelation, b: LinearRelation) -> float:
    """Smallest n >= 1 with N(A) not inside M_n; +inf if none.

    N(A) inside N(B) is a sufficient condition for +inf and is honored
    directly; otherwise the cells (n, 1) of the pair's containment table
    decide, over the first dim X + 1 steps of its M chain, within which it
    stabilizes, however far a deeper report has grown it.
    """
    if sub.contains(b.kernel, a.kernel):
        return math.inf
    limit = _step_limit(a, b, None)
    chains = _ChainSet.of(a, b, limit, 1)
    return next((n for n in range(1, min(len(chains.ms), limit + 1))
                 if not chains.contained(n, 1)[0]), math.inf)


def check_equivalent_conditions(a: LinearRelation, b: LinearRelation,
                                n: int) -> dict:
    """Evaluate conditions (1)..(n) of the equivalence lemma and kappa.

    Condition (r) is N_r inside M_{n-r+1}.  The kappa condition is the
    per-element form N_k inside B^{-1}(A(N_{k+1})) together with
    N_k inside D(B), for k = 1..n (set-level nonemptiness would be
    vacuous, both sides always contain zero).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    chains = _ChainSet.of(a, b, n, n + 1)
    conditions, ill = chains.row(n)
    kappa, kappa_ill = chains.kappa(a, b, n)
    ill = ill or kappa_ill
    all_true = all(conditions)
    return {
        "n": n,
        "conditions": conditions,
        "kappa": kappa,
        "all_agree": len(set(conditions)) <= 1,
        "implication_holds": (not all_true) or kappa,
        "ill_conditioned": ill,
    }


def verify_nu_duality(a: LinearRelation, b: LinearRelation) -> dict:
    """Check M'_1 = (B(N_1))-perp, nu(A':B') = nu(A:B), and the adjoint
    chain containments, under the hypotheses D(A) = D(B) = X and
    B(0) inside A(0).

    A hypothesis failure marks the report not-applicable rather than
    failed; boundedness and closed range hold automatically here.
    """
    report: dict = {"applicable": True, "hypothesis_failures": []}
    if a.domain.dim != a.x_dim:
        report["hypothesis_failures"].append("D(A) = X")
    if b.domain.dim != b.x_dim:
        report["hypothesis_failures"].append("D(B) = X")
    if not sub.contains(a.multivalued_part, b.multivalued_part):
        report["hypothesis_failures"].append("B(0) subset of A(0)")
    if report["hypothesis_failures"]:
        report["applicable"] = False
        return report

    record = rel._pair(a, b)  # the pair of Y', kept: its chains grow once
    if "adjoints" not in record:
        record["adjoints"] = rel.adjoint(a), rel.adjoint(b)
    a_dual, b_dual = record["adjoints"]
    dual = _ChainSet.of(a_dual, b_dual, a.y_dim + 1, a.y_dim + 1)
    ms_dual, ns_dual = dual.ms, dual.ns
    chains = _ChainSet.of(a, b, a.x_dim + 1, a.x_dim + 1)
    m_len, n_len = min(len(chains.ms), a.x_dim + 2), min(len(chains.ns), a.x_dim + 1)

    # M'_1 = (B(N_1))-perp; both chains have taken a step.
    report["equality_m"] = sub.is_annihilator(ms_dual[1], chains.ns.image(b, 0))
    report["nu"], report["nu_dual"] = nu(a, b), nu(a_dual, b_dual)
    report["equality_nu"] = (report["nu"] == report["nu_dual"])

    # Adjoint-sequence containments up to the shorter stabilization.
    fwd = [sub.in_annihilator(chains.ns.image(b, min(n, n_len) - 1), ms_dual[n])
           for n in range(1, len(ms_dual))]
    bwd = [sub.in_annihilator(chains.ms.image(a, min(n, m_len - 1)), ns_dual[n])
           for n in range(len(ns_dual))]
    report["adjoint_sequences_m"] = fwd
    report["adjoint_sequences_n"] = bwd
    report["adjoint_sequences_hold"] = all(fwd) and all(bwd)
    return report


def chain_report(a: LinearRelation, b: LinearRelation,
                 max_n: int | None = None) -> ChainReport:
    """Full chain data for one pair, with the containment table.

    Table row n (1-based) holds [N_k inside M_{n-k+1} for k = 1..n].
    """
    depth = _step_limit(a, b, max_n)
    nu_ab = nu(a, b)
    chains = _ChainSet.of(a, b, max(depth, a.x_dim + 1), depth)
    ms, ns = chains.ms[:depth + 1], chains.ns[:max(depth, 1)]
    # nu read N(B) and the M chain to stabilization, whatever max_n cuts.
    ill = any(s.sv_near_cut for s in chains.ms[:a.x_dim + 2] + ns + [b.kernel])
    table = []
    for n in range(1, depth + 1):
        cells, flagged = chains.row(n)
        table.append(cells)
        ill = ill or flagged
    return ChainReport(ms, ns, stabilized_at=len(ms) - 1, nu=nu_ab,
                       containment_table=table, ill_conditioned=ill)
