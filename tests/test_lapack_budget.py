"""LAPACK call budgets of the pencil sweep, the chains and the relative-bound check.

``numpy.linalg.svd`` and ``lstsq`` are wrapped to count calls, and QRs
are counted at ``numpy.linalg.qr`` and at ``subspace.q_factor``, which
takes every Q whose R goes unread.  One lambda
point of a sweep costs one SVD without vectors of the pencil's block Z,
taken on the complement of the family's common kernel: no more than y_dim
rows, and no least-squares solve.  The two kernel gaps are taken once per
kernel object in a sweep, so once for the family's kernel, which every
point shares where Z has full column rank.  alpha, beta, gamma and the
flags the sweep reads come from Z's values, so the loop builds no subspace
of the graph's ambient x + y.  The norm and gamma read the induced
operator's values: a point's from Z, a relation's from its cached split
of Gy, with no SVD and no least-squares solve.  A point whose kernel
grows past the common one adds exactly one SVD of Z with vectors, which
the graph and the range read too, and its own two gaps: 3 + 1 SVDs.  A family with a T(0)
block, where A(0) or B(0) is not {0}, adds one SVD of that block per
point.  The domain D(A) ^ D(B) and the common kernel are the pencil
family's, computed once; each kernel object, one per flag, is built on
first read.  A point of a family with no T(0) block shares the family's
one empty T(0), and its rank decision reads Z's values alone: it builds
no identity, no split and no subspace until its range or graph is read.

One chain step is an image and a preimage.  On a relation whose splits
of Gx = U S V^H and of Gy are cached, an image takes no SVD of a graph
block, and one whose cut Gy's split proves none of any matrix with an
ambient number of rows.  It reads the relation's image map (S_r^-1
U_r^H, Gy V_r, Gy V_0, D(T)-perp^H and N^H V for the null block N of Gy's
split), built once per relation.  A relation whose domain is not all of X cuts M ^ D(T) out of M with one
full SVD of the n_d x dim M matrix D(T)-perp^H M, n_d = codim D(T).  One
QR of the r x dim M' matrix S_r^-1 U_r^H M' makes the coefficients c
orthonormal, and then comes the span of the y x k matrix Gy c:
  * under an injective relation whose Gy is clear of the rank cut's band,
    one QR at every size and no SVD, and where the spread s_1 / s_r of
    its Gx split is at most COEF_SPREAD that QR is the only one: c stays
    as it is;
  * under a relation with a kernel whose kept Gy values are clear of the
    band, at every size, the certificate reads E = N^H c: one QR where
    ||E||_F^2 is at most the split's limit, else one complete QR of the
    k x n_0 matrix E^H, whose leading columns, E's row space, are dropped
    whole, and one QR of the columns left, which are off N, or, where the
    certificate fails, one thin SVD in place of that QR;
  * otherwise one thin SVD.
A preimage is the image under the relation's inverse, which is built
once and is handed both of the relation's splits, of Gy as its own split
of Gx and of Gx as its own split of Gy.  Once a relation's domain, range,
kernel and T(0) are read, those of its inverse cost no SVD.  An
adjoint's graph is the annihilator of t's graph basis with its blocks
swapped, one complete QR and no SVD.

nu and the chain reports of one pair share its M and N chains, kept in
the pair's record: each chain step is taken once.  nu grows the M chain
and reads the containment table's first column; a longer limit extends
the kept chains in place.  ``verify_nu_duality`` builds the chains of the
adjoint pair once more.  The table's rows and the running kappa verdict
are kept too: ``check_equivalent_conditions`` after a chain report takes
no containment verdict for its conditions.  A subspace's complement takes
one complete QR and no SVD however often it is read, and an intersection
takes the QRs of the two complements, the SVD of their sum and the QR of
its complement.  Every
containment verdict reads the Frobenius bracket of its residual first, so
a gap far from the tolerance takes no SVD: a chain report whose gaps are
all decisive takes none for its table.
An adjoint-sequence check, and M'_1 = (B(N_1))-perp once the dimensions
agree, asks whether a dual chain entry D lies in the annihilator of a kept
image K, which is ||K^T U_D|| <= tol: it builds no complement.
``verify_nu_duality`` builds the two adjoint graphs' annihilators and no
other, and takes the images of the two chains' last entries once.

The relative-bound check solves for B's induced operator on D(A), and for
A's when tau > 0, from one least-squares call each.

A pair's pencil family, standing-hypothesis verdict and chains are kept
in its one record.  One stability-suite case checks the relative bound
once, runs the sigma(tau) bracket once, computes nu once, builds one
pencil family, which the sweep and the eigen-condition check share, and
decides the standing hypotheses once, with two containment verdicts: the bound
check and the eigen-condition check, which reads A(0) as A(0) + lambda B(0)
and maps no subspace, read the verifier's verdict.  The perturbation
verifier's one gate reads the fitted sigma, and ||B|| not at all; its sum
A + B and the suite's norm check share one pencil family.

``linrel analyze`` and ``linrel sweep`` run the sigma(tau) bracket once:
the bound they fit holds by construction and is not checked again.
"""

import functools
import sys
from collections import Counter

import numpy as np
import pytest

from linrel import chains as chn
from linrel import cli
from linrel import metrics as met
from linrel import relation as rel
from linrel import serialize as ser
from linrel import stability as stab
from linrel import subspace as sub
from linrel import suites as sts

from test_chains import _deep_pair, _never_stable


@pytest.fixture
def calls(monkeypatch):
    counts = {"svd": 0, "lstsq": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def _fresh_pair():
    """Pair, exact bound and grid as ``linrel sweep`` has them, with
    relations rebuilt from their graphs so that no cache is warm."""
    spec = stab.InstanceSpec(8, 8, alpha=2, beta=2, force_nu_infinite=True, seed=101)
    a, b = stab.generate(spec)
    bound = met.fit_relative_bound(a, b, 0.0)
    gamma_a = met.gamma(a)
    grid = stab.default_grid(met.stability_radius(gamma_a, bound, "full"), gamma_a,
                             points=2, phases=4)
    a, b = (rel.from_graph(t.graph, 8, 8) for t in (a, b))
    return a, b, bound, grid


def _counted(calls, fn) -> dict:
    before = dict(calls)
    fn()
    return {k: calls[k] - before[k] for k in calls}


def _svd_shapes(monkeypatch) -> list:
    """(shape, compute_uv) of every numpy SVD from here on."""
    seen, real = [], np.linalg.svd

    def svd(m, *args, **kwargs):
        seen.append((m.shape, kwargs.get("compute_uv", args[1] if len(args) > 1 else True)))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return seen


def _subspace_ambients(monkeypatch) -> list:
    """The ambient of every Subspace built from here on."""
    seen, real = [], sub.Subspace.__init__

    def init(self, ambient, *args, **kwargs):
        seen.append(ambient)
        real(self, ambient, *args, **kwargs)

    monkeypatch.setattr(sub.Subspace, "__init__", init)
    return seen


def test_sweep_lambda_point_budget(calls, monkeypatch):
    a, b, bound, grid = _fresh_pair()
    stab.sweep(a, b, bound, [], validate_bound=False)  # cache A's parts and the family
    svds, ambients = _svd_shapes(monkeypatch), _subspace_ambients(monkeypatch)
    used = _counted(calls, lambda: stab.sweep(a, b, bound, grid, validate_bound=False))
    assert used == {"svd": len(grid) + 2, "lstsq": 0}, used
    # Z on the common kernel's complement at every point, and the two gaps
    # of the family's one 2-dim kernel, taken once for the whole sweep.
    kernel = met.alpha(a)
    z_shape = (a.y_dim, a.x_dim - kernel)
    assert Counter(svds) == {(z_shape, False): len(grid),
                             ((a.x_dim, kernel), False): 2}, svds
    assert a.x_dim + a.y_dim not in ambients, ambients
    # The family has no T(0) block, and the sweep has read its kernels: a
    # point whose alpha, beta, gamma and kernel are read builds no basis.
    family = rel.pencil_family(a, b)
    assert family.m1.shape[1] == 0 and family.k0 == kernel
    built = _count_calls(monkeypatch, ((np, "eye"),))
    built["diagonal_split"] = 0
    real_split = getattr(sub, "diagonal_split", None)

    def diagonal_split(*args, **kwargs):
        built["diagonal_split"] += 1
        return real_split(*args, **kwargs)

    monkeypatch.setattr(sub, "diagonal_split", diagonal_split, raising=False)
    ambients.clear()
    points = [family(lam) for lam in grid]
    for p in points:
        _ = met.alpha(p), met.beta(p), met.gamma(p), p.kernel
    assert built == {"eye": 0, "diagonal_split": 0} and ambients == [], (built, ambients)
    assert all(p.multivalued_part is family.t0 for p in points)
    # N(A) outside N(B): the common kernel is {0}, and N(A) grows past it at
    # lam = 0 alone.  That point keeps its 3 SVDs and adds the one with
    # vectors; the family's {0} has one nonzero gap, taken once.
    spec = stab.InstanceSpec(8, 8, alpha=2, beta=2, seed=101)
    a, b = (rel.from_graph(t.graph, 8, 8) for t in stab.generate(spec))
    stab.sweep(a, b, bound, [], validate_bound=False)
    assert grid.count(0) == 1
    used = _counted(calls, lambda: stab.sweep(a, b, bound, grid, validate_bound=False))
    assert used == {"svd": (3 + 1) + (len(grid) - 1) + 1, "lstsq": 0}, used


def test_a_growing_kernel_adds_one_svd_with_vectors(monkeypatch):
    # B is drawn without N(A) inside N(B): the two meet in {0}, so the
    # common kernel is {0}, and N(A) grows past it at lam = 0, not at 0.1.
    a, b = stab.generate(stab.InstanceSpec(8, 8, alpha=2, beta=2, seed=101))
    family = rel.pencil_family(a, b)
    svds = _svd_shapes(monkeypatch)
    for lam, dims, with_vectors in ((0.1, (0, 0), 0), (0.0, (2, 2), 1)):
        svds.clear()
        p = family(lam)
        assert (met.alpha(p), met.beta(p)) == dims
        _ = met.gamma(p), p.kernel
        assert sorted(uv for _, uv in svds) == [False] + [True] * with_vectors, svds
        svds.clear()
        _ = p.graph, p.range
        assert [uv for _, uv in svds] == [True] * (1 - with_vectors), svds
        assert (met.alpha(p), met.beta(p)) == dims


def test_pencil_domain_is_computed_once_per_family(calls):
    a, b, _, grid = _fresh_pair()
    family = rel.pencil_family(a, b)
    pencils = [family(lam) for lam in grid]
    used = _counted(calls, lambda: [p.domain for p in pencils])
    assert used == {"svd": 0, "lstsq": 0}, used
    assert all(p.domain is pencils[0].domain for p in pencils)


def test_gamma_reads_the_cached_splits(calls):
    a, b, _, grid = _fresh_pair()
    for t in (a, b, rel.pencil(a, b, grid[-1]), rel.adjoint(a)):
        _ = t._y_svd, t.domain  # warm the two cached splits
        used = _counted(calls, lambda: (met.gamma(t), met.norm(t)))
        assert used == {"svd": 0, "lstsq": 0}, used
    family = rel.pencil_family(a, b)
    for lam in grid:
        p = family(lam)
        # Z's values alone: no SVD for gamma, the norm, beta and the common kernel.
        used = _counted(calls, lambda: (met.gamma(p), met.norm(p), met.beta(p), p.kernel))
        assert used == {"svd": 0, "lstsq": 0}, used
        assert p.kernel is family(lam).kernel
        used = _counted(calls, lambda: (p.range, p.graph))  # one SVD of Z, with vectors
        assert used == {"svd": 1, "lstsq": 0}, used


def test_check_relative_bound_budget(calls):
    for tau, lstsq in ((0.0, 1), (0.5, 2)):
        a, b, bound, _ = _fresh_pair()
        bound = met.RelativeBound(bound.sigma, tau)
        used = _counted(calls, lambda: met.check_relative_bound(a, b, bound))
        assert used["lstsq"] <= lstsq, (tau, used)


def _lapack_calls(monkeypatch) -> list:
    """("svd", shape, full) and ("qr", shape, complete) of every numpy SVD
    and QR from here on, ``sub.q_factor``'s QRs included; ``full`` is True
    for an SVD with both full factors, ``complete`` for a complete Q."""
    seen, svd, qr, q_factor = [], np.linalg.svd, np.linalg.qr, sub.q_factor

    def counted_svd(m, full_matrices=True, compute_uv=True, **kwargs):
        seen.append(("svd", m.shape, full_matrices and compute_uv))
        return svd(m, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    def counted_qr(m, mode="reduced"):
        seen.append(("qr", m.shape, mode == "complete"))
        return qr(m, mode)

    def counted_q_factor(m, complete=False):
        seen.append(("qr", m.shape, complete))
        return q_factor(m, complete=complete)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(sub, "q_factor", counted_q_factor)
    return seen


def test_chain_step_budget(monkeypatch, rng):
    a, b = _deep_pair(7, 5, seed=3)
    # An injective operator with values over 1e-3..1e3: its Gx spread is
    # past COEF_SPREAD.
    u, v = (np.linalg.qr(rng.standard_normal((n, 5)))[0] for n in (7, 5))
    wide = rel.from_matrix(u @ np.diag(np.geomspace(1e3, 1e-3, 5)) @ v.T)
    # Building the inverses computes both splits of a and b and hands them
    # over, and wide's image map both of its own: no relation here computes
    # a split inside an image.
    relations = (a, b, a._inverse, b._inverse, wide)
    _ = wide._image_map
    seen = _lapack_calls(monkeypatch)
    proper, rotations = set(), set()
    for t in relations:
        dom = t._x_svd[0]
        for d in range(1, t.x_dim + 1):
            m = sub.random_subspace(t.x_dim, d, rng)
            seen.clear()
            rel.image(t, m)
            full = [call[1] for call in seen if call[0] == "svd" and call[2]]
            thin = [call[1] for call in seen if call[0] == "svd" and not call[2]]
            # No thin SVD: the certificate proves every cut here.
            assert thin == [], seen
            if t is a:
                # N(A) != {0}: the QR that makes c orthonormal and the QR of
                # Gy c, with the complete QR of the k x n_0 matrix E^H,
                # E = N^H c, between them where ||E||_F^2 is past the limit
                # and E's row-space block is dropped.  No SVD.
                rotated = len(seen) == 3
                rotation = [("qr", (d, a._y_svd[1].null.shape[1]), True)] * rotated
                assert seen == [("qr", seen[0][1], False), *rotation,
                                ("qr", seen[-1][1], False)], seen
                rotations |= {rotated}
                continue
            # Under an injective relation the QR of Gy c, after the one that
            # makes c orthonormal only where the Gx spread is past COEF_SPREAD.
            assert [call[0] for call in seen].count("qr") == 1 + (t is wide), seen
            # M ^ D(T) from D(T)-perp^H M where D(T) is not all of X.
            assert full == ([(t.x_dim - dom.dim, d)] if dom.dim < t.x_dim else []), seen
            proper |= {dom.dim < t.x_dim}
        seen.clear()
        rel.adjoint(t)
        assert seen == [("qr", (t.x_dim + t.y_dim, t.graph.dim), True)], seen
    assert proper == {False, True}  # N(A) != {0}, so R(A) != Y
    assert rotations == {False, True}  # M = X holds N(A)
    wider = [t._image_map.spread > rel.COEF_SPREAD for t in relations[1:]]
    assert wider == [False, False, False, True] and not wide._image_map.kr.shape[0], wider


def test_certified_chain_step_budget(monkeypatch):
    # Every image under a is certified from c's angles to N(Gy): one
    # complete QR of the k x n_0 matrix E^H where c meets N(A), and one QR.
    # A preimage's domain cut is one n_d x k SVD, the only SVD an image
    # takes.  No image in a chain step or a kappa target takes an SVD of a
    # matrix with an ambient number of rows, and none takes a thin SVD.
    a, b = _deep_pair(16, 4, seed=5)
    _ = a._inverse, b._inverse, a.kernel, b.kernel
    n0, nd = a._y_svd[1].null.shape[1], a.y_dim - a.range.dim
    assert (n0, nd) == (1, 1)
    seen, real = _lapack_calls(monkeypatch), rel.image
    imaged, rotations = [], []

    def image(t, m):
        before = len(seen)
        out = real(t, m)
        imaged.extend(call for call in seen[before:] if call[0] == "svd")
        rotations.extend(call for call in seen[before:] if call[0] == "qr" and call[2])
        return out

    monkeypatch.setattr(rel, "image", image)
    used = _count_calls(monkeypatch, ((sub, "span"),))
    chains = chn._ChainSet.of(a, b, a.x_dim + 1, a.x_dim + 1)
    # Four steps each, and the one that finds the repeat.
    assert [s.dim for s in chains.ms] == [16, 15, 14, 13, 12, 12], chains.ms
    assert [s.dim for s in chains.ns] == [1, 2, 3, 4, 4], chains.ns
    for k in range(1, len(chains.ns)):
        chains.kappa(a, b, k)
    assert imaged and all(call[1][0] == nd and call[2] for call in imaged), imaged
    assert rotations and all(call[1][1] == n0 for call in rotations), rotations
    assert used == {"span": 0}, used


def test_image_map_is_built_once(monkeypatch):
    # One m_chain images under A and preimages under B: A and B's cached
    # inverse each build their map once, and every image reads it.
    a, b = _deep_pair(7, 5, seed=3)
    built, real = [], rel.LinearRelation.__dict__["_image_map"].func

    def image_map(t):
        built.append(t)
        return real(t)

    counted = functools.cached_property(image_map)
    counted.__set_name__(rel.LinearRelation, "_image_map")
    monkeypatch.setattr(rel.LinearRelation, "_image_map", counted)
    images = _count_calls(monkeypatch, ((rel, "image"),))
    chain = chn.m_chain(a, b, a.x_dim + 1)
    assert len(chain) > 3 and images["image"] >= 2 * (len(chain) - 1), (chain, images)
    assert len(built) == 2 and built[0] is a and built[1] is b._inverse, built
    # Preimages under A and images under B build their two maps once more.
    chn.n_chain(a, b, a.x_dim + 1)
    assert len(built) == 4 and {id(t) for t in built[2:]} == {id(b), id(a._inverse)}, built


def test_inverse_reads_no_svd_for_its_parts(calls):
    a, b, _, _ = _fresh_pair()
    for t in (a, b, rel.adjoint(a), rel.inverse(b), rel.from_matrix(np.diag([1.0, 0.0]))):
        _ = t.domain, t.range, t.kernel, t.multivalued_part
        inv = rel.inverse(t)
        used = _counted(calls, lambda: (inv.domain, inv.range, inv.kernel,
                                        inv.multivalued_part))
        assert used == {"svd": 0, "lstsq": 0}, used
        # t's parts, swapped, and what the inverse computes from its own graph.
        fresh = rel.from_graph(inv.graph, inv.x_dim, inv.y_dim)
        for name, theirs in (("domain", t.range), ("range", t.domain),
                             ("kernel", t.multivalued_part), ("multivalued_part", t.kernel)):
            mine, own = getattr(inv, name), getattr(fresh, name)
            assert mine is theirs, name
            assert np.array_equal(mine.basis, own.basis), name
            assert mine.sv_near_cut == own.sv_near_cut, name


def test_chain_builds_once_per_pair(monkeypatch):
    # Every chain step is one preimage in the step loop: the pair's chains
    # and the adjoint pair's each take every step once over all three reports.
    spec = stab.InstanceSpec(6, 6, alpha=2, beta=2, seed=7)
    a, b = stab.generate(spec)
    a_dual, b_dual = rel.adjoint(a), rel.adjoint(b)
    steps = sum(len(build(s, t)) - 1 for s, t in ((a, b), (a_dual, b_dual))
                for build in (chn.m_chain, chn.n_chain))
    taken, real = [], rel.preimage

    def preimage(t, m):
        if sys._getframe(1).f_code is chn._steps.__code__:
            taken.append(t)
        return real(t, m)

    monkeypatch.setattr(rel, "preimage", preimage)
    chn.chain_report(a, b)
    for n in range(1, a.x_dim + 1):
        chn.check_equivalent_conditions(a, b, n)
    assert chn.verify_nu_duality(a, b)["applicable"]
    assert len(taken) == steps, (len(taken), steps)


def test_nu_reads_the_pair_chains(monkeypatch):
    # nu grows the M chain in the pair's record and the chain report reads
    # it: six M steps and five N steps, one preimage each.
    a, b = _deep_pair(7, 5, seed=3)
    used = _count_calls(monkeypatch, ((rel, "preimage"),))
    chn.nu(a, b)
    chn.chain_report(a, b)
    assert used == {"preimage": 11}, used


def test_longer_chains_extend_in_place(monkeypatch):
    # Chains that never stabilize run to their limits: x + 1 M steps and
    # x N steps, then a report three steps deeper adds two steps to each.
    _never_stable(monkeypatch)
    a, b = _deep_pair(7, 5, seed=3)
    chn.chain_report(a, b)
    used = _count_calls(monkeypatch, ((rel, "preimage"),))
    chn.chain_report(a, b, a.x_dim + 3)
    assert used == {"preimage": 4}, used


def test_nu_duality_reads_the_kept_images(monkeypatch):
    a, b = _deep_pair(7, 5, seed=3)
    chn.chain_report(a, b)
    real, seen = rel.image, []

    def counted(t, m):
        seen.extend(name for name, u in (("a", a), ("b", b)) if t is u)
        return real(t, m)

    monkeypatch.setattr(rel, "image", counted)
    assert chn.verify_nu_duality(a, b)["adjoint_sequences_hold"]
    assert len(seen) <= 2, seen
    seen.clear()  # the last entries' images are kept too
    assert chn.verify_nu_duality(a, b)["adjoint_sequences_hold"]
    assert seen == [], seen


def test_nu_duality_builds_no_annihilator_target(calls, monkeypatch):
    a, b = _deep_pair(7, 5, seed=3)
    chains = chn._ChainSet.of(a, b, a.x_dim + 1, a.x_dim + 1)
    # Every gap of the table is far from CHAIN_BAND: its brackets decide all.
    used = _counted(calls, lambda: chn.chain_report(a, b))
    assert used == {"svd": 0, "lstsq": 0}, used
    ambients, full, real = [], [], sub.annihilator

    def annihilator(s):
        ambients.append(s.ambient)
        return real(s)

    def svd(m, *args, _real=np.linalg.svd, **kwargs):
        if kwargs.get("full_matrices", True) and kwargs.get("compute_uv", True):
            full.append(m)
        return _real(m, *args, **kwargs)

    monkeypatch.setattr(sub, "annihilator", annihilator)
    monkeypatch.setattr(np.linalg, "svd", svd)
    report = chn.verify_nu_duality(a, b)
    assert report["adjoint_sequences_hold"] and report["equality_m"]
    # The two adjoint graphs; M'_1 = (B(N_1))-perp and the containment
    # targets are read as K^T U_D.
    assert ambients == [a.x_dim + a.y_dim] * 2, ambients
    kept = chains.ms.images + chains.ns.images
    imaged = [k for k in kept if any(m is k.basis for m in full)]
    assert imaged == [], imaged


def _count_calls(monkeypatch, targets) -> dict:
    """Wrap each (module, name) of ``targets`` to count its calls."""
    used = {name: 0 for _, name in targets}
    for module, name in targets:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            used[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return used


def _families(monkeypatch) -> list:
    """Every pencil family ``rel.pencil_family`` returns, kept alive so that
    two builds never share an id."""
    returned, real = [], rel.pencil_family

    def family(a, b):
        returned.append(real(a, b))
        return returned[-1]

    monkeypatch.setattr(rel, "pencil_family", family)
    return returned


def _hypothesis_gaps(monkeypatch) -> list:
    """One entry per subspace gap, or containment verdict read off one,
    that the standing-hypothesis check asks for itself."""
    gaps, inside = [], []
    real_check = met._check_standing_hypotheses

    def check(a, b):
        inside.append(True)
        try:
            return real_check(a, b)
        finally:
            inside.pop()

    def counted(*args, _real, **kwargs):
        if inside == [True]:
            gaps.append(args)
        inside.append(False)  # a gap that contains takes is not a second one
        try:
            return _real(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(met, "_check_standing_hypotheses", check)
    for name in ("gap", "contains"):
        monkeypatch.setattr(sub, name, functools.partial(counted, _real=getattr(sub, name)))
    return gaps


def test_stability_case_budget(monkeypatch):
    case = sts._decode_stability(sts._stability_case(1, 1))  # every lemma runs
    families, gaps = _families(monkeypatch), _hypothesis_gaps(monkeypatch)
    used = _count_calls(monkeypatch, (
        (met, "check_relative_bound"), (met, "_sigma_tau"), (chn, "nu"),
        (sub, "apply_map")))
    res = sts.SuiteResult("stability", 1, 1)
    sts._check_stability(case, sts._Recorder(res, {}), np.random.default_rng(0))
    assert res.lemmas["gap_bound"]["pass"] == 1, res.lemmas
    assert res.lemmas["eigen_kernel_consistency"]["pass"] == 1, res.lemmas
    assert used == {"check_relative_bound": 1, "_sigma_tau": 1, "nu": 1,
                    "apply_map": 0}, used
    assert len(families) == 2 and len({id(f) for f in families}) == 1, families
    assert len(gaps) == 2, gaps


def test_perturbation_case_budget(monkeypatch):
    case = ser.instance_from_dict(sts._perturbation_case(1, 1))  # every lemma runs
    families = _families(monkeypatch)
    res = sts.SuiteResult("perturbation", 1, 1)
    sts._check_perturbation(case, sts._Recorder(res, {}), np.random.default_rng(0))
    assert res.lemmas["perturbation_inequalities"]["pass"] == 1, res.lemmas
    assert res.lemmas["norm_difference"]["pass"] == 1, res.lemmas
    assert len(families) == 2 and len({id(f) for f in families}) == 1, families


def test_perturbation_verifier_reads_no_norm(monkeypatch):
    a, b = ser.instance_from_dict(sts._perturbation_case(1, 0))
    used = _count_calls(monkeypatch, ((met, "norm"),))
    assert stab.verify_perturbation(a, b)["applicable"]
    assert used == {"norm": 0}, used


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "inst.json"
    assert cli.main(["gen", "--xdim", "16", "--ydim", "16", "--alpha", "2",
                     "--beta", "2", "--force-nu-infinite", "--seed", "101",
                     "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_fitted_bound_runs_the_bracket_once(monkeypatch, tmp_path, instance_file,
                                            command):
    used = _count_calls(monkeypatch, ((met, "_sigma_tau"),))
    out = ["--out", str(tmp_path / "out")]
    assert cli.main([command, str(instance_file), "--tau", "0.3", *out]) == 0
    assert used == {"_sigma_tau": 1}, used
