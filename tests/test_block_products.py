"""BlockCone and BlockFunction, the scenario cone and the scenario function
of every problem, against a per-block loop kept here as the reference."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbasolve.blocklinalg import smat, svec, svec_dim
from dbasolve.proxcone import (BlockCone, BlockFunction, Box, DenseQuadratic,
                               DiagQuadratic, FreeSpace, IndicatorCone,
                               NonnegOrthant, NonnegSymMatrices, PsdCone, Zero,
                               conjugate_value, prox, prox_conjugate)

FEAS_TOL = 1e-8
CONE_KINDS = ("orthant", "nonneg_sym", "free", "box", "psd2", "psd3")
FUNCTION_KINDS = ("zero", "diag", "dense", "indicator")


# -- reference: one call per block, in block order ---------------------------

def psd_project(d, x):
    """The per-block PSD projection: one 2-d eigendecomposition."""
    vals, vecs = np.linalg.eigh(smat(x, d))
    return svec((vecs * np.maximum(vals, 0.0)) @ vecs.T)


def psd_support(d, w, feas_tol):
    lam_max = np.linalg.eigvalsh(smat(w, d))[-1]
    return 0.0 if lam_max <= feas_tol * (1.0 + np.linalg.norm(w)) else np.inf


def ref_project(cone, x):
    if isinstance(cone, PsdCone):
        return psd_project(cone.d, x)
    return cone.project(x)


def ref_support(cone, w, feas_tol):
    if isinstance(cone, PsdCone):
        return psd_support(cone.d, w, feas_tol)
    return cone.support(w, feas_tol)


def ref_prox(f, t, x):
    if isinstance(f, IndicatorCone):
        return ref_project(f.cone, x)
    return f.prox(t, x)


def ref_conjugate(f, w, feas_tol):
    if isinstance(f, IndicatorCone):
        return ref_support(f.cone, w, feas_tol)
    return f.conjugate(w, feas_tol)


def split(blocks, x):
    offs = np.cumsum([0] + [b.dim for b in blocks])
    return [x[offs[i]:offs[i + 1]] for i in range(len(blocks))]


def ref_map(blocks, fn, x):
    return np.concatenate([np.asarray(fn(b, xi), dtype=np.float64)
                           for b, xi in zip(blocks, split(blocks, x))])


def ref_sum(blocks, fn, x):
    total = 0.0
    for b, xi in zip(blocks, split(blocks, x)):
        val = fn(b, xi)
        if not np.isfinite(val):
            return np.inf
        total += val
    return total


def assert_sum_matches(got, ref, blocks, merged_kinds):
    """Bit-equal, except that the blocks of a merged kind with finite sums
    (DiagQuadratic, Box, IndicatorCone of any cones) sum over their
    concatenation, as the stacked path always did: with two or more such
    blocks the sums agree to rounding."""
    counts = [sum(1 for b in blocks if b.dim and kind(b)) for kind in merged_kinds]
    if max(counts, default=0) <= 1 or not np.isfinite(ref):
        assert got == ref
    else:
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)


def is_box(cone):
    return isinstance(cone, Box)


def is_indicator(f):
    return isinstance(f, IndicatorCone)


def is_diag(f):
    return isinstance(f, DiagQuadratic)


# -- block generators ---------------------------------------------------------

def make_cone(kind, n, rng):
    if kind == "orthant":
        return NonnegOrthant(n)
    if kind == "nonneg_sym":
        return NonnegSymMatrices(max(n, 1))
    if kind == "free":
        return FreeSpace(n)
    if kind == "box":
        lower = rng.normal(size=n) - 1.0
        upper = lower + rng.uniform(0.0, 2.0, n)
        lower[rng.random(n) < 0.3] = -np.inf
        upper[rng.random(n) < 0.3] = np.inf
        return Box(lower, upper)
    return PsdCone(int(kind[-1]))


def make_function(kind, cone_kind, n, rng):
    if kind == "zero":
        return Zero(n)
    if kind == "diag":
        diag = rng.uniform(0.0, 2.0, n)
        diag[rng.random(n) < 0.3] = 0.0
        return DiagQuadratic(diag)
    if kind == "dense":
        M = rng.normal(size=(max(n, 1), max(n, 1)))
        return DenseQuadratic(M @ M.T + np.eye(max(n, 1)))
    return IndicatorCone(make_cone(cone_kind, n, rng))


sizes = st.integers(min_value=0, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
# "raw" draws a random vector, "tiny" the same scaled by 1e-10 (near the
# clamps), "polar" x - P(x) for the reference map P, where every support and
# conjugate is finite
points = st.sampled_from(("raw", "tiny", "polar"))


def draw_point(rng, how, dim, polar_of):
    x = rng.normal(size=dim) * rng.choice([1e-3, 1.0, 1e3])
    if how == "polar":
        return x - polar_of(x)
    return x * 1e-10 if how == "tiny" else x


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CONE_KINDS), sizes),
                min_size=1, max_size=6), seeds, points)
def test_block_cone_matches_per_block_loop(spec, seed, how):
    rng = np.random.default_rng(seed)
    cones = [make_cone(kind, n, rng) for kind, n in spec]
    K = BlockCone(cones)
    assert K.dim == sum(c.dim for c in cones)
    x = draw_point(rng, "raw", K.dim, None)
    assert np.array_equal(K.project(x), ref_map(cones, ref_project, x))
    w = draw_point(rng, how, K.dim,
                   lambda v: ref_map(cones, ref_project, v))
    ref = ref_sum(cones, lambda c, wi: ref_support(c, wi, FEAS_TOL), w)
    got = conjugate_value(K, w, FEAS_TOL)
    assert_sum_matches(got, ref, cones, [is_box])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FUNCTION_KINDS),
                          st.sampled_from(CONE_KINDS), sizes),
                min_size=1, max_size=6), seeds, points,
       st.sampled_from((0.3, 1.0, 7.0)))
# indicator blocks of two cones, split by a dense quadratic, merge into one
# IndicatorCone group and sum in group order
@example(spec=[("dense", "orthant", 1), ("indicator", "orthant", 1),
               ("dense", "orthant", 1), ("indicator", "box", 4)],
         seed=0, how="tiny", t=0.3)
def test_block_function_matches_per_block_loop(spec, seed, how, t):
    rng = np.random.default_rng(seed)
    funcs = [make_function(kind, cone_kind, n, rng)
             for kind, cone_kind, n in spec]
    f = BlockFunction(funcs)
    assert f.dim == sum(g.dim for g in funcs)
    assert f.is_zero == all(g.is_zero for g in funcs)
    x = draw_point(rng, "raw", f.dim, None)
    assert np.array_equal(prox(f, t, x),
                          ref_map(funcs, lambda g, xi: ref_prox(g, t, xi), x))
    assert np.array_equal(
        prox_conjugate(f, t, x),
        ref_map(funcs, lambda g, xi: xi - ref_prox(g, t, t * xi) / t, x))
    value = ref_sum(funcs, lambda g, xi: g.value(xi), x)
    assert_sum_matches(f.value(x), value, funcs, [is_diag])
    w = draw_point(rng, how, f.dim,
                   lambda v: ref_map(funcs, lambda g, xi: ref_prox(g, 1.0, xi), v))
    ref = ref_sum(funcs, lambda g, wi: ref_conjugate(g, wi, FEAS_TOL), w)
    got = conjugate_value(f, w, FEAS_TOL)
    assert_sum_matches(got, ref, funcs, [is_diag, is_indicator])


def test_clamp_is_per_block_not_whole_vector():
    # the second block's violation (2e-8) exceeds its own clamp
    # 1e-8 (1 + 2e-8) but not the whole vector's 1e-8 (1 + ||w||) ~ 1e-5
    big = -1e3 * np.ones(3)
    small = np.array([2e-8, -1e-9, 0.0])
    w = np.concatenate([big, small])
    whole = float(np.max(w)) <= FEAS_TOL * (1.0 + np.linalg.norm(w))
    assert whole
    for cones in ([NonnegOrthant(3), NonnegOrthant(3)],
                  [NonnegOrthant(3), NonnegSymMatrices(2)],
                  [Box(np.zeros(3), np.full(3, np.inf))] * 2):
        K = BlockCone(cones)
        assert ref_sum(cones, lambda c, wi: c.support(wi, FEAS_TOL), w) == np.inf
        assert K.support(w, FEAS_TOL) == np.inf
        assert BlockFunction([IndicatorCone(c) for c in cones]).conjugate(
            w, FEAS_TOL) == np.inf
    # PSD: a strongly negative definite block next to one with a slightly
    # positive eigenvalue
    K = BlockCone([PsdCone(2), PsdCone(2)])
    w = np.concatenate([svec(-1e3 * np.eye(2)), svec(np.diag([5e-8, -1.0]))])
    assert psd_support(2, w[3:], FEAS_TOL) == np.inf
    assert K.support(w, FEAS_TOL) == np.inf


def test_grouping_by_kind():
    # elementwise kinds merge per kind, PSD blocks per order, dense
    # quadratics stay on their own; empty blocks are left out
    K = BlockCone([PsdCone(2), NonnegOrthant(2), PsdCone(3), NonnegOrthant(0),
                   NonnegSymMatrices(2), PsdCone(2)])
    kinds = [(type(part), getattr(part, "k", None), part.dim)
             for part, _, _ in K.groups]
    assert kinds == [(PsdCone, 2, 6), (NonnegOrthant, None, 5),
                     (PsdCone, 1, 6)]
    assert [list(starts) for _, _, starts in K.groups] == [[0, 3], [0, 2], [0]]
    f = BlockFunction([DenseQuadratic(np.eye(2)), Zero(1),
                       DenseQuadratic(np.eye(1)), Zero(2)])
    assert [type(part) for part, _, _ in f.groups] == [DenseQuadratic, Zero,
                                                      DenseQuadratic]


def test_one_group_gets_the_whole_vector():
    # a single kind over every coordinate reaches the merged object with the
    # caller's array itself, no copy into group order, and sums as the
    # stacked path did: over the concatenation
    K = BlockCone([NonnegOrthant(3), NonnegOrthant(0), NonnegSymMatrices(2)])
    (part, _, _), = K.groups
    seen = []
    part.project = lambda v: seen.append(v) or v
    x = np.arange(6.0)
    assert K.project(x) is x and seen[0] is x
    rng = np.random.default_rng(4)
    diag = [rng.uniform(0.0, 1.0, n) for n in (3, 0, 5)]
    f = BlockFunction([DiagQuadratic(d) for d in diag])
    whole = DiagQuadratic(np.concatenate(diag))
    x = rng.normal(size=8)
    assert f.value(x) == whole.value(x)
    assert f.conjugate(x, FEAS_TOL) == whole.conjugate(x, FEAS_TOL)
    assert np.array_equal(f.prox(0.5, x), whole.prox(0.5, x))


@pytest.mark.parametrize("d", [2, 3, 6, 10])
@pytest.mark.parametrize("k", [1, 3, 50])
def test_batched_psd_projection_bit_equal(d, k):
    rng = np.random.default_rng(d * 100 + k)
    x = rng.normal(size=k * svec_dim(d))
    blocks = [PsdCone(d)] * k
    assert np.array_equal(PsdCone(d, k).project(x),
                          ref_map(blocks, ref_project, x))


@pytest.mark.parametrize("d", [1, 2, 6, 11])
@pytest.mark.parametrize("k", [1, 5])
def test_psd_projection_is_the_function_form(d, k):
    # array methods and an in-place clip give the np.reshape / np.maximum /
    # np.swapaxes formula bit for bit
    x = np.random.default_rng(10 * d + k).normal(size=k * svec_dim(d))
    vals, vecs = np.linalg.eigh(smat(np.reshape(x, (k, -1)), d))
    vals = np.maximum(vals, 0.0)
    want = svec((vecs * vals[:, None, :]) @ np.swapaxes(vecs, 1, 2)).ravel()
    assert np.array_equal(PsdCone(d, k).project(x), want)


# -- the joint cone and function of a problem over x|xbar ---------------------

def make_pair(cone_kind, fn_kind, n, rng):
    """A cone and an objective of one dimension: ``fn_kind`` "zero",
    "dense" (a positive definite quadratic) or "indicator" of a cone of
    kind ``cone_kind``."""
    cone = make_cone(cone_kind, n, rng)
    d = cone.dim
    if fn_kind == "dense" and d:
        M = rng.normal(size=(d, d))
        return cone, DenseQuadratic(M @ M.T + np.eye(d))
    if fn_kind == "indicator":
        return cone, IndicatorCone(make_cone(cone_kind, n, rng))
    return cone, Zero(d)


pairs = st.tuples(st.sampled_from(CONE_KINDS),
                  st.sampled_from(("zero", "dense", "indicator")), sizes)


@settings(max_examples=150, deadline=None)
@given(st.lists(pairs, min_size=1, max_size=3), st.integers(1, 3),
       st.lists(pairs, min_size=1, max_size=5), seeds,
       st.sampled_from((0.3, 1.0, 7.0)))
# n0 = 0 next to a scenario with no variables and PSD blocks of two orders
@example(first=[("orthant", "zero", 0)], copies=1,
         scen=[("psd3", "dense", 0), ("free", "zero", 0), ("psd2", "zero", 0),
               ("psd3", "indicator", 0)], seed=1, t=0.3)
def test_joint_objects_match_separate_calls(first, copies, scen, seed, t):
    # the first stage is one block, or, as in PHA's bundle, a BlockCone and
    # a BlockFunction of ``copies`` repetitions of its blocks
    from dbasolve.model import DBAProblem, ScenarioBlock
    rng = np.random.default_rng(seed)
    fc, ft = zip(*[make_pair(*p, rng) for p in first])
    if len(fc) == 1 and copies == 1:
        cone, theta = fc[0], ft[0]
    else:
        cone, theta = BlockCone(list(fc) * copies), BlockFunction(list(ft) * copies)
    n0 = cone.dim
    blocks = []
    for p in scen:
        c, f = make_pair(*p, rng)
        blocks.append(ScenarioBlock(np.zeros((1, n0)), np.zeros((1, c.dim)),
                                    np.zeros(1), np.zeros(c.dim), c, f))
    prob = DBAProblem(None, None, np.zeros(n0), cone, theta, blocks)
    a = rng.normal(size=n0) * rng.choice([1e-3, 1.0, 1e3])
    b = rng.normal(size=prob.nbar) * rng.choice([1e-3, 1.0, 1e3])
    ab = np.concatenate((a, b))
    assert prob.joint_cone.dim == prob.joint_theta.dim == ab.size
    assert np.array_equal(prob.joint_cone.project(ab), np.concatenate(
        (cone.project(a), prob.scen_cone.project(b))))
    assert np.array_equal(prox_conjugate(prob.joint_theta, t, ab),
                          np.concatenate((prox_conjugate(theta, t, a),
                                          prox_conjugate(prob.scen_theta, t, b))))


def test_joint_cone_merges_first_stage_blocks():
    # PHA's first stage of copies is flattened, so its PSD blocks and the
    # scenarios' make one batched projection
    from dbasolve.model import DBAProblem, ScenarioBlock
    blocks = [ScenarioBlock(np.zeros((1, 6)), np.zeros((1, 3)), np.zeros(1),
                            np.zeros(3), PsdCone(2), Zero(3))] * 4
    prob = DBAProblem(None, None, np.zeros(6), BlockCone([PsdCone(2)] * 2),
                      BlockFunction([Zero(3)] * 2), blocks)
    assert [(type(p), p.k) for p, _, _ in prob.joint_cone.groups] == [(PsdCone, 6)]
    assert [type(p) for p, _, _ in prob.joint_theta.groups] == [Zero]
    assert prob.with_cost(np.ones(6)).joint_cone is prob.joint_cone
