import importlib.util
import os
import sys

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import dbasolve.blocklinalg as blocklinalg
import dbasolve.msolver as msolver
import dbasolve.proxcone as proxcone
from dbasolve.blocklinalg import (BlockDiagOp, CholFactor, StackedOp,
                                  _norm, all_finite, canonicalize,
                                  chol_factor, lambda_max_bound, mv, op_norm_2,
                                  pcg_solve, power_lambda_max, smat,
                                  sparse_from_triplets, svec, svec_dim,
                                  svec_indices, svec_maps)
from dbasolve.builders import random_sdp
from dbasolve.errors import Breakdown, DimensionMismatch, NotPositiveDefinite
from dbasolve.solvers import admm_solve

from fractions import Fraction

from conftest import (bbar_gram_factors, exactly_positive_definite,
                      same_canonical)


def _load_perfbench_workloads():
    """perfbench/workloads.py, loaded by path (perfbench is no package)."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    name = "perfbench_workloads_mv"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclass resolves the module through sys.modules while executing it
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def random_spd(rng, n, cond=None):
    M = rng.normal(size=(n, n))
    S = M @ M.T + n * np.eye(n)
    if cond is not None:
        vals, vecs = np.linalg.eigh(S)
        vals = np.linspace(1.0, cond, n)
        S = (vecs * vals) @ vecs.T
    return S


class TestSparse:
    def test_duplicates_summed_and_sorted(self):
        m = sparse_from_triplets((2, 2), [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
        assert m.nnz == 2
        assert m[0, 1] == 5.0
        assert np.all(np.diff(m.indptr) >= 0)

    def test_index_range_checked(self):
        with pytest.raises(DimensionMismatch):
            sparse_from_triplets((2, 2), [0, 2], [0, 0], [1.0, 1.0])

    def test_same_canonical(self):
        a = sparse_from_triplets((2, 2), [0, 1], [0, 1], [1.0, 2.0])
        b = sparse_from_triplets((2, 2), [1, 0], [1, 0], [2.0, 1.0])
        assert same_canonical(a, b)
        c = sparse_from_triplets((2, 2), [0, 1], [0, 1], [1.0, 2.5])
        assert not same_canonical(a, c)

    def test_canonical_input_is_returned_as_is(self):
        m = sparse_from_triplets((3, 4), [0, 2, 2], [3, 0, 1], [1.0, 2.0, 0.0])
        before = [arr.copy() for arr in (m.indptr, m.indices, m.data)]
        assert canonicalize(m) is m
        for arr, old in zip((m.indptr, m.indices, m.data), before):
            assert np.array_equal(arr, old)
        dense = np.ones((2, 2))
        assert canonicalize(dense) is dense

    @pytest.mark.parametrize("case", ["unsorted", "duplicates", "coo",
                                      "int", "csc"])
    def test_other_input_is_canonicalized(self, case):
        rows, cols = [1, 0, 0, 1], [0, 2, 1, 0]
        vals = [1.0, 2.0, 3.0, 4.0]
        if case == "unsorted":
            mat = sp.csr_matrix((np.array([2.0, 3.0, 5.0]), np.array([2, 1, 0]),
                                 np.array([0, 2, 3])), shape=(2, 3))
        elif case == "duplicates":
            mat = sp.csr_matrix((np.array(vals), np.array(cols[:2] + [0, 0]),
                                 np.array([0, 2, 4])), shape=(2, 3))
        elif case == "coo":
            mat = sp.coo_matrix((vals, (rows, cols)), shape=(2, 3))
        elif case == "int":
            mat = sp.csr_matrix(np.array([[0, 3, 2], [5, 0, 0]]))
        else:
            mat = sp.csc_matrix(np.array([[0.0, 3.0, 2.0], [5.0, 0.0, 0.0]]))
        out = canonicalize(mat)
        assert out is not mat and type(out) is sp.csr_matrix
        assert out.has_canonical_format
        assert np.array_equal(out.toarray(), mat.toarray())

    def test_non_canonical_input_is_not_written(self):
        # unsorted rows with a duplicate entry: the canonical copy sorts and
        # sums, the caller's arrays keep their order and length
        indptr, indices = np.array([0, 2, 4]), np.array([2, 0, 1, 1])
        data = np.array([1.0, 2.0, 3.0, 4.0])
        mat = sp.csr_matrix((data, indices, indptr), shape=(2, 3))
        out = canonicalize(mat)
        assert np.array_equal(out.toarray(), [[2.0, 0.0, 1.0], [0.0, 7.0, 0.0]])
        assert np.array_equal(mat.indptr, [0, 2, 4])
        assert np.array_equal(mat.indices, [2, 0, 1, 1])
        assert np.array_equal(mat.data, [1.0, 2.0, 3.0, 4.0])


class TestSvec:
    def test_inner_product_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(1, 7))
            X = rng.normal(size=(d, d)); X = X + X.T
            Y = rng.normal(size=(d, d)); Y = Y + Y.T
            assert svec(X) @ svec(Y) == pytest.approx(np.trace(X @ Y), rel=1e-12)
            assert np.allclose(smat(svec(X), d), X, atol=1e-13)

    def test_indices_cached_and_read_only(self):
        for d in (1, 4, 7):
            iu, ju = svec_indices(d)
            assert svec_indices(d)[0] is iu
            assert np.array_equal(iu, np.triu_indices(d)[0])
            assert np.array_equal(ju, np.triu_indices(d)[1])
            il, jl = svec_indices(d, lower=True)
            assert np.array_equal(il, np.tril_indices(d)[0])
            assert np.array_equal(jl, np.tril_indices(d)[1])
            with pytest.raises(ValueError):
                iu[0] = 1


class TestChol:
    def test_identity(self):
        fac = chol_factor(np.eye(3))
        assert np.allclose(fac.solve(np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_diagonal(self):
        fac = chol_factor(np.diag([4.0, 9.0]))
        assert np.allclose(fac.solve(np.array([8.0, 27.0])), [2.0, 3.0])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(2)
        S = random_spd(rng, 10)
        h = rng.normal(size=10)
        x = chol_factor(S).solve(h)
        assert np.linalg.norm(S @ x - h) <= 1e-12 * np.linalg.norm(h)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            chol_factor(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            chol_factor(np.diag([1.0, 0.0]))

    def test_sparse_input(self):
        rng = np.random.default_rng(3)
        S = random_spd(rng, 8)
        h = rng.normal(size=8)
        x = chol_factor(sp.csr_matrix(S)).solve(h)
        assert np.linalg.norm(S @ x - h) <= 1e-12 * np.linalg.norm(h)

    def test_conditioned_solves(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            S = random_spd(rng, n, cond=1e6)
            h = rng.normal(size=n)
            x = chol_factor(S).solve(h)
            assert np.linalg.norm(S @ x - h) <= 1e-10 * np.linalg.norm(h)


class TestCholSolveContract:
    """The dense solve is LAPACK dpotrs without SciPy's per-call scan of the
    factor: results bit-equal to ``cho_solve``, inputs untouched, NaN/Inf in
    the right-hand side or the factor still a ``ValueError``."""

    @staticmethod
    def right_hand_sides(rng, n):
        H = rng.normal(size=(5, n))
        return {"1-D": rng.normal(size=n),
                "C-ordered": np.ascontiguousarray(H.T),
                "F-ordered": np.asfortranarray(H.T),
                "transposed view": H.T,
                "one column": rng.normal(size=(n, 1))}

    @pytest.mark.parametrize("n", [1, 4, 8, 60])
    def test_bit_equal_to_cho_solve_and_input_untouched(self, n):
        rng = np.random.default_rng(n)
        fac = chol_factor(random_spd(rng, n))
        for label, h in self.right_hand_sides(rng, n).items():
            before = h.copy()
            x = fac.solve(h)
            ref = sla.cho_solve((fac.lower, True), h)
            assert x.shape == h.shape, label
            assert np.array_equal(x, ref), label
            assert np.array_equal(h, before), label

    def test_shared_multi_rhs_shape(self):
        # a factor maps the rows of an (n_g, m) stack at once
        rng = np.random.default_rng(5)
        fac = chol_factor(random_spd(rng, 6))
        H = rng.normal(size=(9, 6))
        out = fac.solve(H.T).T
        assert out.shape == H.shape
        assert np.array_equal(out, sla.cho_solve((fac.lower, True), H.T).T)
        for row, h in zip(out, H):
            assert np.array_equal(row, sla.cho_solve((fac.lower, True), h))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_raises(self, bad):
        rng = np.random.default_rng(6)
        fac = chol_factor(random_spd(rng, 4))
        h = rng.normal(size=4)
        h[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            fac.solve(h)
        H = rng.normal(size=(4, 3))
        H[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            fac.solve(H)
        # the factor was not spoiled by the failed calls
        ok = rng.normal(size=4)
        assert np.array_equal(fac.solve(ok),
                              sla.cho_solve((fac.lower, True), ok))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_factor_raises(self, bad):
        rng = np.random.default_rng(7)
        low = np.linalg.cholesky(random_spd(rng, 4))
        low[3, 1] = bad
        fac = CholFactor("dense", low, 4)
        with pytest.raises(ValueError, match="infs or NaNs"):
            fac.solve(np.ones(4))
        with pytest.raises(ValueError, match="infs or NaNs"):
            fac.solve(np.ones((4, 2)))

    def test_dimension_mismatch_and_empty(self):
        rng = np.random.default_rng(8)
        fac = chol_factor(random_spd(rng, 3))
        with pytest.raises(ValueError, match="incompatible"):
            fac.solve(np.ones(4))
        empty = chol_factor(np.zeros((0, 0)))
        assert empty.solve(np.zeros(0)).shape == (0,)
        assert fac.solve(np.zeros((3, 0))).shape == (3, 0)


class TestAllFinite:
    def test_dense_sparse_and_operators(self):
        dense = np.arange(6.0).reshape(2, 3)
        assert all_finite(dense) and all_finite(sp.csr_matrix(dense))
        bad = dense.copy()
        bad[1, 2] = np.nan
        assert not all_finite(bad) and not all_finite(sp.csr_matrix(bad))
        assert StackedOp([dense, dense]).all_finite()
        assert not StackedOp([dense, bad]).all_finite()
        inf = dense.copy()
        inf[0, 0] = np.inf
        assert not StackedOp([inf, inf]).all_finite()
        assert BlockDiagOp([dense, dense]).all_finite()
        assert not BlockDiagOp([dense, sp.csr_matrix(bad)]).all_finite()


class TestPcg:
    def test_identity_one_iteration(self):
        x, iters, relres = pcg_solve(lambda v: v, np.array([1.0, -2.0, 3.0]))
        assert iters <= 1 and relres <= 1e-12
        assert np.allclose(x, [1, -2, 3])

    def test_perfect_preconditioner(self):
        d = np.arange(1.0, 6.0)
        x, iters, relres = pcg_solve(lambda v: d * v, np.ones(5),
                                     precond=lambda r: r / d)
        assert iters <= 2 and relres <= 1e-12

    def test_random_spd_finite_termination(self):
        rng = np.random.default_rng(5)
        S = random_spd(rng, 20)
        h = rng.normal(size=20)
        x, iters, relres = pcg_solve(lambda v: S @ v, h, tol=1e-10, maxit=200)
        assert relres <= 1e-10
        assert iters <= 3 * 20  # finite-termination bound with rounding slack

    def test_breakdown_on_indefinite(self):
        S = np.diag([1.0, -1.0])
        with pytest.raises(Breakdown):
            pcg_solve(lambda v: S @ v, np.array([1.0, 1.0]))

    def test_tol_honored_below_maxit(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(3, 25))
            S = random_spd(rng, n)
            h = rng.normal(size=n)
            x, iters, relres = pcg_solve(lambda v: S @ v, h, tol=1e-8,
                                         maxit=500)
            if iters < 500:
                assert relres <= 1e-8


class TestPower:
    def test_diagonal(self):
        lam, ok = power_lambda_max(lambda v: np.diag([1.0, 2.0, 3.0]) @ v, 3)
        assert ok and lam == pytest.approx(3.0, rel=1e-7)

    def test_zero_operator(self):
        lam, ok = power_lambda_max(lambda v: 0.0 * v, 4)
        assert ok and lam == 0.0

    def test_matches_dense_eig(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            B = rng.normal(size=(5, 3))
            G = B @ B.T
            lam, _ = power_lambda_max(lambda v: G @ v, 5, tol=1e-10)
            exact = np.linalg.eigvalsh(G)[-1]
            assert lam == pytest.approx(exact, rel=1e-6)
            assert lam <= exact * (1 + 1e-8)

    def test_lambda_max_bound_above_converged_estimate(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 20:
            B = rng.normal(size=(6, 4))
            G = B @ B.T
            ev = np.linalg.eigvalsh(G)
            if ev[-2] > 0.9 * ev[-1]:
                continue           # slow convergence: margin not guaranteed
            bound = lambda_max_bound(G)
            assert ev[-1] <= bound <= ev[-1] * (1 + 1e-6)
            checked += 1

    def test_lambda_max_bound_certified_on_random_grams(self):
        # 3000 symmetric PSD matrices of order 2-8, half of them with a top
        # eigenvalue pair 1e-9 to 1e-2 apart (the converged power estimate
        # raised by 10 tol fell below lambda_max on 647 of these): the
        # bound is never below eigvalsh's top eigenvalue, and on the first
        # 60 lam I - S is positive definite in exact rational arithmetic
        rng = np.random.default_rng(2026)
        for k in range(3000):
            n = int(rng.integers(2, 9))
            if k % 2:
                Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                ev = np.sort(rng.uniform(0.0, 1.0, n))
                ev[-2] = ev[-1] * (1.0 - 10.0 ** rng.uniform(-9, -2))
                S = (Q * ev) @ Q.T
                S = 0.5 * (S + S.T)
            else:
                B = rng.normal(size=(n, int(rng.integers(1, 2 * n + 1))))
                S = B @ B.T
            lam = lambda_max_bound(S)
            assert lam >= np.linalg.eigvalsh(S)[-1]
            if k < 60:
                assert exactly_positive_definite(
                    [[(Fraction(lam) if r == c else 0) - Fraction(S[r, c])
                      for c in range(n)] for r in range(n)])

    def test_lambda_max_bound_gershgorin_above_the_cap(self, monkeypatch):
        # above _EIGH_MAX_DIM no dense eigenvalue: the Gershgorin bound,
        # raised by n eps for the rounding of its row sums
        monkeypatch.setattr(blocklinalg, "_EIGH_MAX_DIM", 1)
        G = np.array([[2.0, -1.0], [-1.0, 3.0]])
        eps = np.finfo(float).eps
        assert lambda_max_bound(G) == 4.0 * (1.0 + 2.0 * eps)
        assert lambda_max_bound(sp.csr_matrix(G)) == lambda_max_bound(G)


class TestOpNorm:
    def test_identity(self):
        assert op_norm_2(np.eye(4)) == pytest.approx(1.0, rel=1e-8)

    def test_rank_one(self):
        C = np.zeros((3, 3))
        C[0, 0] = 2.0
        assert op_norm_2(C) == pytest.approx(2.0, rel=1e-8)

    def test_matches_svd(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            C = rng.normal(size=(4, 6))
            assert op_norm_2(C, tol=1e-10) == pytest.approx(
                np.linalg.svd(C, compute_uv=False)[0], rel=1e-6)


class TestBlockOps:
    def test_stacked_adjoint_identity(self):
        rng = np.random.default_rng(9)
        blocks = [rng.normal(size=(3, 4)), sp.csr_matrix(rng.normal(size=(2, 4)))]
        op = StackedOp(blocks)
        for _ in range(20):
            x = rng.normal(size=4)
            ybar = rng.normal(size=op.m)
            assert op.apply(x) @ ybar == pytest.approx(
                x @ op.apply_adjoint(ybar), abs=1e-12)

    def test_blockdiag_adjoint_identity(self):
        rng = np.random.default_rng(10)
        blocks = [rng.normal(size=(3, 2)), rng.normal(size=(2, 5))]
        op = BlockDiagOp(blocks)
        for _ in range(20):
            x = rng.normal(size=op.n)
            y = rng.normal(size=op.m)
            assert op.apply(x) @ y == pytest.approx(
                x @ op.apply_adjoint(y), abs=1e-12)

    @staticmethod
    def _explicit_zero(rng):
        blk = sp.random(4, 6, density=0.4, format="csr", random_state=rng)
        blk.data[::2] = 0.0                     # stored, not removed
        return blk

    @pytest.mark.parametrize("case", ["ragged", "zero_rows", "zero_cols",
                                      "dense", "explicit_zeros", "large"])
    def test_blockdiag_assembly_equals_scipy(self, case):
        rng = np.random.default_rng(12)
        sprand = lambda m, n: sp.random(m, n, density=0.5, format="csr",
                                        random_state=rng)
        blocks = {
            "ragged": [sprand(3, 2), sprand(1, 7), sprand(5, 4)],
            "zero_rows": [sprand(2, 3), sp.csr_matrix((0, 4)), sprand(3, 1),
                          sp.csr_matrix((0, 0))],
            "zero_cols": [sp.csr_matrix((3, 0)), sprand(2, 5),
                          sp.csr_matrix((1, 0))],
            "dense": [rng.normal(size=(3, 4)), sprand(2, 2),
                      np.zeros((2, 3)), np.zeros((0, 2))],
            "explicit_zeros": [self._explicit_zero(rng), sprand(2, 3),
                               self._explicit_zero(rng)],
            "large": [sprand(5, 15) for _ in range(400)],
        }[case]
        op = BlockDiagOp(blocks)
        got = op._assemble(op.blocks)
        want = sp.block_diag([sp.csr_matrix(b) for b in op.blocks]).tocsr()
        assert type(got) is type(want) and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        stored = blocklinalg.compact_for_matvec(want)
        if sp.issparse(stored):
            assert same_canonical(op.matrix, stored)
        else:
            assert np.array_equal(op.matrix, stored)

    def test_stacked_requires_common_domain(self):
        with pytest.raises(DimensionMismatch):
            StackedOp([np.ones((2, 3)), np.ones((2, 4))])

    def test_identical_blocks_stack(self):
        # identical blocks are assembled like any others: one stacked matrix
        b = sparse_from_triplets((2, 3), [0, 1], [0, 2], [1.0, 2.0])
        op = StackedOp([b, b.copy()])
        assert same_canonical(sp.csr_matrix(op.matrix),
                              sp.vstack([b, b], format="csr"))
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=3), rng.normal(size=4)
        assert np.array_equal(op.apply(x)[:2], op.apply(x)[2:])
        assert np.allclose(op.apply_adjoint(y), b.T @ (y[:2] + y[2:]))


# -- cached svec/smat maps against the triangle-mask implementations ---------

def svec_masked(x):
    """Reference svec: gather the upper triangle, scale the masked
    off-diagonals in place."""
    x = np.asarray(x, dtype=np.float64)
    iu, ju = np.triu_indices(x.shape[-1])
    out = x[..., iu, ju]
    out[..., iu != ju] *= np.sqrt(2.0)
    return out


def smat_masked(v, d):
    """Reference smat: unscale the masked off-diagonals, scatter both
    triangles into zeros."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != (svec_dim(d),):
        raise DimensionMismatch("svec length %d does not match dimension %d"
                                % (v.size, d))
    iu, ju = np.triu_indices(d)
    vals = v.copy()
    vals[..., iu != ju] /= np.sqrt(2.0)
    out = np.zeros(v.shape[:-1] + (d, d))
    out[..., iu, ju] = vals
    out[..., ju, iu] = vals
    return out


STACKS = [(), (4,), (2, 3)]


class TestSvecBitIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    @pytest.mark.parametrize("lead", STACKS)
    def test_svec_matches_masked(self, d, lead):
        # a general (not symmetric) input: both read the upper triangle only
        x = np.random.default_rng(d).normal(size=lead + (d, d))
        got = svec(x)
        assert got.shape == lead + (svec_dim(d),)
        assert np.array_equal(got, svec_masked(x))

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_svec_non_contiguous_stack(self, d):
        base = np.random.default_rng(10 + d).normal(size=(d, d, 5))
        x = np.transpose(base, (2, 1, 0))
        assert not x.flags.c_contiguous
        assert np.array_equal(svec(x), svec_masked(x))

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    @pytest.mark.parametrize("lead", STACKS)
    def test_smat_matches_masked(self, d, lead):
        v = np.random.default_rng(20 + d).normal(size=lead + (svec_dim(d),))
        got = smat(v, d)
        assert got.shape == lead + (d, d)
        assert np.array_equal(got, smat_masked(v, d))

    def test_maps_cached_and_read_only(self):
        for d in (1, 3, 6):
            maps = svec_maps(d)
            assert svec_maps(d) is maps
            for arr in maps:
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_smat_checks_length(self):
        with pytest.raises(DimensionMismatch):
            smat(np.ones(5), 3)
        with pytest.raises(DimensionMismatch):
            smat(np.ones((2, 7)), 3)

    @pytest.mark.parametrize("convert", [
        lambda a: a.astype(np.int64), lambda a: a.tolist(),
        lambda a: a.astype(np.float32)], ids=["int", "list", "float32"])
    def test_other_inputs_are_converted(self, convert):
        # only a float64 ndarray skips the conversion
        rng = np.random.default_rng(31)
        m = rng.integers(-5, 5, size=(2, 3, 3)).astype(np.float64)
        v = rng.integers(-5, 5, size=(2, 6)).astype(np.float64)
        for got, want in ((svec(convert(m)), svec(m)),
                          (smat(convert(v), 3), smat(v, 3))):
            assert got.dtype == np.float64 and np.array_equal(got, want)
        with pytest.raises(DimensionMismatch):
            smat(convert(np.ones(5)), 3)

    def test_solve_log_unchanged_by_masked_kernels(self, monkeypatch):
        problem = random_sdp(2, 3, 2, 3, N=3, seed=1)
        cached = admm_solve(problem)
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn)
                return fn(*args)
            return wrapper

        for mod in (blocklinalg, proxcone):
            monkeypatch.setattr(mod, "svec", counted(svec_masked))
            monkeypatch.setattr(mod, "smat", counted(smat_masked))
        masked = admm_solve(problem)
        assert {svec_masked, smat_masked} <= set(calls)
        assert cached.status == masked.status
        assert cached.log_rows == masked.log_rows


class TestMv:
    def test_dense_and_csr_match_ravelled_product(self):
        rng = np.random.default_rng(12)
        dense = rng.normal(size=(4, 6))
        x = rng.normal(size=6)
        for op in (dense, sp.csr_matrix(dense)):
            got = mv(op, x)
            assert isinstance(got, np.ndarray) and got.ndim == 1
            assert np.array_equal(got, np.asarray(op @ x).ravel())

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_product_is_the_ravelled_one(self, order):
        # a 2-d ndarray times a 1-d ndarray returns op @ x itself
        rng = np.random.default_rng(13)
        op = np.asarray(rng.normal(size=(7, 9)), order=order)
        base = rng.normal(size=18)
        for x in (base[:9].copy(), base[::2], base[9:][::-1]):
            got = mv(op, x)
            assert type(got) is np.ndarray and got.shape == (7,)
            assert np.array_equal(got, np.asarray(op @ x).ravel())
        for n in (0, 8, 10):
            with pytest.raises(ValueError):
                mv(op, np.ones(n))

    def test_out_receives_the_product(self):
        # dense, the CSR kernel (on a zero-filled out) and the fallback
        rng = np.random.default_rng(15)
        dense = rng.normal(size=(5, 7)) * (rng.random((5, 7)) < 0.6)
        x = rng.normal(size=7)
        for op in (dense, sp.csr_matrix(dense), sp.csc_matrix(dense)):
            buf = np.full(9, np.nan)
            out = buf[2:7]
            assert mv(op, x, out) is out
            assert np.array_equal(out, mv(op, x))
            assert np.isnan(buf[:2]).all() and np.isnan(buf[7:]).all()

    def test_other_inputs_keep_the_ravelled_product(self):
        # a sparse operator other than CSR and a 2-d x come out 1-d (a
        # matrix operator: the next test)
        rng = np.random.default_rng(14)
        dense = rng.normal(size=(4, 6))
        x = rng.normal(size=6)
        for op, v in ((sp.csc_matrix(dense), x), (dense, x[:, None]),
                      (sp.csr_matrix(dense), x[:, None])):
            got = mv(op, v)
            assert type(got) is np.ndarray and got.shape == (4,)
            assert np.array_equal(got, np.asarray(op @ v).ravel())

    def test_matrix_operator_still_flattened(self):
        op = np.asmatrix(np.arange(6.0).reshape(2, 3))
        got = mv(op, np.ones(3))
        assert type(got) is np.ndarray and got.shape == (2,)
        assert np.array_equal(got, [3.0, 12.0])

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Calls that reach the direct CSR kernel, which still runs."""
        calls = []
        real = blocklinalg._csr_matvec

        def spy(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(blocklinalg, "_csr_matvec", spy)
        return calls

    def _check_direct(self, op, x, kernel_calls):
        before = len(kernel_calls)
        got = mv(op, x)
        assert len(kernel_calls) == before + 1
        assert type(got) is np.ndarray and got.shape == (op.shape[0],)
        assert np.array_equal(got, op @ x)

    def test_direct_kernel_index_dtypes_and_empty_rows(self, kernel_calls):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.4)
        dense[[0, 3, 6]] = 0.0                       # empty rows
        base = sp.csr_matrix(dense)
        x = rng.normal(size=5)
        for itype in (np.int32, np.int64):
            op = base.copy()
            # set after construction, which downcasts small int64 indices
            op.indices = op.indices.astype(itype)
            op.indptr = op.indptr.astype(itype)
            assert op.indices.dtype == itype and op.indptr.dtype == itype
            self._check_direct(op, x, kernel_calls)

    def test_direct_kernel_empty_shapes(self, kernel_calls):
        self._check_direct(sp.csr_matrix((0, 4)), np.ones(4), kernel_calls)
        self._check_direct(sp.csr_matrix((3, 0)), np.ones(0), kernel_calls)

    def test_direct_kernel_non_contiguous_vector(self, kernel_calls):
        rng = np.random.default_rng(4)
        op = sp.random(6, 5, density=0.5, format="csr", random_state=4)
        for x in (rng.normal(size=10)[::2], rng.normal(size=5)[::-1]):
            assert not x.flags.c_contiguous
            self._check_direct(op, x, kernel_calls)

    def test_direct_kernel_on_workload_operators(self, kernel_calls):
        # the assembled B / Bbar (and transposes) and the smw D^-1 of each
        # benchmark workload's tiny instance
        workloads = _load_perfbench_workloads()
        rng = np.random.default_rng(5)
        n_csr = 0
        for w in workloads.WORKLOADS.values():
            prob = w.tiny(1)
            ops = [prob.B.matrix, prob.Bbar.matrix,
                   msolver._inverse_csr(
                       prob, *bbar_gram_factors(prob, ""))]
            ops += [blocklinalg.transposed(op) for op in ops[:2]]
            for op in ops:
                x = rng.normal(size=op.shape[1])
                if type(op) is sp.csr_matrix:
                    self._check_direct(op, x, kernel_calls)
                    n_csr += 1
                else:
                    assert np.array_equal(mv(op, x), op @ x)
        assert n_csr >= 6

    def test_wrong_length_never_reaches_kernel(self, kernel_calls):
        # the kernel reads x[indices] without a bounds check: a short x
        # would be read past its end and a long one silently truncated
        op = sp.csr_matrix(np.arange(1.0, 13.0).reshape(3, 4))
        for n in (0, 3, 5):
            with pytest.raises((ValueError, DimensionMismatch)):
                mv(op, np.ones(n))
        with pytest.raises((ValueError, DimensionMismatch)):
            mv(op, np.ones((2, 4)))
        assert kernel_calls == []
        self._check_direct(op, np.ones(4), kernel_calls)

    def test_other_dtypes_fall_back_to_scipy(self, kernel_calls):
        dense = np.arange(12.0).reshape(3, 4) - 5.0
        cases = [(sp.csr_matrix(dense), np.arange(4)),
                 (sp.csr_matrix(dense.astype(np.float32)), np.arange(4.0)),
                 (sp.csr_matrix(dense), np.arange(4.0).astype(np.float32))]
        for op, x in cases:
            want = np.asarray(op @ x).ravel()
            got = mv(op, x)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert kernel_calls == []


class TestNorm:
    def test_equals_numpy_norm_bit_for_bit(self):
        # np.linalg.norm of a 1-d float64 array is sqrt(x.dot(x)) on a
        # contiguous copy; the helper evaluates the same on contiguous input
        rng = np.random.default_rng(31)
        for _ in range(20000):
            n = int(rng.integers(0, 400))
            v = rng.normal(size=n) * 10.0 ** rng.integers(-150, 151)
            got = _norm(v)
            assert type(got) is float and got == np.linalg.norm(v)
        for v in (np.zeros(5), np.array([np.inf, 1.0]), np.array([3.0, 4.0]),
                  np.arange(10.0)[2:7]):
            assert _norm(v) == np.linalg.norm(v)
        assert np.isnan(_norm(np.array([np.nan, 1.0])))
