import numpy as np
import pytest

from dbasolve.blocklinalg import smat, svec
from dbasolve.errors import DimensionMismatch, NonFiniteData
from dbasolve.proxcone import (Box, DenseQuadratic, DiagQuadratic, FreeSpace,
                               IndicatorCone, NonnegOrthant, NonnegSymMatrices,
                               PsdCone, Zero, conjugate_value, project_cone,
                               prox, prox_conjugate)


def random_function(rng, n):
    kind = rng.integers(0, 4)
    if kind == 0:
        return Zero(n)
    if kind == 1:
        return DiagQuadratic(rng.uniform(0.0, 2.0, n))
    if kind == 2:
        M = rng.normal(size=(n, n))
        return DenseQuadratic(M @ M.T)
    return IndicatorCone(NonnegOrthant(n))


class TestProjection:
    def test_orthant(self):
        K = NonnegOrthant(3)
        assert np.allclose(project_cone(K, np.array([1.0, -2.0, 3.0])), [1, 0, 3])

    def test_psd_eigen_clip(self):
        K = PsdCone(2)
        x = svec(np.diag([1.0, -1.0]))
        assert np.allclose(smat(project_cone(K, x), 2), np.diag([1.0, 0.0]),
                           atol=1e-14)

    def test_box(self):
        K = Box([0.0, 0.0], [1.0, 1.0])
        assert np.allclose(project_cone(K, np.array([2.0, -1.0])), [1, 0])

    def test_psd_moreau_decomposition(self):
        rng = np.random.default_rng(0)
        K = PsdCone(4)
        for _ in range(25):
            X = rng.normal(size=(4, 4))
            x = svec(X + X.T)
            px = project_cone(K, x)
            resid = smat(x - px, 4)
            assert abs((x - px) @ px) <= 1e-10
            assert np.linalg.eigvalsh(resid)[-1] <= 1e-10
            assert np.linalg.eigvalsh(smat(px, 4))[0] >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project_cone(NonnegOrthant(3), np.zeros(4))

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(1)
        cones = [NonnegOrthant(6), Box(-np.ones(6), np.ones(6)),
                 FreeSpace(6), PsdCone(3), NonnegSymMatrices(3)]
        for K in cones:
            for _ in range(40):
                x = rng.normal(size=K.dim) * 3
                y = rng.normal(size=K.dim) * 3
                px = project_cone(K, x)
                assert np.linalg.norm(project_cone(K, px) - px) <= 1e-12
                assert (np.linalg.norm(px - project_cone(K, y))
                        <= np.linalg.norm(x - y) + 1e-12)


class TestProx:
    def test_zero(self):
        f = Zero(3)
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(prox(f, 2.0, x), x)

    def test_diag_quadratic(self):
        f = DiagQuadratic(0.1 * np.ones(2))
        assert np.allclose(prox(f, 1.0, np.array([1.1, 2.2])), [1.0, 2.0])

    def test_dense_quadratic_kkt_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            M = rng.normal(size=(5, 5))
            Q = M @ M.T
            f = DenseQuadratic(Q)
            t = float(rng.uniform(0.1, 3.0))
            x = rng.normal(size=5)
            # optimality of u = Prox_{tf}(x): (I + t Q) u = x
            u = prox(f, t, x)
            direct = np.linalg.solve(np.eye(5) + t * Q, x)
            assert np.allclose(u, direct, atol=1e-12)

    def test_dense_quadratic_rejects_bad_shape_and_indefinite_q(self):
        for Q in (np.ones((2, 3)), np.ones(3), np.diag([1.0, -1e-6])):
            with pytest.raises(DimensionMismatch):
                DenseQuadratic(Q)

    def test_indicator(self):
        f = IndicatorCone(NonnegOrthant(2))
        assert np.allclose(prox(f, 0.7, np.array([1.0, -1.0])), [1, 0])

    def test_dense_quadratic_keeps_one_factor(self):
        # a DenseQuadratic is shared by every problem built from it; its
        # prox at any parameter, in any order, gives what a fresh instance
        # computes
        rng = np.random.default_rng(8)
        M = rng.normal(size=(4, 4))
        Q = M @ M.T
        f = DenseQuadratic(Q)
        x = rng.normal(size=4)
        ts = np.linspace(0.1, 5.0, 50)
        for t in ts:
            assert np.array_equal(prox(f, t, x), prox(DenseQuadratic(Q), t, x))
        assert np.array_equal(prox(f, ts[-1], x),
                              prox(DenseQuadratic(Q), ts[-1], x))
        assert np.array_equal(prox(f, ts[0], x),
                              prox(DenseQuadratic(Q), ts[0], x))


def _state(obj, seen):
    """Everything ``obj`` holds, arrays by value and other leaves by
    identity, walked through attributes and containers."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (bool, int, float, str, type(None))):
        return ("value", obj)
    if id(obj) in seen:
        return ("seen", id(obj))
    seen.add(id(obj))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [_state(v, seen) for v in obj])
    if isinstance(obj, dict):
        return ("dict", {k: _state(v, seen) for k, v in obj.items()})
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__,
                {k: _state(v, seen) for k, v in vars(obj).items()})
    return ("leaf", id(obj))


class TestSolveWritesNoOperator:
    def test_problem_state_unchanged_and_solves_repeat(self):
        # the README's contract: operators and functions are not changed by
        # a solve, so a second solve of the same problem repeats the first
        from dbasolve.builders import random_qp
        from dbasolve.solvers import admm_solve

        prob = random_qp(5, 40, 5, 30, 20, seed=1)
        assert all(isinstance(f, DenseQuadratic)
                   for f in [prob.theta] + [s.theta for s in prob.scenarios])
        before = _state(prob, set())
        first = admm_solve(prob)
        again = admm_solve(prob)
        assert _state(prob, set()) == before
        assert first.converged
        assert again.log_rows == first.log_rows
        for name in ("x", "xbar"):
            assert np.array_equal(np.hstack(getattr(again.primal, name)),
                                  np.hstack(getattr(first.primal, name)))
        for name in ("y", "ybar", "z", "zbar", "v", "vbar"):
            assert np.array_equal(getattr(again.dual, name),
                                  getattr(first.dual, name))


class TestNonFiniteData:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_quadratics(self, bad):
        Q = np.eye(3)
        Q[0, 1] = bad
        with pytest.raises(NonFiniteData):
            DenseQuadratic(Q)
        with pytest.raises(NonFiniteData):
            DiagQuadratic(np.array([1.0, bad, 0.0]))

    def test_box_rejects_nan_bounds_only(self):
        with pytest.raises(NonFiniteData):
            Box([0.0, np.nan], [1.0, 1.0])
        with pytest.raises(NonFiniteData):
            Box([0.0, 0.0], [np.nan, 1.0])
        box = Box([-np.inf, 0.0], [1.0, np.inf])
        assert np.array_equal(box.project(np.array([-5.0, 5.0])), [-5.0, 5.0])


class TestMoreau:
    def test_conjugate_prox_polar_projection(self):
        f = IndicatorCone(NonnegOrthant(2))
        out = prox_conjugate(f, 1.0, np.array([1.0, -1.0]))
        assert np.allclose(out, [0.0, -1.0])

    def test_conjugate_of_zero(self):
        f = Zero(3)
        assert np.allclose(prox_conjugate(f, 2.0, np.array([1.0, -1.0, 2.0])), 0.0)

    def test_identity_suite(self):
        # x = Prox_tf(x) + t Prox_{f*/t}(x/t) across variants, 1000 draws
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            f = random_function(rng, n)
            t = float(rng.uniform(0.05, 5.0))
            x = rng.normal(size=n) * 4
            lhs = prox(f, t, x) + t * prox_conjugate(f, t, x / t)
            assert np.linalg.norm(lhs - x) <= 1e-12 * (1 + np.linalg.norm(x))

    def test_envelope_identity(self):
        # ||x||^2 / 2 = M_tf(x) + t^2 M_{f*/t}(x/t), envelopes from prox points
        rng = np.random.default_rng(4)

        def envelope(fval, p, x):
            return fval + 0.5 * np.linalg.norm(x - p) ** 2

        for _ in range(200):
            n = int(rng.integers(1, 6))
            t = float(rng.uniform(0.2, 3.0))
            x = rng.normal(size=n) * 2
            q = rng.uniform(0.1, 2.0, n)
            f = DiagQuadratic(q)
            p1 = prox(f, t, x)
            m_tf = envelope(t * f.value(p1), p1, x)
            p2 = prox_conjugate(f, t, x / t)
            fstar = 0.5 * np.sum(p2 ** 2 / q)
            m_conj = envelope(fstar / t, p2, x / t)
            assert 0.5 * np.linalg.norm(x) ** 2 == pytest.approx(
                m_tf + t ** 2 * m_conj, abs=1e-10)


class TestConjugateValue:
    def test_orthant_support(self):
        K = NonnegOrthant(2)
        assert conjugate_value(K, np.array([-1.0, -2.0])) == 0.0
        assert conjugate_value(K, np.array([1.0, -2.0])) == np.inf

    def test_box_support(self):
        K = Box([0.0, 0.0], [1.0, 1.0])
        assert conjugate_value(K, np.array([2.0, -3.0])) == pytest.approx(2.0)

    def test_box_infinite_bounds(self):
        K = Box([0.0, -np.inf], [np.inf, 0.0])
        # finite iff positive parts hit finite uppers and negative parts
        # finite lowers
        assert conjugate_value(K, np.array([-1.0, 1.0])) == 0.0
        assert conjugate_value(K, np.array([1.0, 1.0])) == np.inf
        assert conjugate_value(K, np.array([-1.0, -1.0])) == np.inf

    def test_psd_support(self):
        K = PsdCone(2)
        assert conjugate_value(K, svec(-np.eye(2))) == 0.0
        assert conjugate_value(K, svec(np.diag([1.0, -1.0]))) == np.inf

    def test_diag_quad_conjugate_calculus_oracle(self):
        # f*(w) = sup_u w u - q u^2 / 2 per coordinate has maximizer u = w/q
        rng = np.random.default_rng(5)
        q = 0.1 * np.ones(4)
        f = DiagQuadratic(q)
        for _ in range(20):
            w = rng.normal(size=4)
            expect = np.sum(w ** 2 / 0.2)
            assert conjugate_value(f, w) == pytest.approx(expect, rel=1e-12)
            u = w / q
            assert np.sum(w * u) - f.value(u) == pytest.approx(expect, rel=1e-12)

    def test_dense_quad_conjugate(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(4, 4))
        Q = M @ M.T + np.eye(4)
        f = DenseQuadratic(Q)
        w = rng.normal(size=4)
        assert conjugate_value(f, w) == pytest.approx(
            0.5 * w @ np.linalg.solve(Q, w), rel=1e-10)

    def test_dense_quad_singular_conjugate(self):
        # a rotated rank-2 Q of order 3: 0.5 w^T Q^+ w on its range, inf off
        # it beyond the feasibility clamp and finite within it
        R, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(3, 3)))
        Q = R @ np.diag([2.0, 0.5, 0.0]) @ R.T
        f = DenseQuadratic(Q)
        w = R @ np.array([1.0, -3.0, 0.0])
        assert conjugate_value(f, w) == pytest.approx(
            0.5 * w @ np.linalg.pinv(Q) @ w, rel=1e-10)
        assert conjugate_value(f, w) == pytest.approx(0.25 + 9.0, rel=1e-10)
        off = w + 1e-3 * R[:, 2]
        assert conjugate_value(f, off, feas_tol=1e-8) == np.inf
        assert conjugate_value(f, off, feas_tol=1e-2) == pytest.approx(
            9.25, rel=1e-10)

    def test_zero_function_conjugate(self):
        f = Zero(2)
        assert conjugate_value(f, np.zeros(2)) == 0.0
        assert conjugate_value(f, np.array([0.1, 0.0])) == np.inf

    def test_diag_quad_zero_entries(self):
        f = DiagQuadratic(np.array([1.0, 0.0]))
        assert conjugate_value(f, np.array([1.0, 0.5])) == np.inf
        assert conjugate_value(f, np.array([1.0, 0.0])) == pytest.approx(0.5)


class TestEnvelopeGradients:
    def test_gradient_formulas_match_finite_differences(self):
        # d/dx M_tf(x) = t Prox_{f*/t}(x/t) and
        # d/dx M_{f*/t}(x) = Prox_{tf}(t x)/t, with the envelopes evaluated
        # from prox points by definition
        rng = np.random.default_rng(7)

        def m_tf(f, t, x):
            p = prox(f, t, x)
            return t * f.value(p) + 0.5 * np.linalg.norm(x - p) ** 2

        def m_conj(f, t, x):
            p = prox_conjugate(f, t, x)
            fstar = conjugate_value(f, p, feas_tol=1e-9)
            return fstar / t + 0.5 * np.linalg.norm(x - p) ** 2

        h = 1e-6
        for _ in range(50):
            n = int(rng.integers(1, 5))
            q = rng.uniform(0.2, 2.0, n)
            f = DiagQuadratic(q)
            t = float(rng.uniform(0.3, 2.0))
            x = rng.normal(size=n)

            g1 = t * prox_conjugate(f, t, x / t)
            g2 = prox(f, t, t * x) / t
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd1 = (m_tf(f, t, x + e) - m_tf(f, t, x - e)) / (2 * h)
                fd2 = (m_conj(f, t, x + e) - m_conj(f, t, x - e)) / (2 * h)
                assert fd1 == pytest.approx(g1[j], abs=1e-5, rel=1e-5)
                assert fd2 == pytest.approx(g2[j], abs=1e-5, rel=1e-5)

    def test_distance_envelope_for_cone_indicator(self):
        # the conjugate-side envelope of a cone indicator is the objective the
        # Newton subproblem minimizes; check its closed form against the
        # definition-based evaluation
        rng = np.random.default_rng(8)
        K = NonnegOrthant(5)
        f = IndicatorCone(K)
        for _ in range(50):
            sigma = float(rng.uniform(0.3, 3.0))
            w = rng.normal(size=5)
            p = prox_conjugate(f, sigma, w)
            by_def = conjugate_value(K, p, 1e-9) / sigma \
                + 0.5 * np.linalg.norm(w - p) ** 2
            ws = sigma * w
            closed = (ws @ ws - np.linalg.norm(ws - K.project(ws)) ** 2) / (
                2 * sigma ** 2)
            assert by_def == pytest.approx(closed, abs=1e-10)
