import numpy as np
import pytest

from dbasolve.blocklinalg import smat, svec
from dbasolve.builders import (ScenarioData, UflInstance, build_two_stage,
                               build_ufl_dnn, random_qp, random_sdp,
                               random_two_stage, random_ufl,
                               ufl_extra_constraints)
from dbasolve.errors import DimensionMismatch
from dbasolve.io import dumps, problem_to_dict
from dbasolve.model import validate
from dbasolve.proxcone import DiagQuadratic, NonnegOrthant, Zero
from dbasolve.solvers import SolverConfig, admm_solve, alm_solve

from conftest import same_canonical


class TestTwoStage:
    def _scenarios(self, rng, N, probs=None):
        scens = []
        probs = probs if probs is not None else np.full(N, 1.0 / N)
        for i in range(N):
            B = rng.normal(size=(2, 3))
            Bbar = rng.normal(size=(2, 4))
            scens.append(ScenarioData(
                probability=float(probs[i]), c_tilde=rng.normal(size=4),
                b_tilde=rng.normal(size=2), B_tilde=B, Bbar_tilde=Bbar,
                cone=NonnegOrthant(4), theta=Zero(4)))
        return scens

    def test_single_scenario_unit_probability(self):
        rng = np.random.default_rng(0)
        scens = self._scenarios(rng, 1, probs=[1.0])
        prob = build_two_stage(None, None, rng.normal(size=3),
                               NonnegOrthant(3), Zero(3), scens)
        assert np.allclose(prob.scenarios[0].cbar, scens[0].c_tilde)

    def test_probability_scaling_exact(self):
        rng = np.random.default_rng(1)
        N = 4
        scens = self._scenarios(rng, N)
        prob = build_two_stage(None, None, rng.normal(size=3),
                               NonnegOrthant(3), Zero(3), scens)
        for s, sd in zip(prob.scenarios, scens):
            assert np.array_equal(s.cbar, sd.c_tilde / N)

    def test_quadratic_extension_coefficient(self):
        rng = np.random.default_rng(2)
        scens = self._scenarios(rng, 2)
        prob = build_two_stage(None, None, rng.normal(size=3),
                               NonnegOrthant(3), Zero(3), scens, quad_eps=0.1)
        assert isinstance(prob.theta, DiagQuadratic)
        assert np.allclose(prob.theta.diag, 0.1)
        # value at ones is (0.1/2) * n
        assert prob.theta.value(np.ones(3)) == pytest.approx(0.05 * 3)
        for s in prob.scenarios:
            assert np.allclose(s.theta.diag, 0.1)

    def test_probabilities_normalized_with_warning(self):
        rng = np.random.default_rng(3)
        scens = self._scenarios(rng, 2, probs=[0.5, 0.6])
        with pytest.warns(UserWarning):
            prob = build_two_stage(None, None, rng.normal(size=3),
                                   NonnegOrthant(3), Zero(3), scens)
        assert sum(prob.meta["probabilities"]) == pytest.approx(1.0)


class TestUflBuilder:
    def test_dimensions(self):
        inst = random_ufl(50, 100, 0)
        prob = build_ufl_dnn(inst)
        assert prob.m0 == 51
        assert prob.N == 100
        assert all(m == 51 for m in prob.m_i)
        assert all(n == 100 for n in prob.n_i)   # 2p per customer block
        assert validate(prob, rank_check=False) == []

    def test_adjoint_identity_p1_q1(self):
        inst = UflInstance(c=[1.0], P=[[2.0]], Q=[[0.5]])
        prob = build_ufl_dnn(inst)
        rng = np.random.default_rng(4)
        for _ in range(20):
            U = rng.normal(size=(2, 2))
            U = U + U.T
            y = rng.normal(size=2)
            lhs = (prob.A @ svec(U)) @ y
            rhs = svec(U) @ (prob.A.T @ y)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_first_stage_reads_corner_and_diagonal(self):
        inst = random_ufl(3, 2, 1)
        prob = build_ufl_dnn(inst)
        rng = np.random.default_rng(5)
        U = rng.normal(size=(4, 4))
        U = U + U.T
        out = prob.A @ svec(U)
        assert out[0] == pytest.approx(U[0, 0], abs=1e-13)
        for i in range(1, 4):
            assert out[i] == pytest.approx(U[0, i] - U[i, i], abs=1e-13)

    def test_blocks_bit_identical(self):
        prob = build_ufl_dnn(random_ufl(3, 5, 2))
        first = prob.scenarios[0]
        for s in prob.scenarios[1:]:
            assert same_canonical(first.B, s.B)
            assert same_canonical(first.Bbar, s.Bbar)

    def test_coupling_reads_u(self):
        inst = random_ufl(3, 2, 3)
        prob = build_ufl_dnn(inst)
        rng = np.random.default_rng(6)
        U = rng.normal(size=(4, 4))
        U = U + U.T
        out = prob.scenarios[0].B @ svec(U)
        assert out[0] == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(out[1:], U[0, 1:], atol=1e-13)

    def test_relaxation_lower_bound(self):
        from test_acceptance import ufl_integer_optimum

        for seed in range(3):
            inst = random_ufl(3, 4, seed)
            prob = build_ufl_dnn(inst)
            rep = admm_solve(prob, SolverConfig())
            assert rep.converged
            ip = ufl_integer_optimum(inst)
            assert rep.obj_p <= ip + 1e-6 * (1 + abs(ip))


class TestUflExtraConstraints:
    def test_zero_rows_keep_feasibility(self):
        prob = build_ufl_dnn(random_ufl(3, 4, 3))
        ext = ufl_extra_constraints(prob, np.zeros((1, 3)), np.zeros(1))
        assert ext.m0 == prob.m0 + 2
        assert np.allclose(ext.b[-2:], 0.0)
        r1 = admm_solve(prob, SolverConfig())
        r2 = admm_solve(ext, SolverConfig())
        assert r2.obj_p == pytest.approx(r1.obj_p, rel=1e-4, abs=1e-4)

    def test_cardinality_rows(self):
        prob = build_ufl_dnn(random_ufl(3, 4, 4))
        K = 2.0
        ext = ufl_extra_constraints(prob, np.ones((1, 3)), np.array([K]))
        assert ext.b[-2] == K
        assert ext.b[-1] == K ** 2
        # lifted rows evaluate sum(u) and sum(u)^2 on a rank-one point
        u = np.array([1.0, 1.0, 0.0])
        lift = np.zeros((4, 4))
        lift[0, 0] = 1.0
        lift[0, 1:] = u
        lift[1:, 0] = u
        lift[1:, 1:] = np.outer(u, u)
        vals = ext.A @ svec(lift)
        assert vals[-2] == pytest.approx(u.sum(), abs=1e-13)
        assert vals[-1] == pytest.approx(u.sum() ** 2, abs=1e-13)

    def test_adjoint_identity_after_extension(self):
        prob = build_ufl_dnn(random_ufl(2, 3, 5))
        ext = ufl_extra_constraints(prob, np.array([[1.0, -1.0]]),
                                    np.array([0.5]))
        rng = np.random.default_rng(7)
        U = rng.normal(size=(3, 3))
        U = U + U.T
        y = rng.normal(size=ext.m0)
        assert (ext.A @ svec(U)) @ y == pytest.approx(
            svec(U) @ (ext.A.T @ y), abs=1e-13)

    def test_dim_check(self):
        prob = build_ufl_dnn(random_ufl(3, 4, 6))
        with pytest.raises(DimensionMismatch):
            ufl_extra_constraints(prob, np.ones((1, 2)), np.array([1.0]))


class TestRandomQp:
    def test_deterministic(self):
        a = random_qp(5, 10, 5, 10, 3, seed=9)
        b = random_qp(5, 10, 5, 10, 3, seed=9)
        assert dumps(problem_to_dict(a)) == dumps(problem_to_dict(b))

    def test_densities_near_target(self):
        prob = random_qp(40, 120, 40, 120, 3, seed=10)
        dens_A = prob.A.nnz / (40 * 120)
        assert abs(dens_A - 10.0 / 120) <= 0.2 * (10.0 / 120)
        for s in prob.scenarios:
            dens_B = s.B.nnz / (40 * 120)
            dens_Bb = s.Bbar.nnz / (40 * 120)
            assert abs(dens_B - 10.0 / 120) <= 0.2 * (10.0 / 120)
            assert abs(dens_Bb - 10.0 / 120) <= 0.2 * (10.0 / 120)

    def test_generated_instance_solvable(self):
        prob = random_qp(10, 20, 10, 20, 10, seed=11)
        assert validate(prob) == []
        rep = admm_solve(prob, SolverConfig())
        assert rep.converged and rep.kkt.eta <= 1e-5

    def test_quadratic_terms_positive_definite(self):
        prob = random_qp(5, 12, 5, 12, 2, seed=12)
        assert np.linalg.eigvalsh(prob.theta.Q)[0] > 0
        for s in prob.scenarios:
            assert np.linalg.eigvalsh(s.theta.Q)[0] > 0


class TestRandomSdp:
    def test_deterministic(self):
        a = random_sdp(3, 5, 3, 5, 2, seed=13)
        b = random_sdp(3, 5, 3, 5, 2, seed=13)
        assert dumps(problem_to_dict(a)) == dumps(problem_to_dict(b))

    def test_constraint_matrices_psd(self):
        prob = random_sdp(3, 5, 3, 5, 2, seed=14)
        A = np.asarray(prob.A.todense()) if hasattr(prob.A, "todense") else prob.A
        for row in np.atleast_2d(A):
            assert np.linalg.eigvalsh(smat(row, 5))[0] >= -1e-10
        for s in prob.scenarios:
            Bd = np.asarray(s.B.todense()) if hasattr(s.B, "todense") else s.B
            for row in np.atleast_2d(Bd):
                assert np.linalg.eigvalsh(smat(row, 5))[0] >= -1e-10

    def test_alm_and_admm_agree(self):
        prob = random_sdp(3, 5, 3, 5, 2, seed=15)
        r1 = alm_solve(prob, SolverConfig())
        r2 = admm_solve(prob, SolverConfig())
        assert r1.converged and r1.kkt.eta <= 1e-5
        assert r2.converged
        assert r1.obj_p == pytest.approx(r2.obj_p, rel=1e-3)


class TestRandomTwoStage:
    def test_carries_probabilities(self):
        prob = random_two_stage(2, 6, 3, 6, 3, seed=16)
        assert len(prob.meta["probabilities"]) == 3
        assert sum(prob.meta["probabilities"]) == pytest.approx(1.0)

    def test_all_outputs_validate(self):
        for maker in (lambda: random_two_stage(2, 6, 3, 6, 3, 0),
                      lambda: random_qp(4, 8, 4, 8, 2, 0),
                      lambda: random_sdp(2, 4, 2, 4, 2, 0),
                      lambda: build_ufl_dnn(random_ufl(3, 4, 0))):
            assert validate(maker(), rank_check=False) == []
