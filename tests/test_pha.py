import numpy as np
import pytest

import dbasolve.blocklinalg as blocklinalg
import dbasolve.pha as pha
import dbasolve.solvers as solvers
from dbasolve.builders import ScenarioData, build_two_stage, random_two_stage
from dbasolve.errors import ParameterError, SubproblemFailure
from dbasolve.io import iteration_csv_text
from dbasolve.pha import (PHA_LOG_COLUMNS, PhaConfig, _bundle, pha_solve,
                          scenario_subsolve)
from dbasolve.proxcone import (DenseQuadratic, FreeSpace, NonnegOrthant, Zero)
from dbasolve.solvers import SolverConfig, admm_solve, solve_setup

from conftest import make_two_scenario_lp


def single_scenario_problem(seed=7):
    rng = np.random.default_rng(seed)
    n0 = 2
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([1.0, 0.5])
    B = rng.uniform(0, 1, (2, n0))
    Bbar = np.hstack([rng.uniform(0.5, 1.5, (2, 1)), np.eye(2)])
    x0 = rng.uniform(0.1, 1, n0)
    xb0 = rng.uniform(0.1, 1, 3)
    scen = [ScenarioData(probability=1.0, c_tilde=rng.uniform(0.5, 2.0, 3),
                         b_tilde=B @ x0 + Bbar @ xb0, B_tilde=B,
                         Bbar_tilde=Bbar, cone=NonnegOrthant(3),
                         theta=Zero(3))]
    return build_two_stage(A, b, c, NonnegOrthant(n0), Zero(n0), scen)


class TestPhaSolve:
    def test_requires_probabilities(self, free_qp):
        with pytest.raises(SubproblemFailure):
            pha_solve(free_qp)

    def test_single_scenario_matches_direct_solve(self):
        prob = single_scenario_problem()
        direct = admm_solve(prob, SolverConfig(tol_kkt=1e-8, tol_gap=1e-8))
        rep = pha_solve(prob, PhaConfig(tol_nonant=1e-7, tol_rel=1e-7))
        assert rep.converged
        # consensus equals the single first-stage copy at every iteration
        assert rep.extra["nonant_residual"] <= 1e-12
        assert rep.obj_p == pytest.approx(direct.obj_p, rel=1e-5)

    def test_two_scenario_agrees_with_admm(self, two_scenario_lp):
        direct = admm_solve(two_scenario_lp, SolverConfig(tol_kkt=1e-8,
                                                          tol_gap=1e-8))
        rep = pha_solve(two_scenario_lp, PhaConfig(tol_nonant=1e-7,
                                                   tol_rel=1e-7))
        assert rep.converged
        assert rep.obj_p == pytest.approx(direct.obj_p, rel=1e-3)

    def test_logs_have_pha_columns(self, two_scenario_lp):
        rep = pha_solve(two_scenario_lp, PhaConfig(max_iter=3,
                                                   tol_nonant=1e-12))
        assert len(rep.log_rows[0]) == 17   # base columns + nonant, rel change

    def test_tau_guard(self):
        with pytest.raises(ValueError):
            PhaConfig(tau=1.7)

    def test_negative_max_iter(self):
        with pytest.raises(ParameterError, match="max_iter"):
            PhaConfig(max_iter=-3)


class TestMultipliers:
    def test_zero_mean_and_consensus(self, two_scenario_lp):
        rep = pha_solve(two_scenario_lp, PhaConfig(max_iter=5,
                                                   tol_nonant=1e-14))
        # the run itself asserts the multiplier mean each iteration; here we
        # assert the report kept iterating (no early bail)
        assert rep.iterations == 5

    def test_drifted_mean_fails_the_assert(self, monkeypatch):
        step = pha._multiplier_step
        monkeypatch.setattr(pha, "_multiplier_step",
                            lambda w, D, s: step(w, D, s) + 1e-3)
        with pytest.raises(AssertionError, match="multiplier mean drifted"):
            pha_solve(random_two_stage(2, 4, 2, 4, N=3, seed=1,
                                       quad_eps=0.1), PhaConfig(rho=10.0))


class TestOuterQuantities:
    """The consensus residual, the relative change and both sides of the
    drift assert are the ``np.linalg.norm`` forms, bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (12, 8), (40, 3)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_match_the_linalg_norm_forms(self, shape, seed):
        rng = np.random.default_rng(seed)
        N, n0 = shape
        # entries over sixteen orders of magnitude
        X = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        probs = rng.dirichlet(np.ones(N))
        xhat_prev = rng.normal(size=n0)
        xhat = probs @ X
        D = X - xhat
        nonant, rel_change = pha._consensus_residues(D, xhat, xhat_prev)
        want = np.max(np.linalg.norm(X - xhat, axis=1))
        want /= 1.0 + np.linalg.norm(xhat)
        assert nonant == want
        assert rel_change == np.linalg.norm(xhat - xhat_prev) / (
            1.0 + np.linalg.norm(xhat))
        w0 = rng.normal(size=shape)
        w = pha._multiplier_step(w0, D, 1.618 * 10.0)
        assert np.array_equal(w, w0 + 1.618 * 10.0 * (X - xhat))
        assert pha._max_row_norm(w) == np.max(np.linalg.norm(w, axis=1))
        assert blocklinalg._norm(probs @ w) == np.linalg.norm(probs @ w)


class TestScenarioSubsolve:
    def test_free_quadratic_matches_dense_kkt(self):
        # two scenarios with distinct B_i solved as one bundle: each copy
        # (x_i, xbar_i) solves its own penalized subproblem
        import scipy.linalg as sla
        rng = np.random.default_rng(1)
        n0, ni, N = 2, 3, 2
        A = rng.normal(size=(1, n0))
        b = rng.normal(size=1)
        c = rng.normal(size=n0)
        scen = []
        for p in (0.3, 0.7):
            M = rng.normal(size=(ni, ni))
            scen.append(ScenarioData(
                probability=p, c_tilde=rng.normal(size=ni),
                b_tilde=rng.normal(size=2), B_tilde=rng.normal(size=(2, n0)),
                Bbar_tilde=rng.normal(size=(2, ni)), cone=FreeSpace(ni),
                theta=DenseQuadratic(M @ M.T + np.eye(ni))))
        prob = build_two_stage(A, b, c, FreeSpace(n0), Zero(n0), scen)
        rho = 1.0
        w = rng.normal(size=(N, n0))
        xhat = rng.normal(size=n0)
        rep = scenario_subsolve(_bundle(prob, rho), w, xhat, rho, tol=1e-9)
        X = rep.primal.x.reshape(N, n0)

        # dense KKT of each penalized subproblem
        for i, s in enumerate(scen):
            Qhat = sla.block_diag(rho * np.eye(n0), s.theta.Q)
            E = np.zeros((3, n0 + ni))
            E[0, :n0] = A
            E[1:, :n0] = s.B_tilde
            E[1:, n0:] = s.Bbar_tilde
            f = np.concatenate([b, s.b_tilde])
            lin = np.concatenate([c + w[i] - rho * xhat, s.c_tilde])
            KKT = np.block([[Qhat, E.T], [E, np.zeros((3, 3))]])
            sol = np.linalg.solve(KKT, np.concatenate([-lin, f]))
            assert np.allclose(np.concatenate([X[i], rep.primal.xbar[i]]),
                               sol[:n0 + ni], atol=1e-6)

    def test_large_rho_pins_to_consensus(self):
        prob = make_two_scenario_lp()
        xhat = np.array([0.4, 0.6])
        w = np.zeros((2, 2))
        dists = []
        for rho in (0.1, 10.0):
            rep = scenario_subsolve(_bundle(prob, rho), w, xhat, rho, tol=1e-9)
            dists.append(np.linalg.norm(rep.primal.x.reshape(2, 2) - xhat))
        assert dists[1] < dists[0]

    def test_fixed_point_at_scenario_optimum(self):
        prob = single_scenario_problem()
        direct = admm_solve(prob, SolverConfig(tol_kkt=1e-10, tol_gap=1e-10))
        xstar = direct.primal.x
        rho = 1.0
        rep = scenario_subsolve(_bundle(prob, rho), np.zeros((1, 2)), xstar,
                                rho, tol=1e-9)
        assert np.linalg.norm(rep.primal.x - xstar) <= 1e-6 * (
            1 + np.linalg.norm(xstar))


def count_setup_builds(monkeypatch):
    """Count builds of the M solver and the A factor made through the names
    the solvers module looks up."""
    counts = {"msolver": 0, "afactor": 0}
    real_build = solvers.build_msolver

    def build_msolver(*args, **kwargs):
        counts["msolver"] += 1
        return real_build(*args, **kwargs)

    class AFactor(solvers._AFactor):
        def __init__(self, A):
            counts["afactor"] += 1
            super().__init__(A)

    monkeypatch.setattr(solvers, "build_msolver", build_msolver)
    monkeypatch.setattr(solvers, "_AFactor", AFactor)
    return counts


def count_validates(monkeypatch):
    """The problems validated through the name the solvers module looks
    up."""
    calls = []
    real_validate = solvers.validate

    def validate(*args, **kwargs):
        calls.append(args[0])
        return real_validate(*args, **kwargs)

    monkeypatch.setattr(solvers, "validate", validate)
    return calls


class TestSetupReuse:
    N = 3

    def problem(self, seed=1):
        return random_two_stage(2, 4, 2, 4, N=self.N, seed=seed, quad_eps=0.1)

    def config(self, max_iter=8):
        return PhaConfig(rho=10.0, max_iter=max_iter)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_setup_per_scenario(self, monkeypatch, seed):
        # the scenarios share one bundle, so one setup serves them all
        counts = count_setup_builds(monkeypatch)
        rep = pha_solve(self.problem(seed), self.config())
        assert rep.iterations == 8
        assert counts == {"msolver": 1, "afactor": 1}

    def test_one_validate_per_scenario(self, monkeypatch):
        calls = count_validates(monkeypatch)
        rep = pha_solve(self.problem(), self.config(max_iter=4))
        assert rep.iterations == 4
        # the bundle is validated with its setup; a subsolve only changes
        # the cost, which with_cost checks
        assert len(calls) == 1

    @pytest.mark.parametrize("N", [1, 5])
    def test_one_setup_whatever_n(self, monkeypatch, N):
        calls = count_validates(monkeypatch)
        counts = count_setup_builds(monkeypatch)
        problem = random_two_stage(2, 4, 2, 4, N=N, seed=3, quad_eps=0.1)
        rep = pha_solve(problem, self.config(max_iter=3))
        assert rep.iterations == 3
        assert (len(calls), counts) == (1, {"msolver": 1, "afactor": 1})

    def test_compositions_built_once(self, monkeypatch):
        # the bundle's setup composes M^-1 W and L = (A A*)^-1 A, two
        # solves with a matrix right-hand side; the first subsolve then
        # solves once each for M^-1 bbar and (A A*)^-1 b, which the setup
        # keeps for the later ones, and the sweeps not at all
        ndims = []
        solve = blocklinalg.CholFactor.solve

        def counted(fac, h):
            ndims.append(np.ndim(h))
            return solve(fac, h)

        monkeypatch.setattr(blocklinalg.CholFactor, "solve", counted)
        rep = pha_solve(self.problem(), self.config())
        assert rep.iterations == 8
        assert (ndims.count(2), ndims.count(1)) == (2, 2)

    def test_non_finite_subproblem_cost_typed_error(self):
        # a NaN rho would make the first effective cost c + w - rho * xhat
        # NaN; the config refuses it before any solve
        with pytest.raises(ParameterError, match="rho must be positive"):
            pha_solve(self.problem(), PhaConfig(rho=np.nan, max_iter=2))

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_bad_rho_is_a_parameter_error(self, rho):
        with pytest.raises(ParameterError,
                           match="^rho must be positive and finite$"):
            PhaConfig(rho=rho)

    def test_no_iteration_builds_nothing(self, monkeypatch):
        counts = count_setup_builds(monkeypatch)
        pha_solve(self.problem(), self.config(max_iter=0))
        assert counts == {"msolver": 0, "afactor": 0}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_logs_match_rebuilding_reference(self, monkeypatch, seed):
        reused = pha_solve(self.problem(seed), self.config())
        counts = count_setup_builds(monkeypatch)
        # no setup kept: the bundle subsolve of every outer iteration
        # builds its own
        monkeypatch.setattr(pha, "solve_setup", lambda *args: None)
        reference = pha_solve(self.problem(seed), self.config())
        assert counts["msolver"] == counts["afactor"]
        assert counts["msolver"] == len(reference.log_rows)
        assert reused.log_rows == reference.log_rows

    def test_template_left_unchanged(self):
        prob = make_two_scenario_lp()
        bundle = _bundle(prob, 1.0)
        c_before, meta_before = bundle.c.copy(), dict(bundle.meta)
        w = np.array([[0.3, -0.3], [-0.3, 0.3]])
        xhat = np.array([0.4, 0.6])
        first = scenario_subsolve(bundle, w, xhat, 1.0, tol=1e-9)
        assert np.array_equal(bundle.c, c_before)
        assert bundle.meta == meta_before
        again = scenario_subsolve(bundle, w, xhat, 1.0, tol=1e-9,
                                  setup=solve_setup(bundle, SolverConfig()))
        assert again.log_rows == first.log_rows

    def test_identical_logs_across_runs(self):
        texts = [iteration_csv_text(PHA_LOG_COLUMNS, pha_solve(
            self.problem(), self.config()).log_rows) for _ in range(2)]
        assert texts[0] == texts[1]


class TestClassicSubsolves:
    """PHA's bundle solves keep the classic relaxed multiplier step, so its
    logs do not depend on admm_solve's default step."""

    def test_every_subsolve_sets_the_classic_step(self, monkeypatch):
        taus = []
        solve = pha.admm_solve

        def recorded(problem, config=None, **kwargs):
            taus.append(config.tau)
            return solve(problem, config, **kwargs)

        monkeypatch.setattr(pha, "admm_solve", recorded)
        report = pha_solve(random_two_stage(2, 4, 2, 4, N=3, seed=1,
                                            quad_eps=0.1), PhaConfig(rho=10.0))
        assert len(taus) == report.iterations
        assert set(taus) == {1.618}

    def test_subsolve_iterations_pinned(self):
        # the counts with the classic step in every bundle solve
        report = pha_solve(random_two_stage(2, 4, 2, 4, N=3, seed=1,
                                            quad_eps=0.1), PhaConfig(rho=10.0))
        inner = [row[PHA_LOG_COLUMNS.index("inner_iters")]
                 for row in report.log_rows]
        assert (report.status, report.iterations) == ("Converged", 88)
        assert inner[:12] == [26, 31, 28, 17, 8, 8, 27, 11, 8, 7, 7, 8]
        assert sum(inner) == 1823
