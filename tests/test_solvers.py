import itertools
import logging

import numpy as np
import pytest

import dbasolve.blocklinalg as blocklinalg
import dbasolve.solvers as solvers
from dbasolve.builders import (build_ufl_dnn, random_sdp, random_two_stage,
                               random_ufl)
from dbasolve.errors import (NumericalError, ParameterError,
                             UnsupportedObjective)
from dbasolve.io import iteration_csv_text
from dbasolve.model import (DBAProblem, LinearResidues, ScenarioBlock,
                            kkt_residues)
from dbasolve.msolver import assemble_m_dense
from dbasolve.pha import _bundle
from dbasolve.proxcone import (Box, DiagQuadratic, FreeSpace, NonnegOrthant,
                               Zero)
from dbasolve.solvers import (LOG_COLUMNS, SolverConfig, admm_solve,
                              alm_solve, eps_schedule, sigma_update,
                              solve_setup, ssn_zy)

from conftest import (compose_nothing, lp_standard_form, lp_vertex_optimum,
                      qp_kkt_solve)


def ssn_oracle(A, b, sigma, chat):
    """Support enumeration for min_{y, z>=0} -b@y + sigma/2 ||z + A'y - chat||^2."""
    m, n = A.shape
    best_val, best = np.inf, None
    for mask in itertools.product([0, 1], repeat=n):
        S = [i for i in range(n) if mask[i] == 0]   # z_i = 0 here
        As = A[:, S]
        H = sigma * (As @ As.T)
        rhs = b + sigma * (As @ chat[S])
        try:
            y = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            y, *_ = np.linalg.lstsq(H, rhs, rcond=None)
        if np.linalg.norm(H @ y - rhs) > 1e-9 * (1 + np.linalg.norm(rhs)):
            continue
        u = A.T @ y - chat
        z = np.maximum(-u, 0.0)
        z[S] = 0.0
        if np.any(u[S] < -1e-9):        # stationarity needs residual >= 0 here
            continue
        free = [i for i in range(n) if mask[i] == 1]
        if np.any(z[free] < -1e-11):
            continue
        val = -b @ y + 0.5 * sigma * np.linalg.norm(z + u) ** 2
        if val < best_val - 1e-13:
            best_val, best = val, (y, z)
    assert best is not None
    return best


class TestToyProblems:
    def test_lp_matches_vertex_oracle(self, two_scenario_lp):
        E, f, cost = lp_standard_form(two_scenario_lp)
        opt, _ = lp_vertex_optimum(E, f, cost)
        rep = admm_solve(two_scenario_lp, SolverConfig(tol_kkt=1e-8, tol_gap=1e-8))
        assert rep.converged
        assert rep.obj_p == pytest.approx(opt, rel=1e-6)

    def test_alm_agrees_with_admm(self, two_scenario_lp):
        r1 = admm_solve(two_scenario_lp, SolverConfig(tol_kkt=1e-7, tol_gap=1e-7))
        r2 = alm_solve(two_scenario_lp, SolverConfig(tol_kkt=1e-7, tol_gap=1e-7))
        assert r2.converged
        assert r2.obj_p == pytest.approx(r1.obj_p, rel=1e-5)

    def test_qp_matches_dense_kkt(self, free_qp):
        obj, _ = qp_kkt_solve(free_qp)
        rep = admm_solve(free_qp, SolverConfig(tol_kkt=1e-8, tol_gap=1e-8))
        assert rep.converged
        assert abs(rep.obj_p - obj) <= 1e-5 * (1 + abs(obj))

    def test_converged_report_self_consistent(self, two_scenario_lp):
        rep = admm_solve(two_scenario_lp)
        res = kkt_residues(two_scenario_lp, rep.primal, rep.dual)
        assert rep.kkt.eta == pytest.approx(res.eta, abs=1e-14)
        assert rep.kkt.eta <= 1e-5 and rep.kkt.eta_gap <= 1e-4

    def test_a_absent(self):
        rng = np.random.default_rng(8)
        blocks = []
        x0 = rng.uniform(0.1, 1.0, 3)
        for _ in range(2):
            B = rng.normal(size=(2, 3))
            Bbar = np.hstack([rng.uniform(0.5, 1.5, (2, 1)), np.eye(2)])
            xb0 = rng.uniform(0.1, 1.0, 3)
            blocks.append(ScenarioBlock(B, Bbar, B @ x0 + Bbar @ xb0,
                                        rng.uniform(0.5, 1.5, 3),
                                        NonnegOrthant(3), Zero(3)))
        prob = DBAProblem(None, None, rng.uniform(0.5, 1.5, 3),
                          NonnegOrthant(3), Zero(3), blocks)
        rep = admm_solve(prob)
        assert rep.converged
        assert rep.kkt.eta_P == 0.0

    def test_zero_objective_feasibility(self, two_scenario_lp):
        p = two_scenario_lp
        prob = DBAProblem(p.A, p.b, np.zeros(p.n0), p.cone, p.theta,
                          [ScenarioBlock(s.B, s.Bbar, s.bbar, np.zeros(s.n),
                                         s.cone, s.theta) for s in p.scenarios])
        rep = alm_solve(prob)
        assert rep.converged
        assert abs(rep.obj_p) <= 1e-8

    def test_alm_rejects_nonzero_theta(self, free_qp):
        with pytest.raises(UnsupportedObjective):
            alm_solve(free_qp)

    def test_multiplier_step_identity(self, two_scenario_lp):
        # after one iteration from zeros, x equals tau*sigma times the dual
        # constraint residual at the new dual point
        cfg = SolverConfig(max_iter=1, sigma0=0.7, tau=1.5, sigma_fixed=True)
        rep = admm_solve(two_scenario_lp, cfg)
        p = two_scenario_lp
        d = rep.dual
        dres = (np.asarray(p.A.T.todense() if hasattr(p.A, "todense") else p.A.T)
                @ d.y + p.B.apply_adjoint(d.ybar) + d.z + d.v - p.c)
        assert np.allclose(rep.primal.x, 1.5 * 0.7 * dres, atol=1e-14)


class TestStepLengthGuards:
    def test_admm_range(self, two_scenario_lp):
        with pytest.raises(ValueError):
            admm_solve(two_scenario_lp, SolverConfig(tau=1.62, max_iter=1))
        with pytest.raises(ValueError):
            admm_solve(two_scenario_lp, SolverConfig(tau=0.0, max_iter=1))
        admm_solve(two_scenario_lp, SolverConfig(tau=1.618, max_iter=1))

    def test_alm_range(self, two_scenario_lp):
        with pytest.raises(ValueError):
            alm_solve(two_scenario_lp, SolverConfig(tau=2.0, max_iter=1))
        alm_solve(two_scenario_lp, SolverConfig(tau=1.99, max_iter=1))

    @pytest.mark.parametrize("solve", [admm_solve, alm_solve])
    @pytest.mark.parametrize("sigma0", [0.0, -1.0, np.nan, np.inf])
    def test_bad_sigma0(self, two_scenario_lp, solve, sigma0):
        with pytest.raises(ParameterError, match="sigma0"):
            solve(two_scenario_lp, SolverConfig(sigma0=sigma0, max_iter=1))

    @pytest.mark.parametrize("solve", [admm_solve, alm_solve])
    def test_negative_max_iter(self, two_scenario_lp, solve):
        with pytest.raises(ParameterError, match="max_iter"):
            solve(two_scenario_lp, SolverConfig(max_iter=-3))


class TestSchedules:
    def test_eps_schedule_start(self):
        assert eps_schedule(0, 1e-4) == 1e-4

    def test_eps_schedule_summable(self):
        ks = np.arange(0, 10 ** 6, dtype=np.float64)
        total = np.sum(1e-4 / (ks + 1) ** 1.5)
        assert total <= 1e-4 * 2.6124

    def test_sigma_update_balanced(self):
        from dbasolve.model import KktResidues
        res = KktResidues(1e-3, 1e-3, 0, 0, 1e-3, 1e-3, 0, 0, 1e-3, 0)
        assert sigma_update(res, 1.0) == 1.0

    def test_sigma_update_ratio_ten(self):
        from dbasolve.model import KktResidues
        res = KktResidues(1e-4, 1e-3, 0, 0, 1e-4, 1e-3, 0, 0, 1e-3, 0)
        assert sigma_update(res, 1.0) == pytest.approx(1.4)
        res = KktResidues(1e-3, 1e-4, 0, 0, 1e-3, 1e-4, 0, 0, 1e-3, 0)
        assert sigma_update(res, 1.0) == pytest.approx(1.0 / 1.4)

    def test_sigma_clamped(self):
        from dbasolve.model import KktResidues
        res = KktResidues(1e-9, 1e-3, 0, 0, 1e-9, 1e-3, 0, 0, 1e-3, 0)
        assert sigma_update(res, 9e5) == 1e6

    def test_adaptive_matches_fixed(self, two_scenario_lp):
        r1 = admm_solve(two_scenario_lp, SolverConfig(tol_kkt=1e-7, tol_gap=1e-7))
        r2 = admm_solve(two_scenario_lp, SolverConfig(tol_kkt=1e-7, tol_gap=1e-7,
                                                      sigma_fixed=True))
        assert r1.converged and r2.converged
        assert r1.obj_p == pytest.approx(r2.obj_p, rel=1e-5)


class TestSsn:
    def test_free_space_one_newton_step(self):
        rng = np.random.default_rng(0)
        A = np.eye(4)
        b = rng.normal(size=4)
        chat = rng.normal(size=4)
        y, z, iters = ssn_zy(A, b, FreeSpace(4), 1.3, chat)
        assert iters <= 2
        grad = -b + A @ (1.3 * (A.T @ y - chat))
        assert np.linalg.norm(grad) <= 1e-10

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            m, n = 3, 6
            A = rng.normal(size=(m, n))
            s0 = rng.uniform(0.0, 1.0, n)
            b = A @ s0                       # guarantees a solvable subproblem
            chat = rng.normal(size=n)
            sigma = float(rng.uniform(0.3, 3.0))
            y, z, _ = ssn_zy(A, b, NonnegOrthant(n), sigma, chat, tol=1e-12)
            yo, zo = ssn_oracle(A, b, sigma, chat)
            val = lambda yy, zz: (-b @ yy + 0.5 * sigma
                                  * np.linalg.norm(zz + A.T @ yy - chat) ** 2)
            assert val(y, z) == pytest.approx(val(yo, zo), abs=1e-8)
            assert np.linalg.norm(z - zo) <= 1e-6 * (1 + np.linalg.norm(zo))

    def test_alm_ssn_on_off_agree(self):
        prob = random_two_stage(4, 10, 2, 3, 100, seed=11)
        r_on = alm_solve(prob, SolverConfig(ssn="on"))
        r_off = alm_solve(prob, SolverConfig(ssn="off"))
        assert r_on.converged and r_off.converged
        assert r_on.extra["ssn"] and not r_off.extra["ssn"]
        assert r_on.obj_p == pytest.approx(r_off.obj_p, rel=1e-5)

    def test_auto_activation_thresholds(self):
        small_n = random_two_stage(4, 10, 2, 3, 100, seed=3)
        assert alm_solve(small_n, SolverConfig(max_iter=1)).extra["ssn"]
        few_scen = random_two_stage(4, 10, 2, 3, 99, seed=3)
        assert not alm_solve(few_scen, SolverConfig(max_iter=1)).extra["ssn"]
        wide = random_two_stage(4, 21, 2, 3, 100, seed=3)
        assert not alm_solve(wide, SolverConfig(max_iter=1)).extra["ssn"]

    def test_admm_with_ssn_matches_plain(self, two_scenario_lp):
        r_plain = admm_solve(two_scenario_lp, SolverConfig(tol_kkt=1e-7,
                                                           tol_gap=1e-7))
        r_ssn = admm_solve(two_scenario_lp, SolverConfig(ssn="on", tol_kkt=1e-7,
                                                         tol_gap=1e-7))
        assert r_ssn.converged
        assert r_ssn.obj_p == pytest.approx(r_plain.obj_p, rel=1e-5)


class TestSsnEvaluations:
    @staticmethod
    def _events(monkeypatch, cone):
        """Calls to ``cone.project`` (``("P", w)``) and the start of each
        Newton step (``("N", None)``, its Jacobian mask) in call order."""
        events = []
        project, mask = cone.project, solvers._jacobian_mask

        def spy_project(w):
            events.append(("P", np.array(w)))
            return project(w)

        def spy_mask(c, w):
            events.append(("N", None))
            return mask(c, w)

        monkeypatch.setattr(cone, "project", spy_project)
        monkeypatch.setattr(solvers, "_jacobian_mask", spy_mask)
        return events

    @pytest.mark.parametrize("kind", ["nonneg", "box", "free"])
    def test_one_projection_per_line_search_trial(self, kind, monkeypatch):
        # phi is evaluated once at y0 and once per line-search trial; the
        # accepted trial's value, gradient and projection are the new
        # point's, so the last projection is the one z comes from
        rng = np.random.default_rng({"nonneg": 21, "box": 22, "free": 23}[kind])
        for trial in range(15):
            m, n = 3, 7
            A = rng.normal(size=(m, n))
            sigma = float(rng.uniform(0.3, 3.0))
            chat = rng.normal(size=n)
            if kind == "nonneg":
                cone = NonnegOrthant(n)
                s0 = rng.uniform(0.0, 1.0, n)
            elif kind == "box":
                lower = -rng.uniform(0.1, 1.0, n)
                upper = rng.uniform(0.1, 1.0, n)
                lower[0], upper[1] = -np.inf, np.inf
                cone = Box(lower, upper)
                s0 = rng.uniform(lower[1], upper[0], n)
            else:
                cone = FreeSpace(n)
                s0 = rng.normal(size=n)
            events = self._events(monkeypatch, cone)
            y0 = rng.normal(size=m)
            y, z, iters = ssn_zy(A, A @ s0, cone, sigma, chat, y0=y0,
                                 tol=1e-9)
            projections = [w for tag, w in events if tag == "P"]
            assert events[0][0] == "P"
            assert sum(tag == "N" for tag, _ in events) == iters
            # every Newton step makes at least one trial, and no
            # projection repeats the one before it
            tags = "".join(tag for tag, _ in events)
            assert "NN" not in tags and not tags.endswith("N")
            assert all(not np.array_equal(a, b)
                       for a, b in zip(projections, projections[1:]))
            if kind == "free":
                # a quadratic: each Newton step takes its full step
                assert len(projections) == 1 + iters
            w = projections[-1]
            assert np.array_equal(z, cone.project(w) / sigma - w / sigma)
            assert np.array_equal(w, sigma * (A.T @ y - chat))


class TestProgressLog:
    @staticmethod
    def check_progress(two_scenario_lp, caplog, capsys, tau, iterations):
        quiet = admm_solve(two_scenario_lp, SolverConfig(tau=tau, max_iter=60))
        caplog.set_level(logging.INFO, logger="dbasolve")
        loud = admm_solve(two_scenario_lp, SolverConfig(tau=tau, max_iter=60,
                                                        log_every=7))
        assert loud.iterations == iterations
        assert loud.log_rows == quiet.log_rows
        records = [r for r in caplog.records if r.name == "dbasolve"]
        assert [r.getMessage().split()[:2] for r in records] == [
            ["iter", str(k)] for k in range(0, iterations, 7)]
        assert all(r.levelno == logging.INFO for r in records)
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""

    def test_progress_goes_to_the_dbasolve_logger(self, two_scenario_lp,
                                                  caplog, capsys):
        self.check_progress(two_scenario_lp, caplog, capsys, 1.618, 60)

    def test_halpern_progress_goes_to_the_dbasolve_logger(
            self, two_scenario_lp, caplog, capsys):
        # the Halpern step converges after 32 of the 60 iterations
        self.check_progress(two_scenario_lp, caplog, capsys, None, 32)


class TestDeterminism:
    def test_identical_logs_across_workers(self, two_scenario_lp):
        texts = [iteration_csv_text(LOG_COLUMNS, admm_solve(
            two_scenario_lp).log_rows) for _ in range(2)]
        assert texts[0] == texts[1]

    def test_identical_logs_per_scenario_path(self, free_qp):
        # the PSD cones merge into one batched PsdCone and the dense
        # quadratic thetas stay one call per scenario
        from dbasolve.proxcone import DenseQuadratic, PsdCone
        sdp = random_sdp(2, 3, 2, 3, N=3, seed=2)
        assert [(type(p), p.k) for p, _, _ in sdp.scen_cone.groups] == [(PsdCone, 3)]
        assert [type(p) for p, _, _ in free_qp.scen_theta.groups] == [DenseQuadratic] * 2
        for solve, prob in ((admm_solve, sdp), (alm_solve, sdp),
                            (admm_solve, free_qp)):
            texts = [iteration_csv_text(LOG_COLUMNS, solve(prob, SolverConfig(
                max_iter=100)).log_rows) for _ in range(2)]
            assert texts[0] == texts[1]


class TestInnerErrorContract:
    def test_recorded_errors_capped(self, two_scenario_lp):
        cfg = SolverConfig(check_inner=True, max_iter=200)
        rep = admm_solve(two_scenario_lp, cfg)   # asserts internally
        assert rep.iterations <= 200


class TestAlmSsnStepReduction:
    def test_zero_coupling_reduces_to_ssn_zy(self):
        # with B = 0 the joint (z, y) solve sees chat = c - x/sigma untouched
        # by the scenario sweep, so the step's (y, z) equals a bare ssn_zy
        rng = np.random.default_rng(30)
        from dbasolve.msolver import build_msolver
        from dbasolve.solvers import _AFactor, _sgs_iteration, zero_state
        from dbasolve.model import DBAProblem, ScenarioBlock

        A = rng.normal(size=(2, 5))
        b = A @ rng.uniform(0.0, 1.0, 5)
        c = rng.normal(size=5)
        blocks = [ScenarioBlock(np.zeros((2, 5)), np.eye(2), rng.normal(size=2),
                                rng.normal(size=2), NonnegOrthant(2), Zero(2))]
        prob = DBAProblem(A, b, c, NonnegOrthant(5), Zero(5), blocks)
        st = zero_state(prob)
        sigma = 0.8
        _sgs_iteration(prob, st, sigma, 1.9, build_msolver(prob, "chol"),
                       _AFactor(prob.A), True, 1e-10, SolverConfig(),
                       alm=True)
        y_ref, z_ref, _ = ssn_zy(prob.A, b, prob.cone, sigma, c.copy(),
                                 tol=1e-12)
        assert np.allclose(st.y, y_ref, atol=1e-8)
        assert np.allclose(st.z, z_ref, atol=1e-8)


class TestBoxCones:
    def test_box_qp_matches_face_enumeration(self):
        # strongly convex QP over box sets, coupled by one scenario row;
        # oracle enumerates lower/upper/interior per coordinate
        rng = np.random.default_rng(21)
        n0, ni = 2, 2
        M = rng.normal(size=(n0, n0))
        Q0 = M @ M.T + np.eye(n0)
        M = rng.normal(size=(ni, ni))
        Q1 = M @ M.T + np.eye(ni)
        c0 = rng.normal(size=n0)
        c1 = rng.normal(size=ni)
        B = rng.normal(size=(1, n0))
        Bbar = rng.normal(size=(1, ni))
        lo = np.array([-1.0, -1.0, -1.0, -1.0])
        hi = np.array([1.0, 1.0, 1.0, 1.0])
        x_feas = rng.uniform(-0.5, 0.5, n0 + ni)
        bbar = B @ x_feas[:n0] + Bbar @ x_feas[n0:]

        from dbasolve.proxcone import Box, DenseQuadratic
        blocks = [ScenarioBlock(B, Bbar, bbar, c1, Box(lo[n0:], hi[n0:]),
                                DenseQuadratic(Q1))]
        prob = DBAProblem(None, None, c0, Box(lo[:n0], hi[:n0]),
                          DenseQuadratic(Q0), blocks)
        rep = admm_solve(prob, SolverConfig(tol_kkt=1e-9, tol_gap=1e-9))
        assert rep.converged

        import itertools as it
        import scipy.linalg as sla
        Qh = sla.block_diag(Q0, Q1)
        ch = np.concatenate([c0, c1])
        E = np.hstack([B, Bbar])
        best = np.inf
        n = n0 + ni
        for states in it.product((-1, 0, 1), repeat=n):
            free = [i for i in range(n) if states[i] == 0]
            x = np.where(np.array(states) < 0, lo, hi).astype(float)
            x[free] = 0.0
            # KKT on free coords with the equality row
            nf = len(free)
            KKT = np.zeros((nf + 1, nf + 1))
            KKT[:nf, :nf] = Qh[np.ix_(free, free)]
            KKT[:nf, nf] = E[0, free]
            KKT[nf, :nf] = E[0, free]
            rhs = np.zeros(nf + 1)
            fixed = [i for i in range(n) if states[i] != 0]
            rhs[:nf] = -ch[free] - Qh[np.ix_(free, fixed)] @ x[fixed]
            rhs[nf] = bbar[0] - E[0, fixed] @ x[fixed]
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            x[free] = sol[:nf]
            lam = sol[nf]
            if np.any(x < lo - 1e-11) or np.any(x > hi + 1e-11):
                continue
            grad = Qh @ x + ch + E[0] * lam
            ok = True
            for i in range(n):
                if states[i] < 0 and grad[i] < -1e-9:     # at lower: grad >= 0
                    ok = False
                if states[i] > 0 and grad[i] > 1e-9:      # at upper: grad <= 0
                    ok = False
            if not ok:
                continue
            best = min(best, 0.5 * x @ Qh @ x + ch @ x)
        assert best < np.inf
        assert abs(rep.obj_p - best) <= 1e-6 * (1 + abs(best))


class TestAFactorBound:
    def test_diagonal_term_psd_when_power_iteration_fails(self, monkeypatch):
        # a repeated row makes A A* singular, so _AFactor falls back to
        # J = lam I - A A*, which needs lam >= lambda_max(A A*)
        stalled = lambda op, dim, tol=1e-8, maxit=500: (1e-3, False)
        monkeypatch.setattr(blocklinalg, "power_lambda_max", stalled)
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 6))
        A = np.vstack([A, A[0]])
        fac = solvers._AFactor(A)
        J = fac._lam * np.eye(4) - A @ A.T
        assert np.linalg.eigvalsh(J)[0] >= -1e-12 * fac._lam


class TestEmptyScenarioBlock:
    @staticmethod
    def toy(empty_first):
        # x >= 0 with 2x = 2 from a scenario without second-stage variables
        full = ScenarioBlock(np.array([[1.0]]), np.array([[1.0, 2.0]]),
                             np.array([3.0]), np.array([1.0, 1.0]),
                             NonnegOrthant(2), Zero(2))
        empty = ScenarioBlock(np.array([[2.0]]), np.zeros((1, 0)),
                              np.array([2.0]), np.zeros(0), NonnegOrthant(0),
                              Zero(0))
        blocks = [empty, full] if empty_first else [full, empty]
        return DBAProblem(None, None, np.array([2.0]), NonnegOrthant(1),
                          Zero(1), blocks)

    def test_position_does_not_matter(self):
        first = admm_solve(self.toy(True))
        last = admm_solve(self.toy(False))
        assert first.status == last.status == "Converged"
        assert last.obj_p == pytest.approx(first.obj_p, rel=0, abs=1e-8)
        assert last.obj_d == pytest.approx(first.obj_d, rel=0, abs=1e-8)


def _no_a_problem():
    rng = np.random.default_rng(12)
    blocks = []
    for _ in range(3):
        Bbar = np.hstack([rng.uniform(0.5, 1.5, (2, 1)), np.eye(2)])
        B = rng.uniform(0.0, 1.0, (2, 2))
        bbar = B @ rng.uniform(0.1, 1.0, 2) + Bbar @ rng.uniform(0.1, 1.0, 3)
        blocks.append(ScenarioBlock(B, Bbar, bbar, rng.uniform(0.5, 2.0, 3),
                                    NonnegOrthant(3), Zero(3)))
    return DBAProblem(None, None, rng.uniform(0.5, 2.0, 2), NonnegOrthant(2),
                      Zero(2), blocks)


class TestCarriedSums:
    """The sums ``A*y + B*ybar + z + v`` and ``Bbar*ybar + zbar + vbar``
    that an iteration returns are what the next one would compute from the
    state, bit for bit, so carrying them changes no iterate."""

    @staticmethod
    def steps(prob, alm, carry, n=50):
        from dbasolve.solvers import (_sgs_iteration, _ssn_eligible,
                                      default_sigma0, solve_setup, zero_state)
        cfg = SolverConfig()
        msol, facA = solve_setup(prob, cfg)
        use_ssn = _ssn_eligible(prob, cfg)
        st, sigma, sums, out = zero_state(prob), default_sigma0(prob), None, []
        for k in range(n):
            if k == 25:
                sigma *= 1.4          # the sums do not depend on sigma
            inner, d_res, d_res_bar, sums, _ = _sgs_iteration(
                prob, st, sigma, 1.9 if alm else 1.618, msol, facA, use_ssn,
                eps_schedule(k), cfg, alm, sums if carry else None)
            out.append([inner, d_res, d_res_bar, *sums] + [
                getattr(st, f) for f in ("x", "xbar", "y", "ybar", "z",
                                         "zbar", "v", "vbar")])
        return use_ssn, out

    # the benchmark workloads' tiny instances (PHA's as the bundle its outer
    # iterations solve), ALM, and a problem without A
    @pytest.mark.parametrize("build, alm", [
        (lambda: random_two_stage(2, 6, 2, 5, N=100, seed=1, quad_eps=0.1),
         False),
        (lambda: random_sdp(2, 3, 2, 3, N=3, seed=1), False),
        (lambda: build_ufl_dnn(random_ufl(4, 20, seed=1)), False),
        (lambda: _bundle(random_two_stage(2, 4, 2, 4, N=3, seed=1,
                                          quad_eps=0.1), 10.0), False),
        (lambda: random_sdp(2, 3, 2, 3, N=3, seed=1), True),
        (lambda: random_two_stage(2, 6, 2, 5, N=100, seed=2), True),
        (_no_a_problem, False),
        (_no_a_problem, True),
    ], ids=["two-stage-ssn", "sdp-psd", "ufl-dnn", "pha-bundle", "sdp-alm",
            "lp-alm", "no-a", "no-a-alm"])
    def test_carried_equals_recomputed(self, build, alm):
        prob = build()
        ssn, carried = self.steps(prob, alm, carry=True)
        _, fresh = self.steps(prob, alm, carry=False)
        for got, want in zip(carried, fresh):
            assert got[0] == want[0]
            assert all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:]))


class TestFlatState:
    """The named blocks of the state are views of its three flat vectors
    over x|xbar, before and after an iteration and on a warm start."""

    @staticmethod
    def assert_views(st, n0):
        for name, flat in (("x", "xx"), ("z", "zz"), ("v", "vv")):
            head, tail = getattr(st, name), getattr(st, name + "bar")
            buf = getattr(st, flat)
            assert head.base is buf and tail.base is buf
            assert head.size == n0 and tail.size == buf.size - n0
            assert np.array_equal(np.concatenate((head, tail)), buf)

    @pytest.mark.parametrize("build", [
        lambda: random_sdp(2, 3, 2, 3, N=3, seed=1),
        lambda: random_two_stage(2, 6, 2, 5, N=100, seed=1, quad_eps=0.1),
        _no_a_problem])
    def test_blocks_are_views(self, build):
        from dbasolve.solvers import (_sgs_iteration, _ssn_eligible, _start,
                                      solve_setup, zero_state)
        prob = build()
        cfg = SolverConfig()
        msol, facA = solve_setup(prob, cfg)
        st = zero_state(prob)
        self.assert_views(st, prob.n0)
        sums = None
        for k in range(5):
            _, d_res, d_res_bar, sums, _ = _sgs_iteration(
                prob, st, 0.5, 1.618, msol, facA, _ssn_eligible(prob, cfg),
                eps_schedule(k), cfg, sums=sums)
            self.assert_views(st, prob.n0)
            assert d_res.base is d_res_bar.base
        rep = admm_solve(prob, SolverConfig(max_iter=30))
        warm, _ = _start(prob, cfg, rep)
        self.assert_views(warm, prob.n0)
        assert np.array_equal(warm.x, rep.primal.x)
        assert np.array_equal(warm.xbar, rep.primal.stacked())
        for name in ("y", "ybar", "z", "zbar", "v", "vbar"):
            assert np.array_equal(getattr(warm, name), getattr(rep.dual, name))
        # the warm start copies: stepping it leaves the report as it was
        x_before = rep.primal.x.copy()
        _sgs_iteration(prob, warm, 0.5, 1.618, msol, facA,
                       _ssn_eligible(prob, cfg), 1e-6, cfg)
        assert np.array_equal(rep.primal.x, x_before)


class TestHalpernStep:
    """admm_solve without a step length: Halpern's anchored iteration with
    restarts on the unit-step sweep T."""

    @pytest.mark.parametrize("build", [
        lambda: random_sdp(2, 3, 2, 3, N=3, seed=1),
        lambda: random_two_stage(2, 6, 2, 5, N=100, seed=1, quad_eps=0.1),
        lambda: build_ufl_dnn(random_ufl(4, 20, seed=1)),
        _no_a_problem], ids=["sdp", "two-stage", "ufl", "no-a"])
    def test_step_is_the_anchored_reflection(self, build):
        from dbasolve.model import (joint_dual_sums, joint_linear_residues,
                                    residue_denominators)
        from dbasolve.solvers import (PrimalDualState, _Halpern,
                                      _sgs_iteration, default_sigma0,
                                      solve_setup, zero_state)

        def flat(st):
            return np.concatenate((st.xx, st.y, st.ybar))

        prob = build()
        cfg = SolverConfig()
        msol, facA = solve_setup(prob, cfg)
        st, sigma = zero_state(prob), default_sigma0(prob)
        hal = _Halpern(prob, st)
        sums, combined = None, 0
        for k in range(60):
            w, j = flat(st), hal.j
            w0 = hal.anchor[:w.size].copy()
            # T(w): one unit-step iteration from a copy of w, its sums
            # computed from the state
            ref = PrimalDualState(prob.n0, st.xx.copy(), st.y.copy(),
                                  st.ybar.copy(), st.zz.copy(), st.vv.copy())
            _sgs_iteration(prob, ref, sigma, 1.0, msol, facA, False,
                           eps_schedule(k), cfg)
            # the sweep writes T(w) into the step's image buffer
            _, d_res, d_res_bar, SS, lin = _sgs_iteration(
                prob, st, sigma, 1.0, msol, facA, False, eps_schedule(k),
                cfg, sums=sums, out=hal.image)
            assert st.xx.base is hal.image[0] and lin.base is hal.image[0]
            residues = joint_linear_residues(prob, st.xx, d_res, d_res_bar,
                                             residue_denominators(prob))
            t = flat(st)
            scale = 1e-12 * (1.0 + np.abs(t).max())
            assert np.allclose(t, flat(ref), rtol=1e-9, atol=scale)
            sigma, sums = hal.step(st, lin, SS, sigma, k, False, residues)
            if hal.j == 0 or j == 0:
                want = t               # a restart, or the first step after
            else:
                a = 1.0 / (j + 2)
                want = a * w0 + (1.0 - a) * (2.0 * t - w)
                combined += 1
            assert np.allclose(flat(st), want, rtol=1e-12, atol=scale)
            # the carried sums are those of the new state
            assert np.allclose(
                sums, joint_dual_sums(prob, st.y, st.ybar, st.zz, st.vv),
                rtol=1e-12, atol=1e-12 * (1.0 + np.abs(sums).max()))
        assert combined >= 10

    @pytest.mark.parametrize("max_iter", [1, 2, 40, 50000])
    def test_report_points_are_not_overwritten(self, max_iter):
        # the report's points can be views of the step's last image
        # buffer; a solve warm-started from the report writes to none
        prob = random_sdp(2, 3, 2, 3, N=3, seed=1)
        rep = admm_solve(prob, SolverConfig(max_iter=max_iter))

        def points(r):
            return [r.primal.x, *r.primal.xbar, r.dual.y, r.dual.ybar,
                    r.dual.z, r.dual.zbar]
        before = [a.copy() for a in points(rep)]
        admm_solve(prob, SolverConfig(max_iter=30), initial=rep)
        assert all(np.array_equal(a, b) for a, b in zip(points(rep), before))
        assert rep.kkt == kkt_residues(prob, rep.primal, rep.dual)

    def test_sigma_fixed_keeps_sigma_across_restarts(self, monkeypatch):
        restarts = []
        step = solvers._Halpern.step

        def recorded(self, st, lin, SS, sigma, k, sigma_fixed, residues):
            out = step(self, st, lin, SS, sigma, k, sigma_fixed, residues)
            if self.j == 0:
                restarts.append(k)
            return out

        monkeypatch.setattr(solvers._Halpern, "step", recorded)
        prob = random_sdp(2, 3, 2, 3, N=3, seed=2)
        sig = LOG_COLUMNS.index("sigma")

        fixed = admm_solve(prob, SolverConfig(sigma_fixed=True, max_iter=300))
        sigma0 = _scaled_default_sigma0(prob, fixed)
        assert len(restarts) >= 3
        assert {row[sig] for row in fixed.log_rows} == {sigma0}
        assert fixed.sigma == sigma0

        # without the flag sigma moves, only right after restarts
        del restarts[:]
        free = admm_solve(prob, SolverConfig(max_iter=300))
        rows = free.log_rows
        moved = [k - 1 for k in range(1, len(rows))
                 if rows[k][sig] != rows[k - 1][sig]]
        assert moved and set(moved) <= set(restarts)
        assert all(abs(np.log(rows[k + 1][sig] / rows[k][sig]))
                   <= np.log(solvers._SIGMA_RESTART_CLAMP) + 1e-12
                   for k in moved)

    def test_ssn_auto_is_off(self):
        # auto picks semismooth Newton here for the classic step
        prob = random_two_stage(2, 6, 2, 5, N=100, seed=1, quad_eps=0.1)
        assert not admm_solve(prob, SolverConfig(max_iter=1)).extra["ssn"]
        assert admm_solve(prob, SolverConfig(max_iter=1,
                                             tau=1.618)).extra["ssn"]
        assert admm_solve(prob, SolverConfig(max_iter=1,
                                             ssn="on")).extra["ssn"]


class TestRestartSigma:
    """``_Halpern._restart_sigma``: the anchor's move estimate, tilted by
    the fourth root of the dual/primal residue ratio when that ratio leaves
    the band, then clamped."""

    CLAMP = solvers._SIGMA_RESTART_CLAMP

    @staticmethod
    def halpern(prob, ratio):
        """A ``_Halpern`` at the zero state and an image ``t`` whose move
        from the anchor has ``||d_xx||^2 / ||d_(y, ybar)||^2 = ratio``."""
        st = solvers.zero_state(prob)
        hal = solvers._Halpern(prob, st)
        t = hal.anchor.copy()
        t[0] += np.sqrt(ratio)
        t[hal._cuts[0]] += 1.0
        return hal, t

    @classmethod
    def untilted(cls, sigma, ratio):
        """The rule without the residues, as written before the tilt."""
        new = np.sqrt(sigma * np.sqrt(ratio))
        new = min(max(new, sigma / cls.CLAMP), sigma * cls.CLAMP)
        return min(max(new, solvers._SIGMA_MIN), solvers._SIGMA_MAX)

    @staticmethod
    def residues(prim, dual):
        return LinearResidues(eta_P=prim, eta_D=dual, eta_Pbar=prim / 3,
                              eta_Dbar=dual / 7)

    def test_inside_the_band_is_the_untilted_rule(self):
        prob = random_two_stage(2, 6, 2, 5, N=10, seed=1, quad_eps=0.1)
        band = solvers._SIGMA_BALANCE_BAND
        for ratio in (1.0 / 16, 0.3, 1.0, 4.0, 50.0):
            hal, t = self.halpern(prob, ratio)
            for sigma in (1e-3, 0.7, 2.0):
                for r in (1.0, 0.2, 7.0, band, 1.0 / band):
                    got = hal._restart_sigma(t, sigma, self.residues(1.0, r))
                    assert got == self.untilted(sigma, ratio)

    def test_outside_the_band_tilts_before_the_clamp(self):
        prob = random_two_stage(2, 6, 2, 5, N=10, seed=1, quad_eps=0.1)
        # the move alone asks for sigma / 2, which the clamp would raise to
        # sigma / 1.5; a dual residue 16 times the primal one doubles it
        hal, t = self.halpern(prob, 1.0 / 16)
        assert self.untilted(1.0, 1.0 / 16) == 1.0 / self.CLAMP
        assert hal._restart_sigma(t, 1.0, self.residues(1.0, 16.0)) == 1.0
        assert hal._restart_sigma(t, 1.0, self.residues(1.0, 20.0)) \
            == 0.5 * 20.0 ** 0.25
        # a primal residue 16 times the dual one halves it: clamped
        assert hal._restart_sigma(t, 1.0, self.residues(16.0, 1.0)) \
            == 1.0 / self.CLAMP
        # a large ratio is clamped after the tilt
        assert hal._restart_sigma(t, 1.0, self.residues(1e-8, 1.0)) \
            == self.CLAMP

    def test_no_tilt_without_a_or_with_a_zero_residue(self):
        hal, t = self.halpern(_no_a_problem(), 1.0 / 16)
        for res in (self.residues(1e-4, 1.0), self.residues(1.0, 1e-8)):
            assert hal._restart_sigma(t, 1.0, res) == 1.0 / self.CLAMP
        prob = random_two_stage(2, 6, 2, 5, N=10, seed=1, quad_eps=0.1)
        hal, t = self.halpern(prob, 1.0 / 16)
        for res in (self.residues(0.0, 1.0), self.residues(1.0, 0.0)):
            assert hal._restart_sigma(t, 1.0, res) == 1.0 / self.CLAMP

    def test_sigma_fixed_never_moves(self, monkeypatch):
        # the reference instance of two-stage-ssn, where the tilt fires
        prob = random_two_stage(5, 20, 5, 15, N=120, seed=1, quad_eps=0.1)
        tilted = []
        restart_sigma = solvers._Halpern._restart_sigma

        def recorded(self, t, sigma, residues):
            out = restart_sigma(self, t, sigma, residues)
            prim = max(residues.eta_P, residues.eta_Pbar)
            dual = max(residues.eta_D, residues.eta_Dbar)
            band = solvers._SIGMA_BALANCE_BAND
            tilted.append(not 1.0 / band <= dual / prim <= band)
            return out

        monkeypatch.setattr(solvers._Halpern, "_restart_sigma", recorded)
        sig = LOG_COLUMNS.index("sigma")
        free = admm_solve(prob, SolverConfig(max_iter=300))
        assert any(tilted)
        assert len({row[sig] for row in free.log_rows}) > 1

        del tilted[:]
        fixed = admm_solve(prob, SolverConfig(sigma_fixed=True, max_iter=300))
        assert tilted == []
        sigma0 = _scaled_default_sigma0(prob, fixed)
        assert {row[sig] for row in fixed.log_rows} == {sigma0}
        assert fixed.sigma == sigma0


def _scaled_default_sigma0(prob, report):
    """The default sigma of ``prob``'s costs in the variables of the
    report's stage scale, where the Halpern step starts."""
    return solvers.default_sigma0(
        prob.with_cost(report.extra["stage_scale"] * prob.c))


def _zero_quadratic_theta(prob):
    """``prob`` with every objective a zero :class:`DiagQuadratic`: the same
    function, whose prox is the identity, but not ``is_zero``, so its ADMM
    sweep runs ybar -> (v, vbar) -> ybar."""
    blocks = [ScenarioBlock(s.B, s.Bbar, s.bbar, s.cbar, s.cone,
                            DiagQuadratic(np.zeros(s.n)))
              for s in prob.scenarios]
    return DBAProblem(prob.A, prob.b, prob.c, prob.cone,
                      DiagQuadratic(np.zeros(prob.n0)), blocks, prob.meta)


class TestThetaFreeSweep:
    """Without theta, theta*(-v) is the indicator of v = 0: admm_solve keeps
    v|vbar = 0 and its sweep is nonsmooth -> ybar, one M solve.  The oracle
    is the same problem with zero quadratics, which runs the full sweep."""

    BUILDS = [lambda: random_sdp(2, 3, 2, 3, N=3, seed=2),
              lambda: random_two_stage(2, 6, 2, 5, N=10, seed=1)]
    STEPS = pytest.mark.parametrize("tau", [None, 1.618],
                                    ids=["halpern", "classic"])

    @staticmethod
    def flat(rep):
        return [rep.primal.xx, rep.dual.y, rep.dual.ybar, rep.dual.zz]

    @STEPS
    @pytest.mark.parametrize("build", BUILDS, ids=["sdp", "lp"])
    def test_matches_the_full_sweep(self, build, tau):
        prob = build()
        assert prob.joint_theta.is_zero
        cfg = SolverConfig(tau=tau)
        got = admm_solve(prob, cfg)
        oracle = _zero_quadratic_theta(prob)
        assert not oracle.joint_theta.is_zero
        want = admm_solve(oracle, cfg)
        assert got.converged
        assert (got.status, got.iterations) == (want.status, want.iterations)
        for g, w in zip(self.flat(got), self.flat(want)):
            assert np.allclose(g, w, rtol=1e-9,
                               atol=1e-9 * (1.0 + np.abs(w).max()))

    @STEPS
    def test_one_m_solve_per_iteration(self, monkeypatch, tau):
        # one ybar step per iteration, two with the oracle's theta, on the
        # composed path (a product with M^-1 W) and on the factored one
        # (an M solve)
        prob = random_two_stage(2, 6, 2, 5, N=10, seed=1)
        cfg = SolverConfig(tau=tau, max_iter=40)
        steps = []
        step = solvers._ybar_step

        def counted(problem, msol, mb, *args):
            steps.append(mb is not None)
            return step(problem, msol, mb, *args)

        monkeypatch.setattr(solvers, "_ybar_step", counted)
        for composed in (True, False):
            if not composed:
                compose_nothing(monkeypatch)
            for problem, per_iter in ((prob, 1),
                                      (_zero_quadratic_theta(prob), 2)):
                del steps[:]
                setup = solve_setup(problem, cfg)
                assert (setup.msolver.minv_w is not None) == composed
                rep = admm_solve(problem, cfg, setup=setup)
                assert rep.iterations == 40
                assert len(steps) == per_iter * rep.iterations
                assert set(steps) == {composed}

    @STEPS
    def test_v_stays_zero_from_a_warm_start(self, tau):
        prob = random_sdp(2, 3, 2, 3, N=3, seed=2)
        cfg = SolverConfig(tau=tau, max_iter=30)
        cold = admm_solve(prob, cfg)
        assert not cold.dual.v.any() and not cold.dual.vbar.any()
        # the same report with a nonzero v|vbar starts the same solve
        clean = admm_solve(prob, cfg, initial=cold)
        cold.dual.v = np.ones_like(cold.dual.v)
        cold.dual.vbar = np.full_like(cold.dual.vbar, -2.0)
        warm = admm_solve(prob, cfg, initial=cold)
        assert not warm.dual.v.any() and not warm.dual.vbar.any()
        assert warm.log_rows == clean.log_rows
        assert all(np.array_equal(g, w)
                   for g, w in zip(self.flat(warm), self.flat(clean)))


def _composable_problem(kind, seed, theta=False):
    """Two scenarios of two rows on a first stage with a 3 x 12 block ``A``:
    random, with ``A A*`` of condition 1e8, or with a repeated row, which
    makes ``A A*`` singular and ``_AFactor`` fall back to ``lam I``.  With
    ``theta`` every objective is a diagonal quadratic."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 12))
    if kind == "cond1e8":
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        A = (U * np.sqrt(np.logspace(0, -8, 3))) @ Vt
    elif kind == "fallback":
        A = np.vstack([A, A[0]])

    def fn(n):
        return DiagQuadratic(rng.uniform(0.5, 1.5, n)) if theta else Zero(n)
    blocks = [ScenarioBlock(rng.normal(size=(2, 12)), rng.normal(size=(2, 4)),
                            rng.normal(size=2), rng.normal(size=4),
                            NonnegOrthant(4), fn(4)) for _ in range(2)]
    return DBAProblem(A, rng.normal(size=A.shape[0]), rng.normal(size=12),
                      NonnegOrthant(12), fn(12), blocks)


class TestComposedSteps:
    """A small system's setup keeps ``M^-1 W``, ``L = (A A* + J)^-1 A`` and
    ``P = A* L``, and the sweep applies each as one product; larger systems
    keep the mat-vec and factor-solve path.  The two agree."""

    @staticmethod
    def setups(monkeypatch, prob):
        cfg = SolverConfig(strategy="chol")
        composed = solve_setup(prob, cfg)
        with monkeypatch.context() as patch:
            compose_nothing(patch)
            factored = solve_setup(prob, cfg)
        return composed, factored

    @staticmethod
    def sweep(prob, setup, alm):
        """One sweep from a fixed random state; the state after it."""
        rng = np.random.default_rng(7)
        st = solvers.zero_state(prob)
        st.xx, st.zz = rng.normal(size=st.xx.size), rng.normal(size=st.zz.size)
        st.y, st.ybar = rng.normal(size=st.y.size), rng.normal(size=st.ybar.size)
        v_free = prob.joint_theta.is_zero
        if not v_free:
            st.vv = rng.normal(size=st.vv.size)
        solvers._sgs_iteration(prob, st, 0.7, 1.618, setup.msolver,
                               setup.afactor, False, 1e-6, SolverConfig(),
                               alm, None, v_free and not alm)
        return [st.xx, st.y, st.ybar, st.zz, st.vv]

    # the forward error of either path is about cond(A A*) eps; at 1e8 the
    # two stayed within 7.6e-12 of each other on 20 seeds
    @pytest.mark.parametrize("kind, rtol", [("random", 1e-13),
                                            ("cond1e8", 1e-10),
                                            ("fallback", 1e-13)])
    @pytest.mark.parametrize("sweep", ["admm", "theta", "alm"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_composed_and_factored_sweeps_agree(self, monkeypatch, kind, rtol,
                                                sweep, seed):
        prob = _composable_problem(kind, seed, theta=sweep == "theta")
        composed, factored = self.setups(monkeypatch, prob)
        assert composed.afactor.L is not None
        assert composed.msolver.minv_w is not None
        assert factored.afactor.L is None and factored.msolver.minv_w is None
        assert (composed.afactor._lam is not None) == (kind == "fallback")
        got = self.sweep(prob, composed, sweep == "alm")
        want = self.sweep(prob, factored, sweep == "alm")
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= rtol * np.linalg.norm(w)

    def test_solves_agree(self, monkeypatch):
        prob = random_two_stage(2, 6, 2, 5, N=10, seed=1)
        composed, factored = self.setups(monkeypatch, prob)
        got = admm_solve(prob, setup=composed)
        want = admm_solve(prob, setup=factored)
        assert got.converged
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert np.allclose(got.primal.xx, want.primal.xx, rtol=1e-9,
                           atol=1e-9)

    def test_check_inner_asserts_the_composed_residual(self):
        prob = _composable_problem("random", 1)
        setup = solve_setup(prob, SolverConfig(strategy="chol"))
        assert setup.msolver.minv_w is not None
        applied = []
        apply_m = setup.msolver.apply_m

        def doubled(w):
            applied.append(1)
            return 2.0 * apply_m(w)

        setup.msolver.apply_m = doubled
        admm_solve(prob, SolverConfig(max_iter=5), setup=setup)
        assert applied == []
        with pytest.raises(AssertionError, match="inner residual"):
            admm_solve(prob, SolverConfig(max_iter=5, check_inner=True),
                       setup=setup)
        assert applied == [1]
        setup.msolver.apply_m = apply_m
        rep = admm_solve(prob, SolverConfig(max_iter=50, check_inner=True),
                         setup=setup)
        assert rep.iterations == 50

    @pytest.mark.parametrize("n0, composed", [(128, True), (129, False)])
    def test_a_composes_up_to_the_cutoff(self, n0, composed):
        # max(n0^2, m0 n0) against _MATVEC_DENSE_SIZE = 128^2
        A = np.random.default_rng(1).normal(size=(2, n0))
        fac = solvers._AFactor(A)
        assert (fac.L is not None, fac.P is not None) == (composed, composed)
        if composed:
            assert fac.L.shape == (2, n0) and fac.P.shape == (n0, n0)
            assert np.allclose(A @ A.T @ fac.L, A)

    @pytest.mark.parametrize("mbar, composed", [(127, True), (128, False)])
    def test_m_composes_up_to_the_cutoff(self, mbar, composed):
        # mbar (n0 + nbar) against 16384: 127 * 129 below, 128 * 129 above
        rng = np.random.default_rng(2)
        block = ScenarioBlock(rng.normal(size=(mbar, 9)),
                              rng.normal(size=(mbar, 120)),
                              rng.normal(size=mbar), rng.normal(size=120),
                              NonnegOrthant(120), Zero(120))
        prob = DBAProblem(None, None, rng.normal(size=9), NonnegOrthant(9),
                          Zero(9), [block])
        msol = solve_setup(prob, SolverConfig(strategy="chol")).msolver
        assert (msol.minv_w is not None) == composed
        if composed:
            M = assemble_m_dense(prob)
            assert np.allclose(M @ msol.minv_w, blocklinalg.to_dense(prob.W))


class TestNumericalGuard:
    """A non-finite iterate ends in NumericalError naming the iteration,
    whether a factor solve refuses it or the residues show it."""

    # the first composes every operator; the second is above the cutoff on
    # both (A is 3 x 130, mbar (n0 + nbar) = 150 * 580)
    @pytest.mark.parametrize("build, composed", [
        (lambda: random_two_stage(2, 6, 2, 5, N=3, seed=1, quad_eps=0.1),
         True),
        (lambda: random_two_stage(3, 130, 5, 15, N=30, seed=1, quad_eps=0.1),
         False)], ids=["composed", "factored"])
    @pytest.mark.parametrize("tau", [None, 1.618], ids=["halpern", "classic"])
    def test_nan_warm_start(self, build, composed, tau):
        prob = build()
        setup = solve_setup(prob, SolverConfig())
        assert (setup.afactor.L is not None) == composed
        assert (setup.msolver.minv_w is not None) == composed
        cfg = SolverConfig(tau=tau, max_iter=5)
        rep = admm_solve(prob, cfg, setup=setup)
        rep.dual.y[0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalError, match="^non-finite iterate at iteration 0: "):
            admm_solve(prob, cfg, initial=rep, setup=setup)

    def test_nan_behind_a_finite_first_residue(self):
        # without A, eta_P is 0 and comes first: max() of the residues would
        # return it over the NaN of the others
        prob = _no_a_problem()
        setup = solve_setup(prob, SolverConfig())
        assert setup.afactor is None and setup.msolver.minv_w is not None
        rep = admm_solve(prob, SolverConfig(max_iter=5), setup=setup)
        rep.dual.ybar[0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalError, match="^non-finite iterate at iteration 0: "
                "linear residues 0, nan"):
            admm_solve(prob, SolverConfig(max_iter=5), initial=rep,
                       setup=setup)
