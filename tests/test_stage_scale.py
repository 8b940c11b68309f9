"""The stage scale: the default Halpern step solves the first stage in the
variable ``x' = x / s`` of :func:`stage_scale`, stops on the problem's own
residues and returns the unscaled point; every other path keeps ``s = 1``
and never enters the scaled code."""

import json
import logging

import numpy as np
import pytest
import scipy.sparse as sp

import dbasolve.solvers as solvers
from dbasolve import io
from dbasolve.blocklinalg import (StackedOp, as_csr, canonicalize,
                                  column_sq_norms, scale_leading, to_dense)
from dbasolve.builders import (build_ufl_dnn, random_sdp, random_two_stage,
                               random_ufl)
from dbasolve.cli import main
from dbasolve.model import DBAProblem, ScenarioBlock, kkt_residues
from dbasolve.pha import PhaConfig, pha_solve
from dbasolve.proxcone import (BlockCone, BlockFunction, Box, DenseQuadratic,
                               DiagQuadratic, FreeSpace, NonnegOrthant, Zero,
                               conjugate_value, scale_function)
from dbasolve.solvers import (LOG_COLUMNS, SolverConfig, admm_solve,
                              alm_solve, solve_setup, stage_scale)

from conftest import make_free_qp, make_two_scenario_lp

LINEAR = [LOG_COLUMNS.index(c) for c in ("eta_P", "eta_D", "eta_Pbar",
                                         "eta_Dbar")]


def two_stage_ssn():
    return random_two_stage(5, 20, 5, 15, N=120, seed=1, quad_eps=0.1)


def lp_n400():
    return random_two_stage(5, 20, 5, 15, N=400, seed=1, quad_eps=0.0)


def ufl():
    return build_ufl_dnn(random_ufl(4, 20, seed=1))


def mixed_first_stage(seed=1):
    """A first stage of two blocks: an orthant with a diagonal quadratic
    and a free block with a dense quadratic, as a BlockCone and a
    BlockFunction; the scenario functions are diagonal quadratics."""
    rng = np.random.default_rng(seed)
    n0 = 6
    M = rng.normal(size=(3, 3))
    cone = BlockCone([NonnegOrthant(3), FreeSpace(3)])
    theta = BlockFunction([DiagQuadratic(rng.uniform(0.5, 1.5, 3)),
                           DenseQuadratic(M @ M.T + np.eye(3))])
    blocks = []
    for _ in range(4):
        B = 3.0 * rng.normal(size=(3, n0))
        Bbar = rng.normal(size=(3, 5))
        x0 = np.concatenate((rng.uniform(0.1, 1.0, 3), rng.normal(size=3)))
        bbar = B @ x0 + Bbar @ rng.uniform(0.1, 1.0, 5)
        blocks.append(ScenarioBlock(B, Bbar, bbar, rng.uniform(0.5, 2.0, 5),
                                    NonnegOrthant(5),
                                    DiagQuadratic(rng.uniform(0.1, 1.0, 5))))
    A = rng.normal(size=(2, n0))
    return DBAProblem(A, A @ x0, rng.normal(size=n0), cone, theta, blocks)


SCALED = {
    "two-stage": lambda: random_two_stage(2, 6, 2, 5, N=20, seed=1,
                                          quad_eps=0.1),
    "lp": make_two_scenario_lp,
    "sdp": lambda: random_sdp(2, 3, 2, 3, N=3, seed=1),
    "dense-qp": make_free_qp,
    "block-first-stage": mixed_first_stage,
}


class TestRule:
    @pytest.mark.parametrize("build, s", [
        (two_stage_ssn, 0.31848), (lambda: random_sdp(3, 6, 3, 6, N=4, seed=1),
                                   0.67194), (lp_n400, 0.23553)],
        ids=["two-stage-ssn", "sdp-psd", "lp-n400"])
    def test_reference_instances(self, build, s):
        assert stage_scale(build()) == pytest.approx(s, rel=1e-4)

    @pytest.mark.parametrize("name", sorted(SCALED))
    def test_rule_from_dense_columns(self, name):
        prob = SCALED[name]()
        W = to_dense(prob.W)
        head = W[:, :prob.n0]
        if prob.A is not None:
            head = np.vstack((to_dense(prob.A), head))
        bbar = np.linalg.norm(W[:, prob.n0:], axis=0)
        r = np.linalg.norm(head, axis=0).mean() / bbar[bbar > 0].mean()
        assert r > 1.0
        assert stage_scale(prob) == pytest.approx(r ** -0.5, rel=1e-12)

    def test_one_above_balance(self):
        prob = random_two_stage(2, 6, 2, 5, N=20, seed=1, quad_eps=0.1)
        heavy = [ScenarioBlock(s.B, 100.0 * s.Bbar, s.bbar, s.cbar, s.cone,
                               s.theta) for s in prob.scenarios]
        prob = DBAProblem(prob.A, prob.b, prob.c, prob.cone, prob.theta,
                          heavy)
        assert stage_scale(prob) == 1.0

    def test_exemptions(self):
        # an indicator first-stage function: the rule alone would give 0.9
        assert stage_scale(ufl()) == 1.0
        prob = random_two_stage(2, 6, 2, 5, N=20, seed=1, quad_eps=0.1)
        assert stage_scale(prob) < 1.0
        boxed = DBAProblem(prob.A, prob.b, prob.c,
                           Box(np.zeros(prob.n0), np.full(prob.n0, 5.0)),
                           prob.theta, prob.scenarios)
        assert stage_scale(boxed) == 1.0


class TestUnscaledPaths:
    """Where ``s = 1`` (an indicator first stage, a set step length, for
    ADMM and for ALM, and PHA's bundles) the solve builds no scaled
    operator, scales no function and returns the state's own arrays."""

    @pytest.fixture
    def scaled_path_refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scaled path ran")
        monkeypatch.setattr(solvers, "_scaled_operators", refuse)
        monkeypatch.setattr(BlockFunction, "scaled_head", refuse)

    @pytest.mark.parametrize("solve", [
        lambda: admm_solve(build_ufl_dnn(random_ufl(10, 150, seed=1))),
        lambda: admm_solve(two_stage_ssn(), SolverConfig(tau=1.618,
                                                         max_iter=300)),
        lambda: alm_solve(random_sdp(3, 6, 3, 6, N=4, seed=1),
                          SolverConfig(tau=1.9, max_iter=300)),
    ], ids=["ufl-dnn", "set-tau", "alm"])
    def test_sgs(self, scaled_path_refused, solve):
        rep = solve()
        assert rep.extra["stage_scale"] == 1.0
        assert rep.primal.x.base is not None
        assert rep.primal.x.base is rep.primal.xbar[0].base

    def test_pha(self, scaled_path_refused):
        rep = pha_solve(random_two_stage(3, 8, 4, 8, N=12, seed=1,
                                         quad_eps=0.1), PhaConfig(rho=10.0))
        assert (rep.status, rep.iterations) == ("Converged", 155)

    def test_given_setup_keeps_its_scale(self):
        prob = random_two_stage(2, 6, 2, 5, N=20, seed=1, quad_eps=0.1)
        cfg = SolverConfig(max_iter=40)
        plain = solve_setup(prob, cfg)
        assert plain.scale == 1.0 and plain.ops is prob
        msol, facA = plain
        assert (msol, facA) == (plain.msolver, plain.afactor)
        scaled = solve_setup(prob, cfg, scaled=True)
        assert scaled.scale == stage_scale(prob) < 1.0
        assert admm_solve(prob, cfg, setup=plain).extra["stage_scale"] == 1.0
        rep = admm_solve(prob, cfg)
        again = admm_solve(prob, cfg, setup=scaled)
        assert rep.extra["stage_scale"] == scaled.scale
        assert again.log_rows == rep.log_rows


class TestScaledSetup:
    def test_operators(self):
        prob = random_two_stage(2, 6, 2, 5, N=20, seed=1, quad_eps=0.1)
        setup = solve_setup(prob, SolverConfig(), scaled=True)
        s, ops, n0 = setup.scale, setup.ops, prob.n0
        W = to_dense(prob.W).copy()
        W[:, :n0] *= s
        assert np.array_equal(to_dense(ops.W), W)
        assert np.array_equal(to_dense(ops.W_T), W.T)
        for name in ("A", "A_mv"):
            assert np.array_equal(to_dense(getattr(ops, name)),
                                  s * to_dense(getattr(prob, name)))
        assert np.array_equal(to_dense(ops.A_T), s * to_dense(prob.A).T)
        assert np.array_equal(to_dense(ops.B.matrix),
                              s * to_dense(prob.B.matrix))
        # M = s^2 B B* + Bbar Bbar*, and the A factor's composed L
        Bd, Bbd = to_dense(prob.B.matrix), to_dense(prob.Bbar.matrix)
        M = s * s * Bd @ Bd.T + Bbd @ Bbd.T
        w = np.random.default_rng(3).normal(size=prob.mbar)
        assert np.allclose(setup.msolver.apply_m(w), M @ w)
        assert np.allclose(setup.msolver.solve(M @ w), w)
        As = s * to_dense(prob.A)
        assert np.allclose(setup.afactor.L, np.linalg.solve(As @ As.T, As))
        # the problem's own operators are untouched
        assert np.array_equal(to_dense(prob.W)[:, :n0],
                              to_dense(prob.B.matrix))

    @pytest.mark.parametrize("name", sorted(SCALED))
    def test_costs_and_functions(self, name):
        prob = SCALED[name]()
        setup = solve_setup(prob, SolverConfig(), scaled=True)
        s = setup.scale
        work = solvers._scaled_problem(prob, setup)
        assert np.array_equal(work.c, s * prob.c)
        assert np.array_equal(work.cc[:prob.n0], s * prob.c)
        assert np.array_equal(work.cc[prob.n0:], prob.cbar)
        # theta'(x') = theta(s x'), joint with the unscaled scenario terms
        rng = np.random.default_rng(4)
        x = rng.normal(size=prob.n0 + prob.nbar)
        sx = x.copy()
        sx[:prob.n0] *= s
        assert work.joint_theta.value(x) == pytest.approx(
            prob.joint_theta.value(sx), rel=1e-12)
        assert work.theta.value(x[:prob.n0]) == pytest.approx(
            prob.theta.value(sx[:prob.n0]), rel=1e-12, abs=1e-300)
        assert work.joint_theta.is_zero == prob.joint_theta.is_zero


class TestScaledSolve:
    @pytest.mark.parametrize("name", sorted(SCALED))
    def test_report_is_the_problems(self, name):
        prob = SCALED[name]()
        rep = admm_solve(prob)
        assert rep.converged and rep.extra["stage_scale"] < 1.0
        res = kkt_residues(prob, rep.primal, rep.dual)
        assert res.eta <= 1e-5 and res.eta_gap <= 1e-4
        for key, value in res.as_dict().items():
            assert value == pytest.approx(getattr(rep.kkt, key), rel=1e-9,
                                          abs=1e-15), key
        assert rep.log_rows[-1][LOG_COLUMNS.index("eta")] == rep.kkt.eta
        # the classic step, unscaled, reaches the same optimum
        classic = admm_solve(prob, SolverConfig(tau=1.618))
        assert classic.converged
        assert rep.obj_p == pytest.approx(classic.obj_p, rel=1e-3, abs=1e-3)

    @pytest.mark.parametrize("name", sorted(SCALED))
    def test_max_iter_row_is_the_returned_point(self, name):
        prob = SCALED[name]()
        rep = admm_solve(prob, SolverConfig(max_iter=7))
        assert (rep.status, rep.iterations) == ("MaxIter", 7)
        assert rep.kkt == kkt_residues(prob, rep.primal, rep.dual)
        assert [rep.log_rows[-1][i] for i in LINEAR] == [
            getattr(rep.kkt, LOG_COLUMNS[i]) for i in LINEAR]

    @pytest.mark.parametrize("name", sorted(SCALED))
    def test_warm_start_converges_at_once(self, name):
        prob = SCALED[name]()
        rep = admm_solve(prob)
        warm = admm_solve(prob, initial=rep)
        # the first image of a point certified close to the tolerance may
        # miss it (the LP's by eta_Dbar 1.15e-5); the next ones do not
        assert warm.converged and warm.iterations <= 3

    @pytest.mark.parametrize("change", ["bbar", "cbar", "scenario-theta",
                                        "scenario-cone"])
    def test_shared_setup_reads_the_problems_data(self, change):
        # a solve on another problem's scaled setup takes its own bbar,
        # cbar, scenario functions and cones, so it repeats the solve on
        # its own setup; on the setup's data the first ended Stalled after
        # 2531 iterations, the third after 2467 and the fourth after 2531
        prob = random_two_stage(3, 8, 4, 8, N=6, seed=1, quad_eps=0.1)
        if change == "scenario-cone":
            prob = DBAProblem(prob.A, prob.b, prob.c, prob.cone, prob.theta, [
                ScenarioBlock(s.B, s.Bbar, s.bbar, s.cbar,
                              Box(np.zeros(s.n), np.full(s.n, 10.0)),
                              s.theta) for s in prob.scenarios], prob.meta)
        theta = prob.theta
        if change == "scenario-theta":
            theta = Zero(prob.n0)
            prob = DBAProblem(prob.A, prob.b, prob.c, prob.cone, theta, [
                ScenarioBlock(s.B, s.Bbar, s.bbar, s.cbar, s.cone,
                              DiagQuadratic(np.full(s.n, 0.1)))
                for s in prob.scenarios], prob.meta)
        blocks = [ScenarioBlock(
            s.B, s.Bbar, 1.5 * s.bbar if change == "bbar" else s.bbar,
            0.5 * s.cbar if change == "cbar" else s.cbar,
            Box(s.cone.lower, np.full(s.n, 1.5)) if change == "scenario-cone"
            else s.cone,
            DiagQuadratic(5.0 * s.theta.diag) if change == "scenario-theta"
            else s.theta) for s in prob.scenarios]
        other = DBAProblem(prob.A, prob.b, prob.c, prob.cone, theta, blocks,
                           prob.meta)
        shared = solve_setup(prob, SolverConfig(), scaled=True)
        assert shared.scale < 1.0
        admm_solve(prob, setup=shared)
        rep = admm_solve(other, setup=shared)
        own = admm_solve(other)
        assert own.converged and own.extra["stage_scale"] == shared.scale
        assert rep.log_rows == own.log_rows
        assert np.array_equal(rep.primal.xx, own.primal.xx)

    def test_lp_that_stalled_converges(self):
        # 5086 iterations and Stalled in the problem's own variables
        prob = lp_n400()
        rep = admm_solve(prob)
        assert rep.status == "Converged"
        assert rep.iterations < 2500
        res = kkt_residues(prob, rep.primal, rep.dual)
        assert res.eta <= 1e-5 and res.eta_gap <= 1e-4


class TestObservability:
    def test_one_record_when_scaled(self, caplog):
        caplog.set_level(logging.INFO, logger="dbasolve")
        prob = make_two_scenario_lp()
        quiet = admm_solve(prob, SolverConfig(max_iter=5))
        setup_records = [r for r in caplog.records
                         if r.name == "dbasolve.setup"]
        assert len(setup_records) == 1
        assert setup_records[0].levelno == logging.INFO
        assert ("%.6g" % quiet.extra["stage_scale"]
                in setup_records[0].getMessage())
        # the progress lines keep their own logger and the log its rows
        assert not [r for r in caplog.records if r.name == "dbasolve"]
        del caplog.records[:]
        admm_solve(prob, SolverConfig(max_iter=5, tau=1.618))
        assert not caplog.records

    @pytest.mark.parametrize("solver, scaled", [("sgs-admm", True),
                                                ("sgs-alm", True),
                                                ("pha", False)])
    def test_summary(self, tmp_path, solver, scaled):
        path = str(tmp_path / "lp.json")
        io.write_problem(make_two_scenario_lp(), path)
        out = str(tmp_path / "run")
        assert main(["solve", path, "--out", out, "--solver", solver]) == 0
        with open(out + ".summary.json") as fh:
            summary = json.load(fh)
        if scaled:
            assert summary["stage_scale"] == stage_scale(
                make_two_scenario_lp()) < 1.0
        else:
            assert summary["stage_scale"] == 1.0

    def test_pha_names_the_bundle_strategy(self):
        prob = make_two_scenario_lp()
        assert pha_solve(prob, PhaConfig(max_iter=2)).extra["strategy"] \
            == "chol"
        assert pha_solve(prob, PhaConfig(max_iter=0)).extra["strategy"] \
            is None


class TestHelpers:
    def test_scaled_head_matches_a_regrouped_function(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(3, 3))
        head = [DiagQuadratic(rng.uniform(0.5, 1.5, 2)),
                DenseQuadratic(M @ M.T), Zero(2)]
        tail = [DiagQuadratic(rng.uniform(0.5, 1.5, 3)) for _ in range(4)]
        tail.append(Zero(2))
        f = BlockFunction(head + tail)
        got = f.scaled_head(7, 0.3)
        want = BlockFunction([scale_function(h, 0.3) for h in head] + tail)
        assert len(got.groups) == len(f.groups)
        x = rng.normal(size=f.dim)
        for t in (0.5, 2.0):
            assert np.allclose(got.prox(t, x), want.prox(t, x), rtol=1e-14)
        assert got.value(x) == pytest.approx(want.value(x), rel=1e-14)
        w = x.copy()
        w[7:] = 0.0
        w[5:7] = 0.0
        assert conjugate_value(got, w) == pytest.approx(
            conjugate_value(want, w), rel=1e-12)
        assert not got.is_zero
        # the function itself is left as it was
        assert np.array_equal(f.prox(1.0, x), BlockFunction(
            head + tail).prox(1.0, x))
        with pytest.raises(Exception, match="no block starts"):
            f.scaled_head(1, 0.3)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_scale_leading(self, axis, kind):
        rng = np.random.default_rng(6)
        dense = rng.normal(size=(5, 7)) * (rng.uniform(size=(5, 7)) < 0.5)
        mat = dense if kind == "dense" else sp.csr_matrix(dense)
        want = dense.copy()
        if axis:
            want[:, :3] *= 0.25
        else:
            want[:3] *= 0.25
        got = scale_leading(mat, 3, 0.25, axis)
        assert type(got) is type(mat)
        assert np.array_equal(to_dense(got), want)
        assert np.array_equal(to_dense(mat), dense)
        assert np.allclose(column_sq_norms(mat), (dense ** 2).sum(axis=0),
                           rtol=1e-14)

    @pytest.mark.parametrize("shape", [(12, 21), (48, 96), (0, 5), (5, 0)])
    def test_as_csr_is_scipys_conversion(self, shape):
        rng = np.random.default_rng(8)
        dense = rng.normal(size=shape) * (rng.uniform(size=shape) < 0.4)
        if dense.size:
            dense.flat[0] = -0.0
        got, want = as_csr(dense), canonicalize(sp.csr_matrix(dense))
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.has_canonical_format

    def test_stacked_op_scaled(self):
        rng = np.random.default_rng(7)
        op = StackedOp([rng.normal(size=(2, 4)) for _ in range(3)])
        scaled = op.scaled(0.5)
        assert scaled.blocks is None and op.blocks is not None
        x, y = rng.normal(size=4), rng.normal(size=6)
        assert np.allclose(scaled.apply(x), 0.5 * op.apply(x))
        assert np.allclose(scaled.apply_adjoint(y), 0.5 * op.apply_adjoint(y))
