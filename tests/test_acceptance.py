"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The named-instance check (criterion 8) needs an external
data file and skips with a message when it is absent.
"""

import itertools
import os
import time

import numpy as np
import pytest

import dbasolve.msolver as msolver
from dbasolve.blocklinalg import smat, svec, to_dense
from dbasolve.builders import build_ufl_dnn, random_ufl
from dbasolve.io import iteration_csv_text, read_problem
from dbasolve.model import DBAProblem, DualPoint, PrimalPoint, ScenarioBlock, kkt_residues
from dbasolve.msolver import (assemble_m_dense, build_msolver,
                              ebj_block_diag_J, std_block_diag_J)
from dbasolve.pha import PhaConfig, pha_solve
from dbasolve.proxcone import (DenseQuadratic, DiagQuadratic, IndicatorCone,
                               NonnegOrthant, PsdCone, Zero, Box, FreeSpace,
                               NonnegSymMatrices, conjugate_value,
                               project_cone, prox, prox_conjugate)
from dbasolve.sgs import sgs_operator_dense, sgs_sweep
from dbasolve.solvers import (LOG_COLUMNS, SolverConfig, admm_solve,
                              alm_solve, ssn_zy)

from conftest import (bbar_gram_factors, lp_standard_form, lp_vertex_optimum,
                      make_free_qp, make_two_scenario_lp, qp_kkt_solve)
from test_model import kkt_oracle, random_state
from test_sgs import make_prox1, orthant_block_qp_argmin, random_block_q, split
from test_solvers import ssn_oracle


def _report(num, name, t0, limit=None):
    dt = time.perf_counter() - t0
    if limit is not None:
        assert dt < limit, "%s exceeded %ds budget (%.1fs)" % (name, limit, dt)
    print("ACCEPTANCE %02d %s: PASS (%.2fs)" % (num, name, dt))


def ufl_integer_optimum(inst):
    """Enumerate facility subsets; allocate each customer by an exact convex
    QP over the simplex (multiplier bisection for positive quadratic costs,
    cheapest facility for linear ones)."""
    p, q = inst.p, inst.q
    best = np.inf
    for mask in itertools.product([0, 1], repeat=p):
        u = np.array(mask, dtype=float)
        if u.sum() == 0:
            continue
        open_idx = np.flatnonzero(u)
        total = float(inst.c @ u)
        for j in range(q):
            P = inst.P[open_idx, j]
            Q = inst.Q[open_idx, j]
            if np.all(Q > 0):
                lo, hi = np.min(P), np.max(P + Q) + 1.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if np.clip((mid - P) / Q, 0.0, 1.0).sum() > 1.0:
                        hi = mid
                    else:
                        lo = mid
                s = np.clip((0.5 * (lo + hi) - P) / Q, 0.0, 1.0)
                s = s / s.sum()
                total += float(P @ s + 0.5 * (Q @ (s * s)))
            else:
                total += float(np.min(P))
        best = min(best, total)
    return best


def test_01_sgs_decomposition_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    cases = 0
    while cases < 100:
        s = int(rng.integers(2, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(s)]
        if sum(dims) > 12:
            continue
        Q, Qd, offs = random_block_q(rng, dims)
        z = rng.normal(size=sum(dims))
        c = rng.normal(size=sum(dims))
        xp, _, _ = sgs_sweep(Q, make_prox1(Q.diag(0)), split(z, offs),
                             split(c, offs))
        got = np.concatenate(xp)
        S = sgs_operator_dense(Q)
        expect = orthant_block_qp_argmin(Qd + S, c + S @ z, dims[0])
        assert np.linalg.norm(got - expect) <= 1e-10 * (
            1 + np.linalg.norm(expect))
        cases += 1
    _report(1, "sGS decomposition exactness (100 cases)", t0, limit=10)


def test_02_smw_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(5):
        blocks = []
        n0 = int(rng.integers(6, 11))
        for _ in range(5):
            mi = int(rng.integers(3, 9))
            B = rng.normal(size=(mi, n0))
            Bbar = rng.normal(size=(mi, mi + 2))
            blocks.append(ScenarioBlock(B, Bbar, np.zeros(mi),
                                        np.zeros(mi + 2), NonnegOrthant(mi + 2),
                                        Zero(mi + 2)))
        prob = DBAProblem(None, None, np.zeros(n0), NonnegOrthant(n0),
                          Zero(n0), blocks)
        sol = build_msolver(prob, "smw")
        Md = assemble_m_dense(prob)
        h = rng.normal(size=prob.mbar)
        got = sol.solve(h)
        expect = np.linalg.solve(Md, h)
        assert np.linalg.norm(got - expect) <= 1e-8 * (1 + np.linalg.norm(expect))
    # the inverse of Bbar_j Bbar_j^T that smw forms at setup for the
    # facility-location blocks [[e^T, 0], [-I, -I]]
    for p in (2, 5, 10):
        prob = build_ufl_dnn(random_ufl(p, 3, seed=p))
        dinv = to_dense(msolver._inverse_csr(
            prob, *bbar_gram_factors(prob, "smw requires")))
        Bbar = np.block([[np.ones((1, p)), np.zeros((1, p))],
                         [-np.eye(p), -np.eye(p)]])
        Ginv = np.linalg.inv(Bbar @ Bbar.T)
        for j in range(prob.N):
            sl = prob.y_slice(j)
            assert np.max(np.abs(dinv[sl, sl] - Ginv)) <= 1e-12
    _report(2, "SMW and facility-location inverse correctness", t0, limit=5)


def test_03_moreau_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)

    def rand_fun(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            return Zero(n)
        if kind == 1:
            return DiagQuadratic(rng.uniform(0.0, 2.0, n))
        if kind == 2:
            M = rng.normal(size=(n, n))
            return DenseQuadratic(M @ M.T + 0.1 * np.eye(n))
        return IndicatorCone(NonnegOrthant(n))

    def fun_value(f, x):
        if isinstance(f, IndicatorCone):
            return 0.0
        return f.value(x)

    for _ in range(1000):
        n = int(rng.integers(1, 7))
        f = rand_fun(n)
        t = float(rng.uniform(0.05, 5.0))
        x = rng.normal(size=n) * 3
        p1 = prox(f, t, x)
        p2 = prox_conjugate(f, t, x / t)
        assert np.linalg.norm(p1 + t * p2 - x) <= 1e-12 * (1 + np.linalg.norm(x))
        m_tf = t * fun_value(f, p1) + 0.5 * np.linalg.norm(x - p1) ** 2
        fstar = conjugate_value(f, p2, feas_tol=1e-7)
        assert np.isfinite(fstar)
        m_conj = fstar / t + 0.5 * np.linalg.norm(x / t - p2) ** 2
        assert abs(0.5 * np.linalg.norm(x) ** 2 - (m_tf + t ** 2 * m_conj)) \
            <= 1e-10 * (1 + np.linalg.norm(x) ** 2)

    cones = [NonnegOrthant(6), Box(-np.ones(6), np.ones(6)), FreeSpace(6),
             PsdCone(3), NonnegSymMatrices(3)]
    for K in cones:
        for _ in range(50):
            x = rng.normal(size=K.dim) * 3
            y = rng.normal(size=K.dim) * 3
            px = project_cone(K, x)
            assert np.linalg.norm(project_cone(K, px) - px) <= 1e-12
            assert (np.linalg.norm(px - project_cone(K, y))
                    <= np.linalg.norm(x - y) + 1e-12)
    K = PsdCone(4)
    for _ in range(50):
        X = rng.normal(size=(4, 4))
        x = svec(X + X.T)
        px = project_cone(K, x)
        assert abs((x - px) @ px) <= 1e-10
        assert np.linalg.eigvalsh(smat(x - px, 4))[-1] <= 1e-10
    _report(3, "Moreau identity suite (1000 draws)", t0, limit=10)


def test_04_kkt_residual_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    prob = make_two_scenario_lp()
    for _ in range(100):
        point, dual = random_state(rng, prob)
        res = kkt_residues(prob, point, dual)
        oracle = kkt_oracle(prob, point, dual)
        got = (res.eta_P, res.eta_D, res.eta_K, res.eta_theta, res.eta_Pbar,
               res.eta_Dbar, res.eta_Kbar, res.eta_thetabar, res.eta)
        assert np.allclose(got, oracle, rtol=1e-14, atol=1e-14)
    # analytic optimum of min{x : x >= 1} stated with one scenario row
    blocks = [ScenarioBlock(np.array([[1.0]]), np.array([[1.0]]),
                            np.array([2.0]), np.array([1.0]),
                            NonnegOrthant(1), Zero(1))]
    toy = DBAProblem(None, None, np.array([1.0]), NonnegOrthant(1), Zero(1),
                     blocks)
    point = PrimalPoint(np.array([1.0]), [np.array([1.0])])
    dual = DualPoint(y=np.zeros(0), ybar=np.array([1.0]), z=np.array([0.0]),
                     zbar=np.array([0.0]), v=np.zeros(1), vbar=np.zeros(1))
    assert kkt_residues(toy, point, dual).eta == 0.0
    _report(4, "KKT residual oracle (100 states)", t0)


def test_05_solver_correctness_on_toys():
    t0 = time.perf_counter()
    lp = make_two_scenario_lp()
    E, f, cost = lp_standard_form(lp)
    opt, _ = lp_vertex_optimum(E, f, cost)

    r_admm = admm_solve(lp, SolverConfig(tol_kkt=1e-8, tol_gap=1e-8))
    r_alm = alm_solve(lp, SolverConfig(tol_kkt=1e-8, tol_gap=1e-8))
    r_pha = pha_solve(lp, PhaConfig(tol_nonant=1e-8, tol_rel=1e-8))
    for rep in (r_admm, r_alm, r_pha):
        assert rep.kkt.eta <= 1e-5 and rep.kkt.eta_gap <= 1e-4
        assert abs(rep.obj_p - opt) <= 1e-6 * (1 + abs(opt))

    qp = make_free_qp()
    obj, _ = qp_kkt_solve(qp)
    r_qp = admm_solve(qp, SolverConfig(tol_kkt=1e-8, tol_gap=1e-8))
    assert r_qp.converged
    assert abs(r_qp.obj_p - obj) <= 1e-5 * (1 + abs(obj))
    _report(5, "solver correctness on toys (3 solvers + QP)", t0, limit=60)


def test_06_ssn_variant_equivalence():
    t0 = time.perf_counter()
    from dbasolve.builders import random_two_stage

    prob = random_two_stage(4, 10, 2, 3, 100, seed=11)
    r_on = alm_solve(prob, SolverConfig(ssn="on"))
    r_off = alm_solve(prob, SolverConfig(ssn="off"))
    assert r_on.converged and r_off.converged
    assert r_on.extra["ssn"] and not r_off.extra["ssn"]
    assert abs(r_on.obj_p - r_off.obj_p) <= 1e-5 * (1 + abs(r_off.obj_p))

    rng = np.random.default_rng(106)
    for _ in range(10):
        m, n = 3, 6
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.0, 1.0, n)
        chat = rng.normal(size=n)
        sigma = float(rng.uniform(0.3, 3.0))
        y, z, _ = ssn_zy(A, b, NonnegOrthant(n), sigma, chat, tol=1e-12)
        yo, zo = ssn_oracle(A, b, sigma, chat)
        val = lambda yy, zz: (-b @ yy + 0.5 * sigma
                              * np.linalg.norm(zz + A.T @ yy - chat) ** 2)
        assert abs(val(y, z) - val(yo, zo)) <= 1e-8 * (1 + abs(val(yo, zo)))
        assert np.linalg.norm(z - zo) <= 1e-8 * (1 + np.linalg.norm(zo))
    _report(6, "semismooth-Newton variant equivalence", t0)


def test_07_ufl_relaxation_bound():
    t0 = time.perf_counter()
    for seed in range(20):
        inst = random_ufl(3, 4, seed, quadratic=(seed % 2 == 0))
        prob = build_ufl_dnn(inst)
        # tight solve: several relaxations are exact, so the objective has to
        # be resolved well below the bound's 1e-6 slack
        rep = admm_solve(prob, SolverConfig(tol_kkt=1e-8, tol_gap=1e-8))
        assert rep.converged, "seed %d did not converge" % seed
        ip = ufl_integer_optimum(inst)
        assert rep.obj_p <= ip + 1e-6 * (1 + abs(ip)), \
            "seed %d: relaxation %.8g above integer optimum %.8g" % (
                seed, rep.obj_p, ip)
    _report(7, "facility-relaxation lower bound (20 instances)", t0, limit=60)


def test_08_named_instance_spot_check():
    t0 = time.perf_counter()
    data_dir = os.environ.get("DBA_DATA_DIR", os.path.join(
        os.path.dirname(__file__), "data"))
    path = os.path.join(data_dir, "phone_1.json")
    if not os.path.exists(path):
        print("ACCEPTANCE 08 named instance phone_1: SKIPPED "
              "(place the converted instance at %s or set DBA_DATA_DIR)" % path)
        pytest.skip("phone_1 data file not present at %s" % path)
    prob = read_problem(path)
    assert (prob.m0, prob.n0, prob.N) == (1, 9, 1)
    rep = admm_solve(prob, SolverConfig())
    assert rep.converged
    assert abs(rep.obj_p - 3.69e1) <= 1e-3 * 3.69e1
    _report(8, "named instance phone_1", t0)


def test_09_determinism_across_workers():
    t0 = time.perf_counter()
    lp = make_two_scenario_lp()
    texts = []
    for threads in (1, 2, 4):
        rep = admm_solve(lp, SolverConfig(threads=threads))
        texts.append(iteration_csv_text(LOG_COLUMNS, rep.log_rows))
    assert texts[0] == texts[1] == texts[2]
    _report(9, "determinism across 1/2/4 workers", t0)


def test_10_block_diagonalizing_terms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    for N in (2, 4, 6):
        blocks = []
        n0 = 7
        for _ in range(N):
            mi = int(rng.integers(2, 5))
            B = rng.normal(size=(mi, n0))
            Bbar = rng.normal(size=(mi, mi + 2))
            blocks.append(ScenarioBlock(B, Bbar, np.zeros(mi),
                                        np.zeros(mi + 2), NonnegOrthant(mi + 2),
                                        Zero(mi + 2)))
        prob = DBAProblem(None, None, np.zeros(n0), NonnegOrthant(n0),
                          Zero(n0), blocks)
        J_ebj = ebj_block_diag_J(prob)
        J_std = std_block_diag_J(prob)
        assert np.linalg.eigvalsh(J_ebj)[0] >= -1e-8
        assert np.linalg.eigvalsh(J_std)[0] >= -1e-8
        for variant, J in (("ebj", J_ebj), ("std", J_std)):
            block = build_msolver(prob, "block-diag", jbar=variant)
            direct = build_msolver(prob, "chol", jbar=J)
            h = rng.normal(size=prob.mbar)
            ya = block.solve(h)
            yb = direct.solve(h)
            assert np.linalg.norm(ya - yb) <= 1e-8 * (1 + np.linalg.norm(yb))
    _report(10, "block-diagonalizing proximal terms", t0)
