import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import dbasolve.blocklinalg as blocklinalg
import dbasolve.model as model
from dbasolve.blocklinalg import smat, svec
from dbasolve.builders import (build_ufl_dnn, random_sdp, random_two_stage,
                               random_ufl)
from dbasolve.errors import DbaError, DimensionMismatch, NonFiniteData
from dbasolve.model import (DBAProblem, DualPoint, PrimalPoint, ScenarioBlock,
                            dual_objective, kkt_residues, primal_objective,
                            validate, zero_dual, zero_primal)
from dbasolve.pha import _bundle
from dbasolve.proxcone import (BlockCone, BlockFunction, Box, DenseQuadratic,
                               DiagQuadratic, FreeSpace, IndicatorCone,
                               NonnegOrthant, NonnegSymMatrices, PsdCone, Zero)

from conftest import make_free_qp, make_two_scenario_lp


# --- independent straight-line evaluation of the residue formulas ---------

def _oracle_project(cone, x):
    if isinstance(cone, (NonnegOrthant, NonnegSymMatrices)):
        return np.maximum(x, 0.0)
    if isinstance(cone, FreeSpace):
        return x
    if isinstance(cone, Box):
        return np.minimum(np.maximum(x, cone.lower), cone.upper)
    if isinstance(cone, PsdCone):
        out = []
        for xj in np.split(x, cone.k):
            w, V = np.linalg.eigh(smat(xj, cone.d))
            out.append(svec((V * np.maximum(w, 0.0)) @ V.T))
        return np.concatenate(out)
    raise AssertionError


def _oracle_prox(f, x):
    if isinstance(f, Zero):
        return x
    if isinstance(f, DiagQuadratic):
        return x / (1.0 + f.diag)
    if isinstance(f, DenseQuadratic):
        return np.linalg.solve(np.eye(f.dim) + f.Q, x)
    if isinstance(f, IndicatorCone):
        return _oracle_project(f.cone, x)
    raise AssertionError


def kkt_oracle(problem, point, dual):
    dense = lambda M: np.asarray(M.todense()) if hasattr(M, "todense") else M
    x = point.x
    xbar = np.concatenate(point.xbar)
    norm = np.linalg.norm
    if problem.A is not None:
        Ad = dense(problem.A)
        eta_P = norm(Ad @ x - problem.b) / (1 + norm(problem.b))
        Aty = Ad.T @ dual.y
    else:
        eta_P = 0.0
        Aty = 0.0
    Bd = np.vstack([dense(s.B) for s in problem.scenarios])
    Bbar_blocks = [dense(s.Bbar) for s in problem.scenarios]
    Bty = Bd.T @ dual.ybar
    eta_D = norm(Aty + Bty + dual.z + dual.v - problem.c) / (1 + norm(problem.c))
    eta_K = norm(x - _oracle_project(problem.cone, x - dual.z)) / (
        1 + norm(x) + norm(dual.z))
    eta_th = norm(x - _oracle_prox(problem.theta, x - dual.v)) / (
        1 + norm(x) + norm(dual.v))

    bbar = np.concatenate([s.bbar for s in problem.scenarios])
    cbar = np.concatenate([s.cbar for s in problem.scenarios])
    pr = []
    dr = []
    kr = []
    tr = []
    roff = 0
    coff = 0
    for i, s in enumerate(problem.scenarios):
        xb = point.xbar[i]
        yb = dual.ybar[roff:roff + s.m]
        zb = dual.zbar[coff:coff + s.n]
        vb = dual.vbar[coff:coff + s.n]
        pr.append(dense(s.B) @ x + Bbar_blocks[i] @ xb - s.bbar)
        dr.append(Bbar_blocks[i].T @ yb + zb + vb - s.cbar)
        kr.append(xb - _oracle_project(s.cone, xb - zb))
        tr.append(xb - _oracle_prox(s.theta, xb - vb))
        roff += s.m
        coff += s.n
    eta_Pb = norm(np.concatenate(pr)) / (1 + norm(bbar))
    eta_Db = norm(np.concatenate(dr)) / (1 + norm(cbar))
    eta_Kb = norm(np.concatenate(kr)) / (1 + norm(xbar) + norm(dual.zbar))
    eta_tb = norm(np.concatenate(tr)) / (1 + norm(xbar) + norm(dual.vbar))
    eta = max(eta_P, eta_D, 0.2 * eta_K, 0.2 * eta_th, eta_Pb, eta_Db,
              0.2 * eta_Kb, 0.2 * eta_tb)
    return (eta_P, eta_D, eta_K, eta_th, eta_Pb, eta_Db, eta_Kb, eta_tb, eta)


def random_state(rng, problem):
    point = PrimalPoint(rng.normal(size=problem.n0),
                        [rng.normal(size=n) for n in problem.n_i])
    dual = DualPoint(
        y=rng.normal(size=problem.m0), ybar=rng.normal(size=problem.mbar),
        z=rng.normal(size=problem.n0), zbar=rng.normal(size=problem.nbar),
        v=rng.normal(size=problem.n0), vbar=rng.normal(size=problem.nbar))
    return point, dual


class TestValidate:
    def test_well_formed(self):
        assert validate(make_two_scenario_lp()) == []

    def test_bad_block_length(self):
        prob = make_two_scenario_lp()
        bad = ScenarioBlock(prob.scenarios[1].B, prob.scenarios[1].Bbar,
                            np.zeros(5), prob.scenarios[1].cbar,
                            prob.scenarios[1].cone, prob.scenarios[1].theta)
        broken = DBAProblem(prob.A, prob.b, prob.c, prob.cone, prob.theta,
                            [prob.scenarios[0], bad])
        with pytest.raises(DimensionMismatch, match="block 1"):
            validate(broken)

    @staticmethod
    def loop_reference(problem):
        """The first block misfit, checked scenario by scenario."""
        for i, s in enumerate(problem.scenarios):
            for bad, text in (
                    (s.B.shape[1] != problem.n0, "B has %d columns, "
                     "expected n0=%d" % (s.B.shape[1], problem.n0)),
                    (s.B.shape[0] != s.Bbar.shape[0], "B has %d rows but "
                     "Bbar has %d" % (s.B.shape[0], s.Bbar.shape[0])),
                    (s.bbar.size != s.m, "bbar has length %d, expected %d"
                     % (s.bbar.size, s.m)),
                    (s.cbar.size != s.n, "cbar has length %d, expected %d"
                     % (s.cbar.size, s.n)),
                    (s.cone.dim != s.n, "cone dim %d does not match n_i=%d"
                     % (s.cone.dim, s.n)),
                    (s.theta.dim != s.n, "theta dim %d does not match "
                     "n_i=%d" % (s.theta.dim, s.n))):
                if bad:
                    return "block %d: %s" % (i, text)
        return None

    @pytest.mark.parametrize("misfits", [
        {1: ("bbar",)}, {1: ("cbar",)}, {0: ("cone",)}, {1: ("theta",)},
        {1: ("cone", "bbar")}, {0: ("theta",), 1: ("bbar",)}, {}])
    def test_block_checks_match_a_scenario_loop(self, misfits):
        prob = make_two_scenario_lp()
        scens = []
        for i, s in enumerate(prob.scenarios):
            bad = misfits.get(i, ())
            scens.append(ScenarioBlock(
                s.B, s.Bbar, np.zeros(5) if "bbar" in bad else s.bbar,
                np.zeros(4) if "cbar" in bad else s.cbar,
                NonnegOrthant(2) if "cone" in bad else s.cone,
                Zero(7) if "theta" in bad else s.theta))
        broken = DBAProblem(prob.A, prob.b, prob.c, prob.cone, prob.theta,
                            scens)
        want = self.loop_reference(broken)
        if want is None:
            assert validate(broken) == []
        else:
            with pytest.raises(DimensionMismatch) as info:
                validate(broken)
            assert str(info.value) == want

    def test_rank_deficiency_warning(self):
        A = np.array([[1.0, 2.0], [1.0, 2.0]])
        prob = make_two_scenario_lp()
        dup = DBAProblem(A, np.array([1.0, 1.0]), prob.c, prob.cone,
                         prob.theta, prob.scenarios)
        warns = validate(dup)
        assert any("rank deficient" in w for w in warns)


def _with_entry(problem, name, value, sparse=False):
    """Rebuild ``problem`` with one entry of the array ``name`` set to
    ``value`` (``B``/``Bbar``/``bbar``/``cbar`` in the last scenario)."""
    A, b, c = problem.A, problem.b, problem.c.copy()
    scens = list(problem.scenarios)
    last = scens[-1]
    parts = {"B": np.array(last.B, dtype=float),
             "Bbar": np.array(last.Bbar, dtype=float),
             "bbar": last.bbar.copy(), "cbar": last.cbar.copy()}
    if name == "A":
        A = np.array(A, dtype=float)
        A[0, -1] = value
        A = sp.csr_matrix(A) if sparse else A
    elif name == "b":
        b = b.copy()
        b[-1] = value
    elif name == "c":
        c[0] = value
    else:
        parts[name].flat[-1] = value
        if sparse and name in ("B", "Bbar"):
            parts[name] = sp.csr_matrix(parts[name])
    scens[-1] = ScenarioBlock(parts["B"], parts["Bbar"], parts["bbar"],
                              parts["cbar"], last.cone, last.theta)
    return DBAProblem(A, b, c, problem.cone, problem.theta, scens)


class TestNonFiniteData:
    NAMES = ("c", "b", "cbar", "bbar", "A", "B", "Bbar")

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejected_and_named(self, name, value):
        broken = _with_entry(make_free_qp(N=3), name, value)
        with pytest.raises(NonFiniteData, match=r"in %s$" % name) as info:
            validate(broken, rank_check=False)
        assert isinstance(info.value, DbaError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("name", ("A", "B", "Bbar"))
    def test_sparse_operators_rejected(self, name):
        broken = _with_entry(make_free_qp(N=3), name, np.nan, sparse=True)
        with pytest.raises(NonFiniteData, match=name):
            validate(broken)

    def test_finite_data_pass(self):
        for name in self.NAMES:
            assert validate(_with_entry(make_free_qp(N=3), name, 7.0),
                            rank_check=False) == []

    def test_check_count_independent_of_scenarios(self, monkeypatch):
        # whole stacked vectors and assembled operators, not a scenario loop:
        # c, b, cbar, bbar and A in validate, B and Bbar in their operators
        calls = []
        real = blocklinalg.all_finite

        def counted(arr):
            calls.append(1)
            return real(arr)

        monkeypatch.setattr(model, "all_finite", counted)
        monkeypatch.setattr(blocklinalg, "all_finite", counted)
        counts = []
        for N in (2, 40):
            calls.clear()
            validate(make_free_qp(N=N), rank_check=False)
            counts.append(len(calls))
        assert counts == [7, 7]


class TestWithCost:
    def test_shares_everything_but_the_cost(self):
        prob = make_two_scenario_lp()
        c_before = prob.c.copy()
        other = prob.with_cost(prob.c + 1.0)
        assert np.array_equal(other.c, c_before + 1.0)
        assert np.array_equal(prob.c, c_before)
        for attr in ("A", "b", "B", "Bbar", "cbar", "bbar", "scenarios",
                     "meta", "cone", "theta"):
            assert getattr(other, attr) is getattr(prob, attr)
        assert validate(other) == []

    def test_shares_the_joint_operator(self):
        prob = make_two_scenario_lp()
        other = prob.with_cost(prob.c + 1.0)
        assert other.W is prob.W and other.W_T is prob.W_T
        assert np.array_equal(other.cc, np.concatenate((prob.c + 1.0,
                                                        prob.cbar)))
        assert np.array_equal(prob.cc, np.concatenate((prob.c, prob.cbar)))

    def test_wrong_length_rejected(self):
        prob = make_two_scenario_lp()
        with pytest.raises(DimensionMismatch):
            prob.with_cost(np.zeros(prob.n0 + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost_rejected(self, bad):
        prob = make_two_scenario_lp()
        cost = prob.c.copy()
        cost[0] = bad
        with pytest.raises(NonFiniteData, match="NaN or Inf in c"):
            prob.with_cost(cost)


class TestObjectives:
    def test_zero_point(self):
        prob = make_two_scenario_lp()
        prob2 = DBAProblem(prob.A, prob.b, np.zeros(prob.n0), prob.cone,
                           prob.theta,
                           [ScenarioBlock(s.B, s.Bbar, s.bbar,
                                          np.zeros(s.n), s.cone, s.theta)
                            for s in prob.scenarios])
        assert primal_objective(prob2, zero_primal(prob2)) == 0.0

    def test_small_quadratic_term(self):
        # theta(x) = (0.1/2)||x||^2 evaluated at the all-ones point of dim 2
        prob = make_two_scenario_lp()
        q = DiagQuadratic(0.1 * np.ones(2))
        prob2 = DBAProblem(prob.A, prob.b, np.zeros(2), prob.cone, q,
                           [ScenarioBlock(s.B, s.Bbar, s.bbar, np.zeros(s.n),
                                          s.cone, s.theta)
                            for s in prob.scenarios])
        point = PrimalPoint(np.ones(2), [np.zeros(3), np.zeros(3)])
        assert primal_objective(prob2, point) == pytest.approx(0.1)

    def test_matches_direct_expression(self):
        rng = np.random.default_rng(0)
        prob = make_two_scenario_lp()
        point, _ = random_state(rng, prob)
        expect = prob.c @ point.x + sum(
            s.cbar @ xb for s, xb in zip(prob.scenarios, point.xbar))
        assert primal_objective(prob, point) == pytest.approx(expect, rel=1e-14)

    def test_dual_zero_point(self):
        prob = make_two_scenario_lp()
        prob2 = DBAProblem(prob.A, np.zeros(1), prob.c, prob.cone, prob.theta,
                           prob.scenarios)
        d = zero_dual(prob2)
        d.ybar = np.zeros(prob2.mbar)
        val = dual_objective(prob2, d)
        assert val == pytest.approx(-sum(s.bbar @ np.zeros(s.m)
                                         for s in prob2.scenarios))

    def test_polar_violation_sentinel(self):
        prob = make_two_scenario_lp()
        d = zero_dual(prob)
        d.z = np.array([-1.0, 0.0])   # -z has a positive entry on the orthant
        assert dual_objective(prob, d) == -np.inf

    def test_weak_duality_lp(self):
        # crafted feasible primal/dual pair on min x s.t. x >= 1
        A = np.array([[1.0]])
        blocks = [ScenarioBlock(np.array([[1.0]]), np.array([[1.0]]),
                                np.array([2.0]), np.array([0.0]),
                                NonnegOrthant(1), Zero(1))]
        prob = DBAProblem(A, np.array([1.0]), np.array([1.0]),
                          NonnegOrthant(1), Zero(1), blocks)
        point = PrimalPoint(np.array([1.0]), [np.array([1.0])])
        dual = DualPoint(y=np.array([0.5]), ybar=np.array([0.0]),
                         z=np.array([0.5]), zbar=np.array([0.0]),
                         v=np.zeros(1), vbar=np.zeros(1))
        assert dual_objective(prob, dual) <= primal_objective(prob, point) + 1e-10


class TestKktResidues:
    def test_analytic_optimum_is_zero(self):
        # min x s.t. x = 1 (via scenario row), x >= 0: optimum x = 1, z = 0,
        # ybar = 1 solves the dual constraint ybar + z = c = 1
        blocks = [ScenarioBlock(np.array([[1.0]]), np.array([[1.0]]),
                                np.array([2.0]), np.array([1.0]),
                                NonnegOrthant(1), Zero(1))]
        prob = DBAProblem(None, None, np.array([1.0]), NonnegOrthant(1),
                          Zero(1), blocks)
        point = PrimalPoint(np.array([1.0]), [np.array([1.0])])
        dual = DualPoint(y=np.zeros(0), ybar=np.array([1.0]),
                         z=np.array([0.0]), zbar=np.array([0.0]),
                         v=np.zeros(1), vbar=np.zeros(1))
        res = kkt_residues(prob, point, dual)
        assert res.eta <= 1e-14
        assert res.eta_gap <= 1e-14

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(1)
        prob = make_two_scenario_lp()
        for _ in range(100):
            point, dual = random_state(rng, prob)
            res = kkt_residues(prob, point, dual)
            oracle = kkt_oracle(prob, point, dual)
            got = (res.eta_P, res.eta_D, res.eta_K, res.eta_theta,
                   res.eta_Pbar, res.eta_Dbar, res.eta_Kbar,
                   res.eta_thetabar, res.eta)
            assert np.allclose(got, oracle, rtol=1e-14, atol=1e-14)

    def test_block_permutation_invariance(self):
        rng = np.random.default_rng(2)
        prob = make_two_scenario_lp()
        point, dual = random_state(rng, prob)
        res = kkt_residues(prob, point, dual)

        perm = DBAProblem(prob.A, prob.b, prob.c, prob.cone, prob.theta,
                          [prob.scenarios[1], prob.scenarios[0]])
        point_p = PrimalPoint(point.x, [point.xbar[1], point.xbar[0]])
        swap = lambda vec, offs: np.concatenate([vec[offs[1]:offs[2]],
                                                 vec[offs[0]:offs[1]]])
        dual_p = DualPoint(
            y=dual.y, ybar=swap(dual.ybar, prob.y_offsets),
            z=dual.z, zbar=swap(dual.zbar, prob.x_offsets),
            v=dual.v, vbar=swap(dual.vbar, prob.x_offsets))
        res_p = kkt_residues(perm, point_p, dual_p)
        for k, vk in res.as_dict().items():
            assert vk == pytest.approx(getattr(res_p, k), abs=1e-14)

    def test_a_absent(self):
        blocks = [ScenarioBlock(np.array([[1.0]]), np.array([[1.0]]),
                                np.array([1.0]), np.array([1.0]),
                                NonnegOrthant(1), Zero(1))]
        prob = DBAProblem(None, None, np.array([0.0]), NonnegOrthant(1),
                          Zero(1), blocks)
        rng = np.random.default_rng(3)
        point, dual = random_state(rng, prob)
        res = kkt_residues(prob, point, dual)
        assert res.eta_P == 0.0


class TestScenarioRankWarning:
    def test_duplicate_scenario_rows_warn(self):
        rng = np.random.default_rng(9)
        B = rng.normal(size=(1, 2))
        Bbar = rng.normal(size=(1, 3))
        dup = ScenarioBlock(np.vstack([B, B]), np.vstack([Bbar, Bbar]),
                            np.zeros(2), np.zeros(3), NonnegOrthant(3),
                            Zero(3))
        prob = DBAProblem(None, None, np.zeros(2), NonnegOrthant(2), Zero(2),
                          [dup])
        warns = validate(prob)
        assert any("rank deficient" in w for w in warns)


def _no_a_problem():
    blocks = [ScenarioBlock(np.array([[1.0]]), np.array([[1.0]]),
                            np.array([2.0]), np.array([1.0]),
                            NonnegOrthant(1), Zero(1))]
    return DBAProblem(None, None, np.array([1.0]), NonnegOrthant(1), Zero(1),
                      blocks)


class TestResidueDenominators:
    @staticmethod
    def recomputed(problem, xx, d_res, d_res_bar):
        """The four residues with every scale recomputed from ``problem``."""
        nrm = np.linalg.norm
        eta_P = 0.0
        if problem.A is not None:
            eta_P = nrm(blocklinalg.mv(problem.A_mv, xx[:problem.n0])
                        - problem.b) / (1.0 + nrm(problem.b))
        p_res = blocklinalg.mv(problem.W, xx) - problem.bbar
        return model.LinearResidues(
            float(eta_P), float(nrm(d_res) / (1.0 + nrm(problem.c))),
            float(nrm(p_res) / (1.0 + nrm(problem.bbar))),
            float(nrm(d_res_bar) / (1.0 + nrm(problem.cbar))))

    @pytest.mark.parametrize("build", [
        make_two_scenario_lp, make_free_qp, _no_a_problem,
        lambda: random_sdp(2, 3, 2, 3, N=3, seed=1)])
    def test_per_solve_denominators_change_no_bit(self, build):
        problem = build()
        rng = np.random.default_rng(7)
        for prob in (problem, problem.with_cost(problem.c + 1.0)):
            point, dual = random_state(rng, prob)
            DD = model.joint_dual_sums(prob, dual.y, dual.ybar, dual.zz,
                                       dual.vv) - prob.cc
            d_res, d_res_bar = DD[:prob.n0], DD[prob.n0:]
            got = model.joint_linear_residues(
                prob, point.xx, d_res, d_res_bar,
                model.residue_denominators(prob))
            want = self.recomputed(prob, point.xx, d_res, d_res_bar)
            assert got == want
            res = kkt_residues(prob, point, dual)
            assert (res.eta_P, res.eta_D, res.eta_Pbar, res.eta_Dbar) == want


# --- the joint operator W = [B Bbar] on x|xbar --------------------------------

def _random_block(rng, m, n, sparse):
    if sparse:
        return sp.random(m, n, density=0.2, format="csr", random_state=rng,
                         data_rvs=rng.standard_normal)
    return rng.normal(size=(m, n))


def joint_problem(rng, N, n0, shared, sparse, empty, with_a):
    """Random blocks, dense or sparse (large sparse ones stay CSR), with
    ``shared`` B_i and every third scenario without rows when ``empty``."""
    B0 = _random_block(rng, 3, n0, sparse)
    blocks = []
    for i in range(N):
        m = 0 if empty and i % 3 == 1 else 3
        n = int(rng.integers(1, 6))
        B = B0 if shared and m else _random_block(rng, m, n0, sparse)
        blocks.append(ScenarioBlock(B, _random_block(rng, m, n, sparse),
                                    rng.normal(size=m), rng.normal(size=n),
                                    NonnegOrthant(n), Zero(n)))
    A = b = None
    if with_a:
        A = _random_block(rng, 2, n0, sparse)
        b = rng.normal(size=2)
    return DBAProblem(A, b, rng.normal(size=n0), NonnegOrthant(n0), Zero(n0),
                      blocks)


def _assert_products_agree(prob, rng):
    """``W xx`` and ``W* ybar`` against the separate block products, each
    entry within 1e-13 of its sum of absolute terms (two roundings of at
    most a few hundred terms)."""
    x = rng.normal(size=prob.n0)
    xbar = rng.normal(size=prob.nbar)
    ybar = rng.normal(size=prob.mbar)
    B, Bbar = prob.B, prob.Bbar
    absB, absBbar = abs(B.matrix), abs(Bbar.matrix)
    got = blocklinalg.mv(prob.W, np.concatenate((x, xbar)))
    want = B.apply(x) + Bbar.apply(xbar)
    scale = (blocklinalg.mv(absB, np.abs(x))
             + blocklinalg.mv(absBbar, np.abs(xbar)))
    assert got.shape == (prob.mbar,)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    got = blocklinalg.mv(prob.W_T, ybar)
    want = np.concatenate((B.apply_adjoint(ybar), Bbar.apply_adjoint(ybar)))
    scale = np.concatenate((blocklinalg.mv(absB.T, np.abs(ybar)),
                            blocklinalg.mv(absBbar.T, np.abs(ybar))))
    assert got.shape == (prob.n0 + prob.nbar,)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


class TestJointOperator:
    @settings(max_examples=40, deadline=None)
    @given(N=st.sampled_from([1, 3, 60]), n0=st.sampled_from([0, 1, 4, 40]),
           shared=st.booleans(), sparse=st.booleans(), empty=st.booleans(),
           with_a=st.booleans(), seed=st.integers(0, 2**16))
    def test_matches_block_products(self, N, n0, shared, sparse, empty,
                                    with_a, seed):
        rng = np.random.default_rng(seed)
        prob = joint_problem(rng, N, n0, shared, sparse, empty,
                             with_a and n0 > 0)
        dense = (isinstance(prob.B.matrix, np.ndarray)
                 and isinstance(prob.Bbar.matrix, np.ndarray))
        assert isinstance(prob.W, np.ndarray) or not dense
        assert prob.W.shape == (prob.mbar, prob.n0 + prob.nbar)
        _assert_products_agree(prob, rng)

    @pytest.mark.parametrize("build", [
        lambda: _bundle(random_two_stage(3, 8, 4, 8, N=12, seed=1,
                                         quad_eps=0.1), 10.0),
        lambda: _bundle(random_two_stage(2, 4, 2, 4, N=3, seed=2), 10.0),
        lambda: random_two_stage(5, 20, 5, 15, N=120, seed=1),
        lambda: random_sdp(3, 6, 3, 6, N=4, seed=1),
        make_two_scenario_lp, _no_a_problem])
    def test_builders_and_pha_bundle(self, build):
        _assert_products_agree(build(), np.random.default_rng(3))

    def test_storage(self):
        # both blocks dense: one dense hstack; a CSR block: CSR kept
        sdp = random_sdp(3, 6, 3, 6, N=4, seed=1)
        assert isinstance(sdp.W, np.ndarray)
        lp = random_two_stage(5, 20, 5, 15, N=120, seed=1)
        assert sp.issparse(lp.Bbar.matrix) and type(lp.W) is sp.csr_matrix
        assert type(lp.W_T) is sp.csr_matrix


# --- kkt_full against a dense, block-by-block oracle ------------------------

_FEAS_TOL = 1e-8


def _dense(mat):
    return np.asarray(mat.todense()) if sp.issparse(mat) else np.asarray(mat)


def _pieces(f, x):
    """``(leaf, part of x)`` for each leaf cone or function of ``f``, every
    :class:`BlockCone` and :class:`BlockFunction` unnested."""
    if not isinstance(f, (BlockCone, BlockFunction)):
        return [(f, x)]
    ends = np.cumsum([b.dim for b in f.blocks])
    assert ends[-1] == x.size
    return [leaf for b, xb in zip(f.blocks, np.split(x, ends[:-1]))
            for leaf in _pieces(b, xb)]


def _blockwise(f, x, fn):
    return np.concatenate([fn(leaf, xb) for leaf, xb in _pieces(f, x)])


def _oracle_value(f, x):
    if isinstance(f, (Zero, IndicatorCone)):
        return 0.0
    if isinstance(f, DiagQuadratic):
        return 0.5 * float(np.sum(f.diag * x * x))
    if isinstance(f, DenseQuadratic):
        return 0.5 * float(x @ f.Q @ x)
    raise AssertionError


def _oracle_support(cone, w):
    tol = _FEAS_TOL * (1.0 + np.linalg.norm(w))
    if isinstance(cone, (NonnegOrthant, NonnegSymMatrices)):
        feasible = w.size == 0 or np.max(w) <= tol
    elif isinstance(cone, FreeSpace):
        feasible = np.linalg.norm(w) <= tol
    elif isinstance(cone, PsdCone):
        feasible = all(
            np.linalg.eigvalsh(smat(wj, cone.d))[-1]
            <= _FEAS_TOL * (1.0 + np.linalg.norm(wj))
            for wj in np.split(w, cone.k))
    else:
        raise AssertionError
    return 0.0 if feasible else np.inf


def _oracle_conjugate(f, w):
    if isinstance(f, IndicatorCone):
        return _oracle_support(f.cone, w)
    if isinstance(f, Zero):
        return 0.0 if np.linalg.norm(w) <= _FEAS_TOL else np.inf
    if isinstance(f, DiagQuadratic):
        pos = f.diag > 0
        if np.any(np.abs(w[~pos]) > _FEAS_TOL):
            return np.inf
        return 0.5 * float(np.sum(w[pos] ** 2 / f.diag[pos]))
    if isinstance(f, DenseQuadratic):
        return 0.5 * float(w @ np.linalg.solve(f.Q, w))
    raise AssertionError


def _oracle_sum(f, x, fn):
    return sum(fn(leaf, xb) for leaf, xb in _pieces(f, x))


def kkt_dense_oracle(problem, point, dual):
    """Every KKT residue, both objectives and ``eta_gap`` at ``(point,
    dual)``, from dense ``A``, ``B_i`` and ``Bbar_i`` and each block's own
    cone and function, first stage and scenario by scenario."""
    norm = np.linalg.norm
    x, xbar = point.x, point.xbar
    ybar = np.split(dual.ybar, problem.y_offsets[1:-1])
    zbar = np.split(dual.zbar, problem.x_offsets[1:-1])
    vbar = np.split(dual.vbar, problem.x_offsets[1:-1])
    out = {}
    obj_p = _oracle_sum(problem.theta, x, _oracle_value) + problem.c @ x
    conj = [_oracle_sum(problem.theta, -dual.v, _oracle_conjugate),
            _oracle_sum(problem.cone, -dual.z, _oracle_support)]
    lin_d = problem.c.copy()
    lin_dual = 0.0
    if problem.A is not None:
        Ad = _dense(problem.A)
        out["eta_P"] = norm(Ad @ x - problem.b) / (1 + norm(problem.b))
        lin_d = lin_d - Ad.T @ dual.y
        lin_dual += problem.b @ dual.y
    else:
        out["eta_P"] = 0.0
    pr, dr, kr, tr = [], [], [], []
    for i, s in enumerate(problem.scenarios):
        B, Bbar = _dense(s.B), _dense(s.Bbar)
        lin_d = lin_d - B.T @ ybar[i]
        pr.append(B @ x + Bbar @ xbar[i] - s.bbar)
        dr.append(Bbar.T @ ybar[i] + zbar[i] + vbar[i] - s.cbar)
        kr.append(xbar[i] - _blockwise(s.cone, xbar[i] - zbar[i],
                                       _oracle_project))
        tr.append(xbar[i] - _blockwise(s.theta, xbar[i] - vbar[i],
                                       _oracle_prox))
        obj_p += _oracle_sum(s.theta, xbar[i], _oracle_value) + s.cbar @ xbar[i]
        conj += [_oracle_sum(s.theta, -vbar[i], _oracle_conjugate),
                 _oracle_sum(s.cone, -zbar[i], _oracle_support)]
        lin_dual += s.bbar @ ybar[i]
    xb = np.concatenate(xbar)
    out["eta_D"] = norm(dual.z + dual.v - lin_d) / (1 + norm(problem.c))
    out["eta_K"] = norm(x - _blockwise(problem.cone, x - dual.z,
                                       _oracle_project)) / (
        1 + norm(x) + norm(dual.z))
    out["eta_theta"] = norm(x - _blockwise(problem.theta, x - dual.v,
                                           _oracle_prox)) / (
        1 + norm(x) + norm(dual.v))
    out["eta_Pbar"] = norm(np.concatenate(pr)) / (1 + norm(problem.bbar))
    out["eta_Dbar"] = norm(np.concatenate(dr)) / (1 + norm(problem.cbar))
    out["eta_Kbar"] = norm(np.concatenate(kr)) / (
        1 + norm(xb) + norm(dual.zbar))
    out["eta_thetabar"] = norm(np.concatenate(tr)) / (
        1 + norm(xb) + norm(dual.vbar))
    out["eta"] = max(out["eta_P"], out["eta_D"], 0.2 * out["eta_K"],
                     0.2 * out["eta_theta"], out["eta_Pbar"], out["eta_Dbar"],
                     0.2 * out["eta_Kbar"], 0.2 * out["eta_thetabar"])
    obj_d = -np.inf if np.isinf(sum(conj)) else lin_dual - sum(conj)
    out["eta_gap"] = (np.inf if np.isinf(obj_d) else
                      abs(obj_p - obj_d) / (1 + abs(obj_p) + abs(obj_d)))
    return out, obj_p, obj_d


def _dual_cone_point(rng, cone):
    """A random point of the dual cone of a leaf ``cone``."""
    if isinstance(cone, (NonnegOrthant, NonnegSymMatrices)):
        return np.abs(rng.normal(size=cone.dim))
    if isinstance(cone, FreeSpace):
        return np.zeros(cone.dim)
    if isinstance(cone, PsdCone):
        return np.concatenate([svec(G @ G.T) for G in
                               rng.normal(size=(cone.k, cone.d, cone.d))])
    raise AssertionError


def _conjugate_domain_point(rng, f):
    """A random ``v`` with ``f*(-v)`` finite, for a leaf function ``f``."""
    if isinstance(f, IndicatorCone):
        return _dual_cone_point(rng, f.cone)
    if isinstance(f, Zero):
        return np.zeros(f.dim)
    if isinstance(f, DiagQuadratic):
        return rng.normal(size=f.dim) * (f.diag > 0)
    if isinstance(f, DenseQuadratic):
        return rng.normal(size=f.dim)
    raise AssertionError


def finite_dual(rng, problem):
    """A random dual whose conjugates are all finite: each ``z`` block in its
    cone's dual cone and each ``-v`` block in its function's conjugate
    domain."""
    def draw(f, fn):
        return np.concatenate([fn(rng, leaf) for leaf, _ in
                               _pieces(f, np.zeros(f.dim))])

    return DualPoint(
        y=rng.normal(size=problem.m0), ybar=rng.normal(size=problem.mbar),
        z=draw(problem.cone, _dual_cone_point),
        zbar=np.concatenate([draw(s.cone, _dual_cone_point)
                             for s in problem.scenarios]),
        v=draw(problem.theta, _conjugate_domain_point),
        vbar=np.concatenate([draw(s.theta, _conjugate_domain_point)
                             for s in problem.scenarios]))


_ORACLE_CASES = {
    "two_scenario_lp": make_two_scenario_lp,
    "free_qp": make_free_qp,
    "no_a": _no_a_problem,
    "sdp": lambda: random_sdp(2, 3, 2, 3, N=3, seed=1),
    "ufl_dnn": lambda: build_ufl_dnn(random_ufl(2, 3, seed=1)),
    "pha_bundle": lambda: _bundle(random_two_stage(2, 4, 2, 4, N=3, seed=2,
                                                   quad_eps=0.1), 10.0),
}


class TestKktFullDenseOracle:
    """``kkt_full`` evaluates x|xbar with the sweep's joint operators; an
    oracle that treats every block on its own, densely, checks it."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
    def test_matches_dense_oracle(self, name):
        problem = _ORACLE_CASES[name]()
        rng = np.random.default_rng(13)
        for k in range(4):
            point, dual = random_state(rng, problem)
            if k:
                dual = finite_dual(rng, problem)
            res, obj_p, obj_d = model.kkt_full(problem, point.xx, dual)
            want, want_p, want_d = kkt_dense_oracle(problem, point, dual)
            assert res == kkt_residues(problem, point, dual)
            assert (obj_p, obj_d) == (primal_objective(problem, point),
                                      dual_objective(problem, dual))
            got = dict(res.as_dict(), obj_p=obj_p, obj_d=obj_d)
            want = dict(want, obj_p=want_p, obj_d=want_d)
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key
            # a random dual leaves some conjugate infinite; the others none
            assert np.isinf(want_d) == (k == 0)
            if k == 0:
                assert obj_d == -np.inf and res.eta_gap == np.inf

    @pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
    def test_one_projection_one_prox_no_block_operator(self, name,
                                                       monkeypatch):
        problem = _ORACLE_CASES[name]()
        point, dual = random_state(np.random.default_rng(5), problem)
        want = model.kkt_full(problem, point.xx, dual)
        calls = []

        def counted(obj, method):
            inner = getattr(obj, method)

            def wrapper(*args):
                calls.append(method)
                return inner(*args)
            monkeypatch.setattr(obj, method, wrapper)

        counted(problem.joint_cone, "project")
        counted(problem.joint_theta, "prox")

        class Forbidden:
            def __getattr__(self, name):
                raise AssertionError("kkt_full read a separate block object")

        for attr in ("B", "Bbar", "cone", "theta", "scen_cone", "scen_theta"):
            monkeypatch.setattr(problem, attr, Forbidden())
        assert model.kkt_full(problem, point.xx, dual) == want
        assert sorted(calls) == ["project", "prox"]
