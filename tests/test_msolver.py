import dataclasses
import traceback
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dbasolve.blocklinalg as blocklinalg
import dbasolve.msolver as msolver
from dbasolve.blocklinalg import CholFactor, chol_factor, mv, to_dense
from dbasolve.builders import (build_ufl_dnn, random_sdp, random_two_stage,
                               random_ufl)
from dbasolve.errors import (NumericalError, ParameterError,
                             StrategyPrecondition)
from dbasolve.model import DBAProblem, ScenarioBlock
from dbasolve.msolver import (assemble_m_dense, auto_strategy, build_msolver,
                              ebj_block_diag_J, m_solve_cost_ns,
                              pairwise_coupling_norms, std_block_diag_J)
from dbasolve.pha import _bundle
from dbasolve.proxcone import NonnegOrthant, Zero
from dbasolve.solvers import (SolverConfig, _msolve_with_tol, admm_solve,
                              solve_setup)

from conftest import (bbar_gram_factors, exactly_positive_definite,
                      same_canonical)


def random_structure(rng, N=5, n0=10, mi_max=8, shared=False, equal=False,
                     bbar_shared=False):
    """Random blocks with ragged row counts; ``equal`` gives every block the
    row count of B_1, ``shared`` repeats B_1 and ``bbar_shared`` Bbar_1."""
    blocks = []
    B0 = rng.normal(size=(int(rng.integers(2, mi_max + 1)), n0))
    m0 = B0.shape[0]
    Bbar0 = rng.normal(size=(m0, m0 + 2)) if bbar_shared else None
    for _ in range(N):
        mi = m0 if shared or equal else int(rng.integers(2, mi_max + 1))
        B = B0 if shared else rng.normal(size=(mi, n0))
        ni = mi + int(rng.integers(1, 4))
        Bbar = Bbar0 if bbar_shared else rng.normal(size=(mi, ni))
        ni = Bbar.shape[1]
        blocks.append(ScenarioBlock(B, Bbar, np.zeros(mi), np.zeros(ni),
                                    NonnegOrthant(ni), Zero(ni)))
    return DBAProblem(None, None, np.zeros(n0), NonnegOrthant(n0), Zero(n0),
                      blocks)


class TestTrivial:
    def test_identity_m(self):
        blocks = [ScenarioBlock(np.zeros((2, 3)), np.eye(2), np.zeros(2),
                                np.zeros(2), NonnegOrthant(2), Zero(2))]
        prob = DBAProblem(None, None, np.zeros(3), NonnegOrthant(3), Zero(3),
                          blocks)
        h = np.array([1.0, -2.0])
        for strategy in ("chol", "smw", "smw-diag", "block-diag"):
            sol = build_msolver(prob, strategy)
            y = sol.solve(h, check_residual=True)
            # strategies add their own proximal term; identity holds for the
            # ones with no term
            if strategy in ("chol", "smw"):
                assert np.allclose(y, h, atol=1e-12)
            assert sol.last_relres <= 1e-9


class TestSmwAgainstDense:
    def test_smw_exact_matches_dense(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            prob = random_structure(rng)
            sol = build_msolver(prob, "smw")
            Md = assemble_m_dense(prob)
            h = rng.normal(size=prob.mbar)
            y = sol.solve(h)
            expect = np.linalg.solve(Md, h)
            assert np.linalg.norm(y - expect) <= 1e-8 * (1 + np.linalg.norm(expect))

    def test_direct_chol_matches_dense(self):
        rng = np.random.default_rng(1)
        prob = random_structure(rng)
        sol = build_msolver(prob, "chol")
        Md = assemble_m_dense(prob)
        h = rng.normal(size=prob.mbar)
        assert np.allclose(sol.solve(h), np.linalg.solve(Md, h), atol=1e-9)

    def test_states_with_matched_jbar_agree(self):
        # strategies with Jbar != 0 solve a different system; comparisons fix
        # the same Jbar on both sides
        rng = np.random.default_rng(2)
        prob = random_structure(rng, N=4, n0=8)
        ebj = ebj_block_diag_J(prob)
        direct = build_msolver(prob, "chol", jbar=ebj)
        block = build_msolver(prob, "block-diag", jbar="ebj")
        h = rng.normal(size=prob.mbar)
        ya = direct.solve(h)
        yb = block.solve(h)
        assert np.linalg.norm(ya - yb) <= 1e-8 * (1 + np.linalg.norm(ya))

    def test_smw_diag_consistent_with_own_m(self):
        rng = np.random.default_rng(3)
        prob = random_structure(rng, N=3, n0=6)
        sol = build_msolver(prob, "smw-diag")
        h = rng.normal(size=prob.mbar)
        y = sol.solve(h, check_residual=True)
        assert sol.last_relres <= 1e-8
        # dense verification of M with the diagonalizing proximal term
        Md = assemble_m_dense(prob)
        for i, s in enumerate(prob.scenarios):
            bb = np.asarray(sp.csr_matrix(s.Bbar).todense())
            gram = bb @ bb.T
            lam = np.linalg.eigvalsh(gram)[-1]
            sl = prob.y_slice(i)
            Md[sl, sl] += lam * np.eye(s.m) - gram
        assert np.linalg.norm(Md @ y - h) <= 1e-7 * (1 + np.linalg.norm(h))

    def test_pcg_path(self, monkeypatch):
        # G of any order above _G_CHOL_DIM is solved by PCG
        monkeypatch.setattr(msolver, "_G_CHOL_DIM", 0)
        rng = np.random.default_rng(4)
        prob = random_structure(rng)
        sol = build_msolver(prob, "smw")
        h = rng.normal(size=prob.mbar)
        y = sol.solve(h, tol=1e-12, check_residual=True)
        assert sol.last_relres <= 1e-9
        assert sol.last_inner_iters > 0


class TestBlockDiagJ:
    def test_ebj_psd(self):
        rng = np.random.default_rng(5)
        for N in (2, 4, 6):
            prob = random_structure(rng, N=N, n0=7)
            J = ebj_block_diag_J(prob)
            assert np.linalg.eigvalsh(J)[0] >= -1e-8

    def test_std_psd_and_single_block(self):
        rng = np.random.default_rng(6)
        prob = random_structure(rng, N=3, n0=7)
        J = std_block_diag_J(prob)
        assert np.linalg.eigvalsh(J)[0] >= -1e-8
        single = random_structure(rng, N=1, n0=5)
        Js = std_block_diag_J(single)
        Bd = np.asarray(sp.csr_matrix(single.scenarios[0].B).todense())
        assert np.allclose(Js, Bd @ Bd.T, atol=1e-12)

    def test_std_more_conservative_on_near_orthogonal_blocks(self):
        # rows of different scenarios nearly orthogonal -> coupling norms
        # small -> trace(J_ebj) well below trace(J_std)
        rng = np.random.default_rng(7)
        n0 = 40
        blocks = []
        for i in range(4):
            B = np.zeros((3, n0))
            B[:, 10 * i:10 * i + 3] = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            Bbar = rng.normal(size=(3, 5))
            blocks.append(ScenarioBlock(B, Bbar, np.zeros(3), np.zeros(5),
                                        NonnegOrthant(5), Zero(5)))
        prob = DBAProblem(None, None, np.zeros(n0), NonnegOrthant(n0),
                          Zero(n0), blocks)
        assert np.trace(ebj_block_diag_J(prob)) < np.trace(std_block_diag_J(prob))

    def test_block_diag_strategy_solves_its_m(self):
        rng = np.random.default_rng(8)
        prob = random_structure(rng, N=4, n0=6)
        for variant in ("ebj", "std"):
            sol = build_msolver(prob, "block-diag", jbar=variant)
            h = rng.normal(size=prob.mbar)
            y = sol.solve(h, check_residual=True)
            assert sol.last_relres <= 1e-9
            J = (ebj_block_diag_J(prob) if variant == "ebj"
                 else std_block_diag_J(prob))
            Md = assemble_m_dense(prob, jbar=J)
            assert np.linalg.norm(Md @ y - h) <= 1e-8 * (1 + np.linalg.norm(h))

    def test_block_diag_leaves_meta_unchanged(self):
        rng = np.random.default_rng(9)
        prob = random_structure(rng, N=3)
        prob.meta["label"] = "toy"
        before = dict(prob.meta)
        nus = pairwise_coupling_norms(prob)
        assert np.array_equal(pairwise_coupling_norms(prob), nus)
        for variant in ("ebj", "std"):
            build_msolver(prob, "block-diag", jbar=variant)
        report = admm_solve(prob, SolverConfig(strategy="block-diag",
                                               max_iter=5))
        assert report.extra["strategy"] == "block-diag"
        assert prob.meta == before

    def test_scenario_with_no_rows(self):
        rng = np.random.default_rng(18)
        blocks = [ScenarioBlock(rng.normal(size=(m, 4)),
                                rng.normal(size=(m, m + 2)), np.zeros(m),
                                np.zeros(m + 2), NonnegOrthant(m + 2),
                                Zero(m + 2)) for m in (3, 0, 2)]
        prob = DBAProblem(None, None, np.zeros(4), NonnegOrthant(4), Zero(4),
                          blocks)
        assert pairwise_coupling_norms(prob)[1] == 0.0
        sol = build_msolver(prob, "block-diag")
        h = rng.normal(size=prob.mbar)
        Md = assemble_m_dense(prob, jbar=ebj_block_diag_J(prob))
        assert np.linalg.norm(Md @ sol.solve(h) - h) <= 1e-14 * np.linalg.norm(h)
        # the empty block needs no shift
        sol = build_msolver(prob, "smw-diag")
        MJ = own_m(sol, prob.mbar)
        assert np.linalg.norm(MJ @ sol.solve(h) - h) <= 1e-14 * np.linalg.norm(h)


def identical_blocks(prob, bbar=False):
    """``prob`` with every B_i replaced by B_1 and, when ``bbar``, every
    Bbar_i (with its costs and cones) by Bbar_1: blocks of one shape."""
    s0 = prob.scenarios[0]
    blocks = []
    for s in prob.scenarios:
        r = s0 if bbar else s
        blocks.append(ScenarioBlock(s0.B, r.Bbar, s.bbar, r.cbar, r.cone,
                                    r.theta))
    return DBAProblem(prob.A, prob.b, prob.c, prob.cone, prob.theta, blocks)


def has_identical_blocks(prob, bbar=False):
    """Whether every B_i (and, when ``bbar``, every Bbar_i) equals the
    first scenario's entry for entry."""
    s0 = prob.scenarios[0]
    return all(same_canonical(s0.B, s.B)
               and (not bbar or same_canonical(s0.Bbar, s.Bbar))
               for s in prob.scenarios[1:])


class TestShared:
    """Identical (shared) blocks B_i have no strategy of their own: they go
    through the cost model, to chol or smw, like every other problem."""

    def test_shared_is_not_a_strategy(self):
        # nor is ufl: facility-location relaxations have identical blocks
        # too, and smw builds their exact D^{-1}
        prob = random_structure(np.random.default_rng(10), shared=True,
                                bbar_shared=True)
        ufl = build_ufl_dnn(random_ufl(3, 4, 0))
        assert msolver.STRATEGIES == ("chol", "smw", "smw-diag", "block-diag")
        for p, strategy in ((prob, "shared"), (ufl, "ufl")):
            assert has_identical_blocks(p, bbar=True)
            with pytest.raises(StrategyPrecondition, match="unknown strategy"):
                build_msolver(p, strategy)

    def test_auto_falls_back_when_a_gram_is_singular(self):
        # both B_i are [[1]]; the second scenario has no second-stage
        # variables, so its Bbar_i Bbar_i^T is the 1x1 zero matrix
        prob = DBAProblem(None, None, [1.0], NonnegOrthant(1), Zero(1), [
            ScenarioBlock([[1.0]], [[1.0]], [2.0], [1.0], NonnegOrthant(1),
                          Zero(1)),
            ScenarioBlock([[1.0]], np.zeros((1, 0)), [1.0], np.zeros(0),
                          NonnegOrthant(0), Zero(0))])
        assert has_identical_blocks(prob)
        assert msolver.auto_candidates(prob) == ["chol"]
        with pytest.raises(StrategyPrecondition,
                           match=r"Bbar_1 Bbar_1\^T positive definite"):
            build_msolver(prob, "smw")
        sol = build_msolver(prob)
        assert sol.strategy == "chol"
        h = np.array([1.0, -2.0])
        assert np.allclose(assemble_m_dense(prob) @ sol.solve(h), h)
        report = admm_solve(prob)
        assert report.converged
        assert report.extra["strategy"] == "chol"
        # where the cost model picks smw, auto moves on to chol: identical
        # B_i, and Bbar_0 without columns
        big = identical_blocks(random_two_stage(5, 20, 5, 15, N=120, seed=1,
                                                quad_eps=0.1))
        blocks = list(big.scenarios)
        s = blocks[0]
        blocks[0] = ScenarioBlock(s.B, np.zeros((s.m, 0)), s.bbar, np.zeros(0),
                                  NonnegOrthant(0), Zero(0))
        prob = DBAProblem(big.A, big.b, big.c, big.cone, big.theta, blocks)
        assert has_identical_blocks(prob)
        assert msolver.auto_candidates(prob) == ["smw", "chol"]
        with pytest.raises(StrategyPrecondition,
                           match=r"Bbar_0 Bbar_0\^T positive definite"):
            build_msolver(prob, "smw")
        sol = build_msolver(prob)
        assert sol.strategy == "chol"
        h = np.random.default_rng(19).normal(size=prob.mbar)
        y = sol.solve(h)
        assert np.linalg.norm(assemble_m_dense(prob) @ y - h) <= \
            1e-12 * np.linalg.norm(h)

    def test_shared_matches_dense(self):
        # smw and auto on identical B_i, with distinct and identical Bbar_i
        rng = np.random.default_rng(11)
        big = random_two_stage(5, 20, 5, 15, N=120, seed=1, quad_eps=0.1)
        for bbar_shared in (False, True):
            small = random_structure(rng, N=4, shared=True,
                                     bbar_shared=bbar_shared)
            for prob, auto in ((small, "chol"),
                               (identical_blocks(big, bbar_shared), "smw")):
                Md = assemble_m_dense(prob)
                h = rng.normal(size=prob.mbar)
                want = np.linalg.solve(Md, h)
                for strategy in ("smw", "auto"):
                    sol = build_msolver(prob, strategy)
                    assert sol.strategy == ("smw" if strategy == "smw"
                                            else auto)
                    assert np.allclose(sol.solve(h), want, atol=1e-8)


def ufl_gram_inverse(p):
    """The closed-form inverse of Bbar_j Bbar_j^T for the facility-location
    block [[e^T, 0], [-I, -I]]: [[0, 0], [0, I/2]] + (1/(2p)) [2; e][2; e]^T."""
    u = np.concatenate(([2.0], np.ones(p)))
    inv = np.outer(u, u) / (2.0 * p)
    inv[1:, 1:] += 0.5 * np.eye(p)
    return inv


class TestUflAnalytic:
    """Facility-location relaxations go through smw, which forms the exact
    inverse of every Bbar_j Bbar_j^T at setup."""

    @pytest.mark.parametrize("p", [2, 5, 10])
    def test_analytic_inverse(self, p):
        prob = build_ufl_dnn(random_ufl(p, 3, seed=p))
        dinv = to_dense(msolver._inverse_csr(
            prob, *bbar_gram_factors(prob, "smw requires")))
        want = ufl_gram_inverse(p)
        for i in range(prob.N):
            sl = prob.y_slice(i)
            assert np.max(np.abs(dinv[sl, sl] - want)) <= 1e-12
        assert np.array_equal(dinv, sp.block_diag(
            [to_dense(dinv[prob.y_slice(0), prob.y_slice(0)])] * prob.N
        ).toarray())

    def test_smw_matches_dense(self):
        prob = build_ufl_dnn(random_ufl(3, 4, 0))
        sol = build_msolver(prob, "smw")
        Md = assemble_m_dense(prob)
        rng = np.random.default_rng(12)
        h = rng.normal(size=prob.mbar)
        y = sol.solve(h)
        assert np.linalg.norm(Md @ y - h) <= 1e-9 * (1 + np.linalg.norm(h))


class TestAutoSelection:
    def test_small_problems_use_chol(self):
        rng = np.random.default_rng(13)
        prob = random_structure(rng)
        assert auto_strategy(prob) == "chol"

    def test_identical_blocks_use_the_cost_model(self):
        rng = np.random.default_rng(14)
        for bbar in (False, True):
            prob = random_structure(rng, shared=True, bbar_shared=bbar)
            assert has_identical_blocks(prob, bbar)
            assert auto_strategy(prob) == "chol"
            big = identical_blocks(random_two_stage(5, 20, 5, 15, N=120,
                                                    seed=1, quad_eps=0.1), bbar)
            assert has_identical_blocks(big, bbar)
            assert msolver.auto_candidates(big) == ["smw", "chol"]

    def test_ufl_uses_the_cost_model(self):
        # facility-location relaxations are priced like every other
        # problem: chol for 4 customers, smw for the benchmark's 150
        small = build_ufl_dnn(random_ufl(3, 4, 1))
        assert msolver.auto_candidates(small) == ["chol"]
        assert build_msolver(small).strategy == "chol"
        big = build_ufl_dnn(random_ufl(10, 150, 1))
        assert msolver.auto_candidates(big) == ["smw", "chol"]
        assert build_msolver(big).strategy == "smw"

    def test_reference_instances(self):
        # by the per-solve cost estimate: a 4x4, a 12x12 and a 48x48 M factor
        # beat the SMW kernels' fixed cost; 120 blocks of 5 rows beat a
        # 600x600 M
        assert auto_strategy(random_two_stage(3, 8, 4, 8, N=1, seed=1)) == "chol"
        assert auto_strategy(random_sdp(3, 6, 3, 6, N=4, seed=1)) == "chol"
        assert auto_strategy(random_two_stage(3, 8, 4, 8, N=12, seed=1,
                                              quad_eps=0.1)) == "chol"
        assert auto_strategy(random_two_stage(5, 20, 5, 15, N=120, seed=1,
                                              quad_eps=0.1)) == "smw"

    def test_benchmark_reference_instances(self):
        # the benchmark's four reference instances, PHA's as the bundle its
        # outer iterations solve
        cases = [
            (random_two_stage(5, 20, 5, 15, N=120, seed=1, quad_eps=0.1),
             "smw"),
            (random_sdp(3, 6, 3, 6, N=4, seed=1), "chol"),
            (build_ufl_dnn(random_ufl(10, 150, seed=1)), "smw"),
            (_bundle(random_two_stage(3, 8, 4, 8, N=12, seed=1,
                                      quad_eps=0.1), 10.0), "chol")]
        for prob, strategy in cases:
            assert auto_strategy(prob) == strategy
            assert build_msolver(prob).strategy == strategy

    def test_identical_bbar_priced_as_the_gemm(self):
        # Bbar_i shared as one object or as equal copies get the price of
        # the GEMM that applies their D^-1; one changed entry, the CSR
        # mat-vec's
        ufl = build_ufl_dnn(random_ufl(10, 150, seed=1))

        def with_bbar(change):
            blocks = [dataclasses.replace(s, Bbar=s.Bbar.copy())
                      for s in ufl.scenarios]
            if change:
                blocks[3].Bbar.data[0] += 1.0
            return DBAProblem(ufl.A, ufl.b, ufl.c, ufl.cone, ufl.theta,
                              blocks)

        chol, gemm = m_solve_cost_ns(ufl)
        assert m_solve_cost_ns(with_bbar(False)) == (chol, gemm)
        chol_changed, csr = m_solve_cost_ns(with_bbar(True))
        assert chol_changed == chol and csr > gemm

    def test_smw_falls_back_to_chol_when_a_gram_is_singular(self):
        prob = random_two_stage(5, 20, 5, 15, N=120, seed=1, quad_eps=0.1)
        blocks = list(prob.scenarios)
        s = blocks[7]
        # no second-stage variables: Bbar_7 Bbar_7^T is the 5x5 zero matrix
        blocks[7] = ScenarioBlock(s.B, np.zeros((s.m, 0)), s.bbar, np.zeros(0),
                                  NonnegOrthant(0), Zero(0))
        prob = DBAProblem(prob.A, prob.b, prob.c, prob.cone, prob.theta,
                          blocks)
        assert msolver.auto_candidates(prob) == ["smw", "chol"]
        # the batched build names the failing block among the 120
        with pytest.raises(StrategyPrecondition,
                           match=r"Bbar_7 Bbar_7\^T positive definite"):
            build_msolver(prob, "smw")
        sol = build_msolver(prob)
        assert sol.strategy == "chol"
        h = np.random.default_rng(19).normal(size=prob.mbar)
        y = sol.solve(h)
        assert np.linalg.norm(assemble_m_dense(prob) @ y - h) <= 1e-12 * np.linalg.norm(h)

    @pytest.mark.parametrize("kind", ["smw", "shared", "shared-bbar"])
    def test_ill_conditioned_gram_moves_auto_to_chol(self, kind):
        # one Bbar_i Bbar_i^T of condition 1e10, on distinct blocks, on
        # identical (shared) B_i, and on identical B_i and Bbar_i, where
        # every gram is that one: auto leaves smw for chol, an explicit
        # strategy still builds
        prob = random_two_stage(5, 20, 5, 15, N=120, seed=1, quad_eps=0.1)
        if kind != "smw":
            prob = identical_blocks(prob)
        ill = 0 if kind == "shared-bbar" else 7
        blocks = list(prob.scenarios)
        s = blocks[ill]
        rng = np.random.default_rng(20)
        U, _ = np.linalg.qr(rng.normal(size=(s.m, s.m)))
        V, _ = np.linalg.qr(rng.normal(size=(s.n, s.m)))
        blocks[ill] = ScenarioBlock(s.B, (U * np.logspace(0, -5, s.m)) @ V.T,
                                    s.bbar, s.cbar, s.cone, s.theta)
        prob = DBAProblem(prob.A, prob.b, prob.c, prob.cone, prob.theta,
                          blocks)
        if kind == "shared-bbar":
            prob = identical_blocks(prob, bbar=True)
        assert has_identical_blocks(prob) is (kind != "smw")
        assert msolver.auto_candidates(prob) == ["smw", "chol"]
        assert build_msolver(prob, "smw").strategy == "smw"
        # under auto's bound the batched build names the first ill block
        with pytest.raises(StrategyPrecondition,
                           match=r"Bbar_%d Bbar_%d\^T of condition at most"
                           % (ill, ill)):
            bbar_gram_factors(prob, "smw requires", msolver._AUTO_MAX_COND)
        sol = build_msolver(prob)
        assert sol.strategy == "chol"
        h = np.random.default_rng(22).normal(size=prob.mbar)
        M = assemble_m_dense(prob)
        y = sol.solve(h)
        assert np.linalg.norm(M @ y - h) <= 1e-13 * (
            np.linalg.norm(M, 2) * np.linalg.norm(y) + np.linalg.norm(h))

    def test_row_thresholds(self):
        rng = np.random.default_rng(15)
        prob = random_structure(rng, N=2)
        prob.mbar = 6000
        assert auto_strategy(prob) == "smw"
        prob.mbar = 60000
        assert auto_strategy(prob) == "smw-diag"


class TestLargeNFallback:
    def test_ebj_auto_falls_back_to_std_above_cap(self):
        rng = np.random.default_rng(16)
        blocks = []
        for _ in range(65):
            B = rng.normal(size=(1, 4))
            Bbar = rng.normal(size=(1, 2))
            blocks.append(ScenarioBlock(B, Bbar, np.zeros(1), np.zeros(2),
                                        NonnegOrthant(2), Zero(2)))
        prob = DBAProblem(None, None, np.zeros(4), NonnegOrthant(4), Zero(4),
                          blocks)
        sol = build_msolver(prob, "block-diag")
        assert sol.jbar_variant == "std"
        small = DBAProblem(None, None, np.zeros(4), NonnegOrthant(4), Zero(4),
                           blocks[:8])
        assert build_msolver(small, "block-diag").jbar_variant == "ebj"


# ---------------------------------------------------------------------------
# stacked kernels against the per-scenario loop
# ---------------------------------------------------------------------------

def _blockwise(problem, fns):
    """The per-scenario loop the stacked kernels replace: one call per
    scenario block of the stacked vector."""
    def apply(h):
        out = np.empty_like(h)
        for i, f in enumerate(fns):
            sl = problem.y_slice(i)
            out[sl] = f(h[sl])
        return out
    return apply


def _csr_gram(mat):
    bb = sp.csr_matrix(mat)
    bb.sum_duplicates()
    bb.sort_indices()
    return bb @ bb.T


def diag_shift(bbar):
    """smw-diag's lam_i for one block: 1 for a block without rows; for a
    gram of more than ``_DIAG_DENSE_CELLS`` cells (``m^2``),
    lambda_max_bound of the sparse gram;
    otherwise the top eigenvalue of the gram raised by
    2 (n + m^2) eps tr(gram)."""
    m, n = bbar.shape
    if m == 0:
        return 1.0
    if m * m > msolver._DIAG_DENSE_CELLS:
        return blocklinalg.lambda_max_bound(_csr_gram(bbar))
    gram = to_dense(_csr_gram(bbar))
    return (np.linalg.eigvalsh(gram)[-1]
            + 2.0 * (n + m * m) * np.finfo(float).eps * np.trace(gram))


def reference_msolver(problem, strategy, variant=None):
    """(solve, apply_jbar) of ``strategy`` built block by block, each
    scenario solved on its own."""
    scen = problem.scenarios
    N, n0 = problem.N, problem.n0
    apply_jbar = None
    if strategy == "block-diag":
        nus = pairwise_coupling_norms(problem) if variant == "ebj" else None
        facs, coeffs = [], []
        for i, s in enumerate(scen):
            Bd, bbd = to_dense(s.B), to_dense(s.Bbar)
            E = bbd @ bbd.T
            if variant == "ebj":
                E += Bd @ Bd.T + nus[i] * np.eye(s.m)
                coeffs.append((1.0, nus[i]))
            else:
                E += (N + 1) * (Bd @ Bd.T)
                coeffs.append((N + 1.0, 0.0))
            facs.append(chol_factor(E))

        def apply_jbar(w):
            out = -problem.B.apply(problem.B.apply_adjoint(w))
            for i, (s, (c, d)) in enumerate(zip(scen, coeffs)):
                sl = problem.y_slice(i)
                Bd = to_dense(s.B)
                out[sl] += c * (Bd @ (Bd.T @ w[sl])) + d * w[sl]
            return out
        return _blockwise(problem, [f.solve for f in facs]), apply_jbar

    if strategy == "smw-diag":
        grams = [_csr_gram(s.Bbar) for s in scen]
        lams = [diag_shift(s.Bbar) for s in scen]
        # D_i^{-1} = (1 / lam_i) I, a product with the reciprocal
        fns = [(lambda inv: (lambda h: h * inv))(1.0 / lam) for lam in lams]
        # G = I + B* D^{-1} B from the assembled B, as the build sums it
        dinv = sp.diags(1.0 / np.repeat(lams, problem.m_i))
        Bm = problem.B.matrix
        G = np.eye(n0) + to_dense(Bm.T @ (dinv @ Bm))

        def apply_jbar(w):
            out = np.empty_like(w)
            for i, (lam, gram) in enumerate(zip(lams, grams)):
                sl = problem.y_slice(i)
                out[sl] = lam * w[sl] - mv(gram, w[sl])
            return out
    else:
        facs = [chol_factor(to_dense(_csr_gram(s.Bbar))) for s in scen]
        fns = [f.solve for f in facs]
        G = np.eye(n0)
        for f, s in zip(facs, scen):
            Bd = to_dense(s.B)
            G += Bd.T @ f.solve(Bd)
    dinv = _blockwise(problem, fns)
    gfac = chol_factor(G)

    def solve(h):
        u = dinv(h)
        w = gfac.solve(problem.B.apply_adjoint(u))
        return u - dinv(problem.B.apply(w))
    return solve, apply_jbar


ORACLE_CASES = [
    ("smw", {}), ("smw-diag", {}), ("block-diag", {}),
    ("smw", {"shared": True}),
    ("smw", {"shared": True, "bbar_shared": True}),
]


class TestStackedKernels:
    @pytest.mark.parametrize("strategy,kind", ORACLE_CASES)
    @pytest.mark.parametrize("equal,N", [(False, 9), (True, 9), (True, 1)])
    def test_solve_bit_equal_to_per_scenario_loop(self, strategy, kind,
                                                  equal, N):
        # identical B_i have one row count, so shared cases are never ragged
        rng = np.random.default_rng(40 + N)
        prob = random_structure(rng, N, n0=7, mi_max=6, equal=equal, **kind)
        variants = ("ebj", "std") if strategy == "block-diag" else (None,)
        # distinct per-scenario factors are applied as matmuls with L_i^{-1},
        # which is not LAPACK's triangular solve bit for bit
        inverse_factors = strategy in ("smw", "block-diag")
        for variant in variants:
            sol = build_msolver(prob, strategy, jbar=variant)
            ref_solve, ref_jbar = reference_msolver(prob, strategy, variant)
            for _ in range(3):
                h = rng.normal(size=prob.mbar)
                got, want = sol.solve(h), ref_solve(h)
                if inverse_factors:
                    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
                else:
                    assert np.array_equal(got, want)
                if ref_jbar is not None:
                    # einsum / operator products reorder the sums
                    got = sol.apply_m(h) - assemble_m_dense(prob) @ h
                    want = ref_jbar(h)
                    assert np.linalg.norm(got - want) <= 1e-12 * (
                        np.linalg.norm(want) + np.linalg.norm(
                            assemble_m_dense(prob) @ h))

    @pytest.mark.parametrize("N", [1, 2, 7])
    def test_ufl_solve_bit_equal_to_per_scenario_loop(self, N):
        # the facility-location structure on smw, as the cases above
        prob = build_ufl_dnn(random_ufl(3, N, seed=N))
        sol = build_msolver(prob, "smw")
        ref_solve, _ = reference_msolver(prob, "smw")
        rng = np.random.default_rng(N)
        for _ in range(3):
            h = rng.normal(size=prob.mbar)
            got, want = sol.solve(h), ref_solve(h)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @staticmethod
    def count_d_inverse_calls(monkeypatch, problems):
        """mv calls of one smw solve on each problem; every call must be a
        mat-vec with the block-diagonal CSR matrix D^{-1}."""
        calls = []
        orig = msolver.mv

        def counted(op, x):
            calls.append((op.shape, sp.issparse(op)))
            return orig(op, x)
        monkeypatch.setattr(msolver, "mv", counted)
        counts = []
        for prob in problems:
            sol = build_msolver(prob, "smw")
            calls.clear()
            sol.solve(np.ones(prob.mbar))
            assert set(calls) == {((prob.mbar, prob.mbar), True)}
            counts.append(len(calls))
        return counts

    def test_smw_kernel_calls_do_not_grow_with_n(self, monkeypatch):
        # an smw solve with dense B (the factored form) applies D^{-1}, one
        # block-diagonal CSR matrix, once
        counts = self.count_d_inverse_calls(monkeypatch, [
            random_structure(np.random.default_rng(N), N, n0=6, equal=True)
            for N in (10, 100)])
        assert counts == [1, 1]

    def test_kernel_calls_do_not_grow_with_n(self, monkeypatch):
        # the identical grams of facility location apply D^{-1} as one GEMM
        # per solve (B is stored dense at these N: the factored form),
        # whatever N, and never as a CSR mat-vec
        gemms, matvecs = [], []
        orig_gemm, orig_mv = msolver._shared_block_apply, msolver.mv

        def gemm(dinv1, N, h):
            gemms.append((dinv1.shape, N, h.shape))
            return orig_gemm(dinv1, N, h)

        def counted_mv(op, x):
            matvecs.append(op.shape)
            return orig_mv(op, x)
        monkeypatch.setattr(msolver, "_shared_block_apply", gemm)
        monkeypatch.setattr(msolver, "mv", counted_mv)
        counts = []
        for N in (20, 40):
            prob = build_ufl_dnn(random_ufl(3, N, seed=0))
            sol = build_msolver(prob, "smw")
            gemms.clear()
            matvecs.clear()
            sol.solve(np.ones(prob.mbar))
            m = prob.m_i[0]
            assert isinstance(prob.B.matrix, np.ndarray)
            assert set(gemms) == {((m, m), N, (prob.mbar,))}
            assert (prob.mbar, prob.mbar) not in matvecs
            counts.append(len(gemms))
        assert counts == [1, 1]


# ---------------------------------------------------------------------------
# fixed recourse: one gram inverse applied by GEMM; G on B's column support
# ---------------------------------------------------------------------------

def split_size_groups(monkeypatch):
    """Make smw take its block-diagonal CSR D^{-1} on identical grams: the
    scenarios of each row count come in two groups, so no single group
    holds every gram."""
    orig = msolver._size_groups
    monkeypatch.setattr(msolver, "_size_groups", lambda problem: [
        part for idx in orig(problem) for part in np.array_split(idx, 2)
        if part.size])


def spy_gemm(monkeypatch):
    """The list that every D^{-1} GEMM application appends its N to."""
    calls = []
    orig = msolver._shared_block_apply
    monkeypatch.setattr(msolver, "_shared_block_apply", lambda d, N, h: (
        calls.append(N), orig(d, N, h))[1])
    return calls


def spy_g(monkeypatch):
    """The list of every G passed to ``_make_g_solver``."""
    seen = []
    orig = msolver._make_g_solver
    monkeypatch.setattr(msolver, "_make_g_solver",
                        lambda G: (seen.append(G), orig(G))[1])
    return seen


def column_structure(rng, cols, N=5, n0=9, m=3):
    """Distinct blocks whose B_i have nonzeros only in the columns
    ``cols`` (every B_i touches all of them)."""
    blocks = []
    for _ in range(N):
        B = np.zeros((m, n0))
        B[:, cols] = rng.normal(size=(m, len(cols)))
        Bbar = rng.normal(size=(m, m + 2))
        blocks.append(ScenarioBlock(B, Bbar, np.zeros(m), np.zeros(m + 2),
                                    NonnegOrthant(m + 2), Zero(m + 2)))
    return DBAProblem(None, None, np.zeros(n0), NonnegOrthant(n0), Zero(n0),
                      blocks)


FIXED_RECOURSE = [
    # B stored dense (N = 2, 7) and CSR (N = 140, priced to the factored
    # form)
    lambda: build_ufl_dnn(random_ufl(3, 2, seed=2)),
    lambda: build_ufl_dnn(random_ufl(3, 7, seed=7)),
    lambda: build_ufl_dnn(random_ufl(5, 140, seed=1)),
    lambda: random_structure(np.random.default_rng(50), shared=True,
                             bbar_shared=True),
    # identical grams, distinct B_i
    lambda: random_structure(np.random.default_rng(51), equal=True,
                             bbar_shared=True),
    # B stored CSR with 40 support columns over 820 rows: priced to the
    # G_SS form
    lambda: build_ufl_dnn(random_ufl(40, 20, seed=1)),
]


def priced_factored(prob):
    """Whether the cost model sends ``prob``'s smw solve to the factored
    form."""
    return msolver._factored_form(
        prob, msolver._column_support(prob.B.matrix).size)


class TestFixedRecourse:
    @pytest.mark.parametrize("make", FIXED_RECOURSE)
    def test_gemm_path_matches_dense_and_csr(self, monkeypatch, make):
        prob = make()
        gemms = spy_gemm(monkeypatch)
        rng = np.random.default_rng(prob.N)
        hs = [rng.normal(size=prob.mbar) for _ in range(3)]
        sol = build_msolver(prob, "smw")
        got = [sol.solve(h) for h in hs]
        # one GEMM per solve in the factored form, two in the G_SS form
        per_solve = 1 if priced_factored(prob) else 2
        assert gemms == [prob.N] * (3 * per_solve)
        Md = assemble_m_dense(prob)
        for h, y in zip(hs, got):
            assert np.linalg.norm(Md @ y - h) <= 1e-9 * (1 + np.linalg.norm(h))
        split_size_groups(monkeypatch)
        gemms.clear()
        csr = build_msolver(prob, "smw")
        for h, y in zip(hs, got):
            want = csr.solve(h)
            assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)
        assert gemms == []

    def test_one_gram_factored_checked_and_inverted(self, monkeypatch):
        # 150 identical grams: one factorization, one exact condition check
        # under auto's bound (no dpocon estimate), one dtrtri for the gram
        # and one for L_G, since the cost model picks the factored form
        prob = build_ufl_dnn(random_ufl(10, 150, seed=1))
        counts = {"factor": [], "checked": [], "dpocon": 0, "dtrtri": 0}
        orig_factor = msolver._factor_blocks
        monkeypatch.setattr(msolver, "_factor_blocks", lambda grams, *a: (
            counts["factor"].extend(g.shape[0] for g in grams),
            orig_factor(grams, *a))[1])
        orig_checked = msolver._checked_inverses
        monkeypatch.setattr(msolver, "_checked_inverses", lambda grams, *a: (
            counts["checked"].extend((g.shape[0], a[1]) for g in grams),
            orig_checked(grams, *a))[1])
        lapack = msolver.sla.lapack
        for name in ("dpocon", "dtrtri"):
            orig = getattr(lapack, name)
            monkeypatch.setattr(lapack, name, (lambda name, orig: (
                lambda *a, **kw: (counts.__setitem__(name, counts[name] + 1),
                                  orig(*a, **kw))[1]))(name, orig))
        assert build_msolver(prob).strategy == "smw"
        assert counts == {"factor": [1],
                          "checked": [(1, msolver._AUTO_MAX_COND)],
                          "dpocon": 0, "dtrtri": 2}

    @pytest.mark.parametrize("strategy", ["smw", "smw-diag"])
    @pytest.mark.parametrize("cols", [[4], [1, 5, 8]])
    def test_g_on_the_support(self, monkeypatch, strategy, cols):
        # B touching one or three of nine columns: G is |S| x |S|, and the
        # solve agrees with the full-order G of the per-scenario reference
        rng = np.random.default_rng(53 + len(cols))
        prob = column_structure(rng, cols)
        assert list(msolver._column_support(prob.B.matrix)) == cols
        seen = spy_g(monkeypatch)
        sol = build_msolver(prob, strategy)
        assert [G.shape for G in seen] == [(len(cols), len(cols))]
        ref_solve, _ = reference_msolver(prob, strategy)
        for _ in range(3):
            h = rng.normal(size=prob.mbar)
            y = sol.solve(h, check_residual=True)
            want = ref_solve(h)
            assert sol.last_relres <= 1e-9
            assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("strategy", ["smw", "smw-diag"])
    def test_b_zero_solves_d(self, monkeypatch, strategy):
        # TestTrivial's problem: S is empty, no G is built and M^-1 = D^-1
        blocks = [ScenarioBlock(np.zeros((2, 3)), np.eye(2), np.zeros(2),
                                np.zeros(2), NonnegOrthant(2), Zero(2))]
        prob = DBAProblem(None, None, np.zeros(3), NonnegOrthant(3), Zero(3),
                          blocks)
        seen = spy_g(monkeypatch)
        sol = build_msolver(prob, strategy)
        assert seen == [] and sol.reads_tol is False
        h = np.array([1.0, -2.0])
        y = sol.solve(h, check_residual=True)
        assert sol.last_relres <= 1e-9
        if strategy == "smw":
            assert np.allclose(y, h, atol=1e-12)

    def test_support_below_the_chol_order(self, monkeypatch):
        # n0 = 9 above _G_CHOL_DIM = 4 would take PCG; a support of 3
        # columns is factored, a support of 5 still takes PCG
        monkeypatch.setattr(msolver, "_G_CHOL_DIM", 4)
        rng = np.random.default_rng(55)
        for cols, pcg in (([0, 3, 6], False), ([0, 2, 4, 6, 8], True)):
            prob = column_structure(rng, cols)
            sol = build_msolver(prob, "smw")
            assert sol.reads_tol is pcg
            h = rng.normal(size=prob.mbar)
            y = sol.solve(h, tol=1e-12, check_residual=True)
            assert sol.last_relres <= 1e-9
            assert (sol.last_inner_iters > 0) is pcg
            Md = assemble_m_dense(prob)
            expect = np.linalg.solve(Md, h)
            assert np.linalg.norm(y - expect) <= 1e-8 * (1 + np.linalg.norm(expect))

    def test_reference_instances_keep_their_candidates(self):
        # pricing |S| instead of n0 moves no benchmark reference instance,
        # nor the bundle that progressive hedging solves
        from dbasolve.pha import _bundle
        pha = random_two_stage(3, 8, 4, 8, N=12, seed=1, quad_eps=0.1)
        cases = [
            (random_two_stage(5, 20, 5, 15, N=120, seed=1, quad_eps=0.1),
             ["smw", "chol"]),
            (random_sdp(3, 6, 3, 6, N=4, seed=1), ["chol"]),
            (build_ufl_dnn(random_ufl(10, 150, seed=1)), ["smw", "chol"]),
            (pha, ["chol"]), (_bundle(pha, 10.0), ["chol"])]
        for prob, want in cases:
            assert msolver.auto_candidates(prob) == want

    @pytest.mark.parametrize("seed, iterations", [(1, 238), (2, 227),
                                                  (3, 202)])
    def test_ufl_iterations_unchanged(self, seed, iterations):
        prob = build_ufl_dnn(random_ufl(10, 150, seed=seed))
        report = admm_solve(prob, SolverConfig(tau=1.618))
        assert report.extra["strategy"] == "smw"
        assert report.status == "Converged"
        assert report.iterations == iterations

    @pytest.mark.parametrize("seed, iterations", [(1, 149), (2, 151),
                                                  (3, 124)])
    def test_ufl_halpern_iterations(self, seed, iterations):
        prob = build_ufl_dnn(random_ufl(10, 150, seed=seed))
        report = admm_solve(prob, SolverConfig())
        assert report.extra["strategy"] == "smw"
        assert report.status == "Converged"
        assert report.iterations == iterations


def spy_forms(monkeypatch):
    """The list that every smw build with B != 0 appends its solve form
    to: ``"factored"`` (D^{-1} h - R R^T h) or ``"smw"`` (the other)."""
    forms = []
    for name, form in (("_make_factored_solve", "factored"),
                       ("_make_smw_solve", "smw")):
        orig = getattr(msolver, name)
        monkeypatch.setattr(msolver, name, (lambda orig, form: lambda *a: (
            forms.append(form), orig(*a))[1])(orig, form))
    return forms


def zero_b_structure(rng, N=4, n0=5):
    """Distinct ragged blocks with B_i = 0 stored dense: S is empty."""
    blocks = []
    for _ in range(N):
        m = int(rng.integers(1, 5))
        blocks.append(ScenarioBlock(np.zeros((m, n0)),
                                    rng.normal(size=(m, m + 2)), np.zeros(m),
                                    np.zeros(m + 2), NonnegOrthant(m + 2),
                                    Zero(m + 2)))
    return DBAProblem(None, None, np.zeros(n0), NonnegOrthant(n0), Zero(n0),
                      blocks)


# every B stored dense
FACTORED_CASES = {
    "distinct-ragged": lambda: random_structure(np.random.default_rng(60),
                                                N=7),
    "identical-grams": lambda: random_structure(
        np.random.default_rng(61), equal=True, bbar_shared=True),
    "identical-blocks": lambda: random_structure(
        np.random.default_rng(62), shared=True, bbar_shared=True),
    "support-below-n0": lambda: column_structure(np.random.default_rng(63),
                                                 [1, 5, 8]),
    "zero-row-scenarios": lambda: oracle_structure([0, 3, 2, 0, 4], 4, False,
                                                   False, 64),
    "b-zero": lambda: zero_b_structure(np.random.default_rng(65)),
    # B stored CSR, |S| = 5 over 840 rows
    "csr-facility": lambda: build_ufl_dnn(random_ufl(5, 140, seed=1)),
}


class TestFactoredForm:
    """smw with G_SS factored solves M^{-1} h as D^{-1} h - R (R^T h),
    R = D^{-1} B_S L_G^{-T}, where the cost model prices that form at most
    the other (always with B stored dense); smw-diag and a PCG G-solve keep
    the other form."""

    @pytest.mark.parametrize("name", sorted(FACTORED_CASES))
    def test_matches_dense_and_per_scenario_reference(self, monkeypatch,
                                                      name):
        prob = FACTORED_CASES[name]()
        assert sp.issparse(prob.B.matrix) == (name == "csr-facility")
        forms = spy_forms(monkeypatch)
        sol = build_msolver(prob, "smw")
        # with B = 0, M = D: no G, no R
        assert forms == ([] if name == "b-zero" else ["factored"])
        ref_solve, _ = reference_msolver(prob, "smw")
        M = assemble_m_dense(prob)
        rng = np.random.default_rng(len(name))
        for _ in range(3):
            h = rng.normal(size=prob.mbar)
            y, want = sol.solve(h, check_residual=True), ref_solve(h)
            assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)
            assert np.linalg.norm(M @ y - h) <= 1e-13 * (
                np.linalg.norm(M, 2) * np.linalg.norm(y) + np.linalg.norm(h))
            assert sol.last_relres <= 1e-13 * np.linalg.norm(M, 2) * (
                1.0 + np.linalg.norm(y))
            assert (sol.last_inner_iters, sol.last_inner_relres) == (0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_raises_value_error(self, bad):
        # as the G_SS factor's solve does in the other form
        prob = FACTORED_CASES["distinct-ragged"]()
        sol = build_msolver(prob, "smw")
        h = np.ones(prob.mbar)
        h[prob.mbar // 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match="must not contain infs or NaNs"):
            sol.solve(h)

    def test_nan_rhs_ends_admm_in_numerical_error(self):
        # a NaN warm start reaches the ybar step's right-hand side; the
        # factored solve refuses it and the loop reports the iteration
        prob = random_two_stage(5, 20, 5, 15, N=30, seed=1, quad_eps=0.1)
        setup = solve_setup(prob, SolverConfig(), scaled=True)
        assert setup.msolver.strategy == "smw"
        cfg = SolverConfig(max_iter=5)
        rep = admm_solve(prob, cfg, setup=setup)
        rep.dual.ybar[0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalError, match="^non-finite iterate at iteration 0: "
                "array must not contain infs or NaNs") as exc:
            admm_solve(prob, cfg, initial=rep, setup=setup)
        last = traceback.extract_tb(exc.value.__cause__.__traceback__)[-1]
        assert last.name == "impl" and last.filename.endswith("msolver.py")

    def test_check_inner_asserts_the_residual(self):
        prob = random_two_stage(5, 20, 5, 15, N=30, seed=1, quad_eps=0.1)
        setup = solve_setup(prob, SolverConfig(), scaled=True)
        msol = setup.msolver
        assert msol.minv_w is None and not msol.reads_tol
        rep = admm_solve(prob, SolverConfig(max_iter=20, check_inner=True),
                         setup=setup)
        assert rep.iterations == 20
        apply_m = msol.apply_m
        msol.apply_m = lambda w: 2.0 * apply_m(w)
        with pytest.raises(AssertionError, match="inner residual"):
            admm_solve(prob, SolverConfig(max_iter=5, check_inner=True),
                       setup=setup)

    @pytest.mark.parametrize("case", ["sparse-b", "smw-diag", "pcg"])
    def test_other_form_where_it_applies(self, monkeypatch, case):
        # a B stored CSR that the cost model prices to the G_SS form
        # (facility location with 40 facilities), smw-diag and a G_SS above
        # _G_CHOL_DIM keep D^{-1} h - D^{-1} B_S G^{-1} B_S* D^{-1} h
        strategy = "smw-diag" if case == "smw-diag" else "smw"
        if case == "sparse-b":
            prob = build_ufl_dnn(random_ufl(40, 20, seed=1))
            assert sp.issparse(prob.B.matrix) and not priced_factored(prob)
        else:
            prob = FACTORED_CASES["distinct-ragged"]()
        if case == "pcg":
            monkeypatch.setattr(msolver, "_G_CHOL_DIM", 0)
        forms = spy_forms(monkeypatch)
        sol = build_msolver(prob, strategy)
        assert forms == ["smw"]
        ref_solve, _ = reference_msolver(prob, strategy)
        rng = np.random.default_rng(66)
        for _ in range(3):
            h = rng.normal(size=prob.mbar)
            y, want = sol.solve(h, tol=1e-14), ref_solve(h)
            tol = 1e-10 if case == "pcg" else 1e-13
            assert np.linalg.norm(y - want) <= tol * np.linalg.norm(want)

    @pytest.mark.parametrize("make, factored", [
        # the ufl-dnn benchmark instance, B stored CSR
        (lambda: build_ufl_dnn(random_ufl(10, 150, seed=1)), True),
        (lambda: build_ufl_dnn(random_ufl(40, 20, seed=1)), False),
        (lambda: random_two_stage(5, 20, 5, 15, N=30, seed=1,
                                  quad_eps=0.1), True),
    ])
    def test_form_is_the_cheaper_estimate(self, monkeypatch, make, factored):
        # the build takes the form the cost model prices lower, and auto's
        # smw price is that form's
        prob = make()
        costs = msolver.smw_form_costs(
            prob, msolver._column_support(prob.B.matrix).size)
        assert (costs[0] <= costs[1]) == factored
        assert msolver.m_solve_cost_ns(prob)[1] == min(costs)
        forms = spy_forms(monkeypatch)
        build_msolver(prob, "smw")
        assert forms == ["factored" if factored else "smw"]

    @pytest.mark.parametrize("make, strategy", [
        (lambda: build_ufl_dnn(random_ufl(10, 150, seed=1)), "smw"),
        (lambda: build_ufl_dnn(random_ufl(40, 20, seed=1)), "smw"),
        (lambda: random_two_stage(5, 20, 5, 30, N=20, seed=1,
                                  quad_eps=0.1), "smw"),
        (lambda: random_sdp(3, 6, 3, 6, N=4, seed=1), "chol"),
    ])
    def test_auto_prices_once(self, monkeypatch, make, strategy):
        # the form auto priced smw in is the one the build takes, without
        # a second pass of the cost model
        prob = make()
        factored = priced_factored(prob)
        calls = []
        support = msolver._column_support
        monkeypatch.setattr(msolver, "_column_support",
                            lambda Bm: (calls.append(1), support(Bm))[1])
        forms = spy_forms(monkeypatch)
        sol = build_msolver(prob)
        assert sol.strategy == strategy and len(calls) == 1
        assert forms == ([] if strategy == "chol" else
                         ["factored" if factored else "smw"])

    def test_ufl_dnn_prices(self):
        # |S| = 10 columns over mbar = 1650 rows: 21.5 us factored against
        # 26.8 us in the G_SS form
        prob = build_ufl_dnn(random_ufl(10, 150, seed=1))
        assert msolver.smw_form_costs(prob, 10) == pytest.approx(
            (21.5e3, 26.8e3), abs=50.0)

    def test_pcg_g_solve_prices_no_factored_form(self):
        prob = FACTORED_CASES["distinct-ragged"]()
        assert msolver.smw_form_costs(prob, msolver._G_CHOL_DIM + 1)[0] \
            == np.inf


def gram_structure(sizes, seed):
    """Blocks with the given row counts; Bbar_i is about half zeros, stored
    sparse for odd i, and Bbar_1 has no columns."""
    rng = np.random.default_rng(seed)
    blocks = []
    for i, m in enumerate(sizes):
        n = 0 if i == 1 else m + int(rng.integers(1, 5))
        Bbar = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.5)
        blocks.append(ScenarioBlock(rng.normal(size=(m, 3)),
                                    sp.csr_matrix(Bbar) if i % 2 else Bbar,
                                    np.zeros(m), np.zeros(n),
                                    NonnegOrthant(n), Zero(n)))
    return DBAProblem(None, None, np.zeros(3), NonnegOrthant(3), Zero(3),
                      blocks)


# gram_structure gives Bbar_1 no columns; in the last case it is the only
# block with rows
GRAM_CASES = [
    ([4], False),                           # N=1
    ([3, 0, 2, 3, 5, 1, 0, 2], False),      # ragged, blocks with no rows
    ([0, 1, 2, 3, 4, 5] * 10, True),        # assembled Bbar stored CSR
    ([5] * 40, True),
    ([0, 4], False)]


class TestBatchedBuild:
    @pytest.mark.parametrize("sizes,csr", GRAM_CASES)
    def test_grams_equal_sparse_products(self, sizes, csr):
        prob = gram_structure(sizes, seed=len(sizes))
        assert sp.issparse(prob.Bbar.matrix) == csr
        groups = msolver._size_groups(prob)
        assert sorted(np.concatenate(groups)) == list(range(prob.N))
        stacks = msolver._block_stacks(prob, prob.Bbar.gram(), groups)
        for idx, grams in zip(groups, stacks):
            assert grams.shape == (len(idx),) + (prob.m_i[idx[0]],) * 2
            for i, gram in zip(idx, grams):
                assert np.array_equal(
                    gram, to_dense(_csr_gram(prob.scenarios[i].Bbar)))

    @pytest.mark.parametrize("sizes,csr", GRAM_CASES)
    def test_gram_product_equals_block_products(self, sizes, csr):
        prob = gram_structure(sizes, seed=len(sizes))
        gram = prob.Bbar.gram()
        assert sp.isspmatrix_csr(gram) and gram.shape == (prob.mbar,) * 2
        want = np.zeros((prob.mbar, prob.mbar))
        for i, s in enumerate(prob.scenarios):
            sl = prob.y_slice(i)
            want[sl, sl] = to_dense(_csr_gram(s.Bbar))
        assert np.array_equal(to_dense(gram), want)


    @pytest.mark.parametrize("n, m", [(40, 5), (5, 40), (7, 7), (1, 3),
                                      (3, 0)])
    def test_lower_inverses_match_dtrtri(self, n, m):
        # forward substitution over the stack (n >= m) or dtrtri per block
        # (n < m): lower triangular, and LAPACK's inverse to rounding
        rng = np.random.default_rng(100 * n + m)
        X = rng.normal(size=(n, m, m + 3))
        low = msolver._batched_cholesky(X @ X.transpose(0, 2, 1))
        got = msolver._lower_inverses(low)
        assert got.shape == low.shape
        for g, lo in zip(got, low):
            if not m:
                continue
            want = sla.lapack.dtrtri(lo, lower=1)[0]
            assert np.array_equal(np.triu(g, 1), np.zeros((m, m)))
            assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()

    def test_condition_check_is_exact_and_names_the_first_block(self):
        # blocks 4, 7 and 9 of a stack of 12 are ill-conditioned, block 4
        # only a few times over the bound (2-norm condition 10^8.5): the
        # first is named, with ||G||_1 ||G^-1||_1, which is at least LAPACK
        # dpocon's estimate; the others pass as they did under dpocon
        rng = np.random.default_rng(67)
        m = 5
        grams = []
        for k in range(12):
            U, _ = np.linalg.qr(rng.normal(size=(m, m)))
            low = {4: -8.5, 7: -10, 9: -10}.get(k, -3)
            ev = np.logspace(0, low, m)
            grams.append(0.5 * ((U * ev) @ U.T + ((U * ev) @ U.T).T))
        grams = np.array(grams)
        idx = np.arange(12) + 100
        with pytest.raises(StrategyPrecondition,
                           match=r"^gram 104 of condition at most 1e\+08 "
                           r"\(1-norm condition ") as exc:
            msolver._checked_inverses([grams], [idx], 1e8, "gram {i}")
        cond = float(str(exc.value).rsplit(" ", 1)[1].rstrip(")"))
        # the message prints two digits
        assert cond == pytest.approx(np.linalg.cond(grams[4], 1), rel=0.05)
        for gram in grams:
            low = np.linalg.cholesky(gram)
            rcond, _ = sla.lapack.dpocon(low, np.abs(gram).sum(axis=0).max(),
                                         uplo="L")
            inv = msolver._gram_inverses(low[None])[0]
            exact = np.abs(gram).sum(axis=0).max() * np.abs(inv).sum(
                axis=0).max()
            assert exact >= (1.0 - 1e-9) / rcond
        ok = np.delete(grams, [4, 7, 9], axis=0)
        invs = msolver._checked_inverses([ok], [idx[:9]], 1e8, "gram {i}")
        assert np.allclose(invs[0] @ ok, np.eye(m), atol=1e-9)


def parent_chol_m(problem, jbar=None):
    """M as the chol build formed it with one sparse product per scenario:
    the reference for the build from the assembled operators."""
    Bs = sp.vstack([blocklinalg.canonicalize(sp.csr_matrix(s.B))
                    for s in problem.scenarios])
    M = (Bs @ Bs.T) + sp.block_diag(
        [sp.csr_matrix(s.Bbar) @ sp.csr_matrix(s.Bbar).T
         for s in problem.scenarios])
    if jbar is not None:
        M = M + sp.csr_matrix(jbar)
    return blocklinalg.maybe_densify(M.tocsr())


# the tiny instances of the four benchmark workloads (perfbench/workloads.py)
TINY_WORKLOADS = [
    lambda: random_two_stage(2, 6, 2, 5, N=100, seed=1, quad_eps=0.1),
    lambda: random_sdp(2, 3, 2, 3, N=3, seed=1),
    lambda: build_ufl_dnn(random_ufl(4, 20, seed=1)),
    lambda: random_two_stage(2, 4, 2, 4, N=3, seed=1, quad_eps=0.1),
]


class TestGramProduct:
    @pytest.mark.parametrize("make", TINY_WORKLOADS)
    @pytest.mark.parametrize("with_jbar", [False, True])
    def test_chol_m_equals_per_scenario_products(self, monkeypatch, make,
                                                 with_jbar):
        factored = []
        orig = msolver.chol_factor
        monkeypatch.setattr(msolver, "chol_factor",
                            lambda S: (factored.append(S), orig(S))[1])
        prob = make()
        jbar = ebj_block_diag_J(prob) if with_jbar else None
        build_msolver(prob, "chol", jbar=jbar)
        want = parent_chol_m(prob, jbar)
        assert sp.issparse(factored[0]) == sp.issparse(want)
        assert np.array_equal(to_dense(factored[0]), to_dense(want))

    def test_one_gram_product_per_build(self, monkeypatch):
        # chol, smw and smw-diag form Bbar's gram product once, block-diag
        # that and B's; the batched builds gather only square blocks
        calls, shapes = [], []
        orig_gram = blocklinalg.BlockDiagOp.gram
        monkeypatch.setattr(blocklinalg.BlockDiagOp, "gram",
                            lambda op: (calls.append(op), orig_gram(op))[1])
        orig_stacks = msolver._block_stacks

        def spy(problem, gram, groups):
            stacks = orig_stacks(problem, gram, groups)
            shapes.extend((s.shape, len(idx), problem.m_i[idx[0]])
                          for s, idx in zip(stacks, groups))
            return stacks
        monkeypatch.setattr(msolver, "_block_stacks", spy)
        for strategy, want in (("chol", 1), ("smw", 1), ("smw-diag", 1),
                               ("block-diag", 2)):
            counts = []
            for N in (10, 100):
                prob = random_structure(np.random.default_rng(N), N, n0=6)
                calls.clear()
                build_msolver(prob, strategy)
                counts.append(len(calls))
            assert counts == [want, want], strategy
        assert shapes
        for shape, n_g, m in shapes:
            assert shape == (n_g, m, m)


class TestJbarArgument:
    """A jbar matrix goes with chol and a variant string with block-diag;
    anything else is a ParameterError, raised before auto tries a
    candidate."""

    def prob(self, N=5):
        return random_structure(np.random.default_rng(11), N, n0=6)

    @pytest.mark.parametrize("strategy", ["block-diag", "smw", "smw-diag"])
    def test_matrix_needs_chol(self, strategy):
        prob = self.prob()
        with pytest.raises(ParameterError, match="chol"):
            build_msolver(prob, strategy, jbar=ebj_block_diag_J(prob))

    def test_matrix_under_auto(self):
        # auto would pick smw here, which ignored the matrix
        prob = random_two_stage(5, 20, 5, 15, N=120, seed=1, quad_eps=0.1)
        assert auto_strategy(prob) == "smw"
        with pytest.raises(ParameterError):
            build_msolver(prob, "auto", jbar=np.zeros((prob.mbar,) * 2))

    @pytest.mark.parametrize("strategy", ["chol", "smw", "smw-diag", "auto"])
    @pytest.mark.parametrize("variant", ["ebj", "std"])
    def test_variant_needs_block_diag(self, strategy, variant):
        with pytest.raises(ParameterError, match="block-diag"):
            build_msolver(self.prob(), strategy, jbar=variant)

    def test_unknown_variant(self):
        with pytest.raises(ParameterError, match="ebj"):
            build_msolver(self.prob(), "block-diag", jbar="exact")


class TestInnerResidual:
    def test_pcg_stopped_by_its_cap_fails_check_inner(self, monkeypatch):
        orig = msolver.pcg_solve
        monkeypatch.setattr(msolver, "pcg_solve",
                            lambda *a, **kw: orig(*a, **dict(kw, maxit=1)))
        monkeypatch.setattr(msolver, "_G_CHOL_DIM", 0)
        prob = random_structure(np.random.default_rng(4))
        sol = build_msolver(prob, "smw")
        h = np.random.default_rng(23).normal(size=prob.mbar)
        cfg = SolverConfig(check_inner=True)
        sol.solve(h, tol=1e-12)
        assert sol.last_inner_iters == 1 and sol.last_inner_relres > 1e-12
        with pytest.raises(AssertionError, match="inner PCG residual"):
            _msolve_with_tol(sol, h, 1.0, 1e-6, cfg)
        monkeypatch.undo()
        _msolve_with_tol(sol, h, 1.0, 1e-6, cfg)
        assert sol.last_inner_relres <= 1e-8


class TestToleranceReaders:
    """Only a PCG G-solve reads an M solve's tolerance, so only then does
    the sweep compute it (it costs a norm of the right-hand side)."""

    def test_reads_tol_per_build(self, monkeypatch):
        prob = random_structure(np.random.default_rng(5), shared=True,
                                bbar_shared=True)
        ufl = build_ufl_dnn(random_ufl(4, 20, seed=1))
        cases = [(p, s) for p in (prob, ufl)
                 for s in ("chol", "smw", "smw-diag", "block-diag")]
        for p, strategy in cases:
            assert build_msolver(p, strategy).reads_tol is False
        # a G of any order above _G_CHOL_DIM is solved by PCG
        monkeypatch.setattr(msolver, "_G_CHOL_DIM", 0)
        for p, strategy in cases:
            assert build_msolver(p, strategy).reads_tol \
                is (strategy in ("smw", "smw-diag"))

    def test_pcg_receives_the_same_tol(self, monkeypatch):
        seen = []
        orig = msolver.pcg_solve

        def spy(*args, **kwargs):
            seen.append(kwargs["tol"])
            return orig(*args, **kwargs)
        monkeypatch.setattr(msolver, "pcg_solve", spy)
        monkeypatch.setattr(msolver, "_G_CHOL_DIM", 0)
        rng = np.random.default_rng(9)
        prob = random_structure(rng)
        sol = build_msolver(prob, "smw")
        cfg = SolverConfig()
        for sigma, eps_k in ((1.0, 1e-6), (0.37, 3e-9), (12.5, 1e-4),
                             (1e-3, 1e-20)):
            h = rng.normal(size=prob.mbar) * rng.uniform(0.1, 100.0)
            _msolve_with_tol(sol, h, sigma, eps_k, cfg)
            want = max(min(1e-8, eps_k / (sigma * (1.0 + np.linalg.norm(h)))),
                       1e-14)
            assert seen.pop() == max(want, 1e-14)

    def test_factored_build_gets_no_tol(self):
        # no tolerance computed: the solve falls back to its default
        prob = random_structure(np.random.default_rng(6))
        sol = build_msolver(prob, "smw")
        seen = []
        orig = sol._solve_impl
        sol._solve_impl = lambda h, tol, stats=None: (
            seen.append(tol), orig(h, tol, stats=stats))[1]
        h = np.random.default_rng(2).normal(size=prob.mbar)
        _msolve_with_tol(sol, h, 1.0, 1e-6, SolverConfig())
        assert seen == [msolver._PCG_TOL]


class TestDiagonalizingBound:
    def test_smw_diag_jbar_psd_when_power_iteration_fails(self, monkeypatch):
        # blocks above _DIAG_DENSE_CELLS get lambda_max_bound's sparse power
        # iteration, which can stop far below lambda_max unconverged; the
        # Gershgorin bound then replaces it, so Jbar stays PSD
        stalled = lambda op, dim, tol=1e-8, maxit=500: (1e-3, False)
        monkeypatch.setattr(blocklinalg, "power_lambda_max", stalled)
        monkeypatch.setattr(msolver, "_DIAG_DENSE_CELLS", 0)
        prob = random_structure(np.random.default_rng(17), n0=7)
        sol = build_msolver(prob, "smw-diag")
        eye = np.eye(prob.mbar)
        J = np.column_stack([sol.apply_m(e) for e in eye]) - assemble_m_dense(prob)
        scale = np.max(np.abs(J))
        assert np.linalg.eigvalsh(0.5 * (J + J.T))[0] >= -1e-12 * scale
        y = sol.solve(np.ones(prob.mbar), check_residual=True)
        assert sol.last_relres <= 1e-9 and np.all(np.isfinite(y))

    @pytest.mark.parametrize("cells", [0, 20])
    def test_large_blocks_take_the_sparse_bound(self, monkeypatch, cells):
        # a block whose gram has more than _DIAG_DENSE_CELLS cells is never
        # gathered into a dense stack and gets lambda_max_bound of its
        # sparse gram (every block at 0 cells, some at 20); the solve stays
        # bit-equal to the per-scenario reference
        monkeypatch.setattr(msolver, "_DIAG_DENSE_CELLS", cells)
        read = []
        orig = msolver._block_stacks

        def spy(problem, gram, groups):
            read.extend(i for idx in groups for i in idx)
            return orig(problem, gram, groups)
        monkeypatch.setattr(msolver, "_block_stacks", spy)
        rng = np.random.default_rng(41)
        prob = random_structure(rng, N=9, n0=7, mi_max=6)
        lams = msolver._diag_shifts(prob)
        large = [s.m * s.m > cells for s in prob.scenarios]
        assert any(large)
        for i, s in enumerate(prob.scenarios):
            assert (i in read) != large[i]
            assert lams[i] == diag_shift(s.Bbar)
        sol = build_msolver(prob, "smw-diag")
        ref_solve, _ = reference_msolver(prob, "smw-diag")
        for _ in range(3):
            h = rng.normal(size=prob.mbar)
            assert np.array_equal(sol.solve(h), ref_solve(h))

    @pytest.mark.parametrize("strategy", ["smw", "smw-diag"])
    def test_sparse_g_stays_sparse(self, monkeypatch, strategy):
        # G = I + B* D^-1 B of a B stored in CSR stays CSR and, above
        # _G_CHOL_DIM, solved by PCG with CSR mat-vecs
        seen = []
        orig = msolver._make_g_solver
        monkeypatch.setattr(msolver, "_make_g_solver",
                            lambda G: (seen.append(G), orig(G))[1])
        monkeypatch.setattr(msolver, "_G_CHOL_DIM", 0)
        prob = random_two_stage(5, 1000, 5, 15, N=4, seed=1)
        sol = build_msolver(prob, strategy)
        assert sp.issparse(seen[0])
        h = np.random.default_rng(3).normal(size=prob.mbar)
        sol.solve(h, tol=1e-12, check_residual=True)
        assert sol.last_inner_iters > 0 and sol.last_relres <= 1e-9


# ---------------------------------------------------------------------------
# every strategy against the dense oracle
# ---------------------------------------------------------------------------

def oracle_structure(sizes, n0, shared, bbar_shared, seed, ill=False):
    """Blocks with the given row counts (zero allowed) and 3 more
    second-stage columns than rows, so each Bbar_i Bbar_i^T is well
    conditioned; ``ill`` makes the first Bbar_i with two or more rows (every
    Bbar_i, when shared) one with Bbar_i Bbar_i^T of condition 1e10."""
    rng = np.random.default_rng(seed)

    def recourse(m, ill):
        if not ill:
            return rng.normal(size=(m, m + 3))
        U, _ = np.linalg.qr(rng.normal(size=(m, m)))
        V, _ = np.linalg.qr(rng.normal(size=(m + 3, m)))
        return (U * np.logspace(0, -5, m)) @ V.T

    first_ill = next((i for i, m in enumerate(sizes) if m >= 2), None)
    B0 = rng.normal(size=(sizes[0], n0))
    Bbar0 = recourse(sizes[0], ill and first_ill is not None)
    blocks = []
    for i, m in enumerate(sizes):
        B = B0 if shared else rng.normal(size=(m, n0))
        Bbar = Bbar0 if bbar_shared else recourse(m, ill and i == first_ill)
        n = Bbar.shape[1]
        blocks.append(ScenarioBlock(B, Bbar, np.zeros(m), np.zeros(n),
                                    NonnegOrthant(n), Zero(n)))
    return DBAProblem(None, None, np.zeros(n0), NonnegOrthant(n0), Zero(n0),
                      blocks)


@st.composite
def structures(draw):
    """Ragged or equal row counts (N=1 and zero rows included), optionally
    with shared B_i and Bbar_i."""
    N = draw(st.integers(1, 6))
    equal = draw(st.booleans())
    if equal:
        sizes = [draw(st.integers(0, 5))] * N
    else:
        sizes = draw(st.lists(st.integers(0, 5), min_size=N, max_size=N))
    shared = equal and draw(st.booleans())
    return (sizes, draw(st.integers(1, 5)), shared, shared and draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


def own_m(sol, mbar):
    """Dense matrix of ``sol.apply_m``: M plus the strategy's own Jbar."""
    return np.array([sol.apply_m(e) for e in np.eye(mbar)]).T.reshape(mbar, mbar)


NO_JBAR = ("chol", "smw")


class TestOracle:
    @settings(max_examples=120, deadline=None)
    @given(structures())
    def test_every_strategy_solves_its_own_m(self, structure):
        # a build either rejects the problem with StrategyPrecondition or
        # solves M + Jbar with Jbar = apply_m - M (zero without a proximal
        # term) to a residual of 1e-10 ||h||
        prob = oracle_structure(*structure)
        M = assemble_m_dense(prob)
        h = np.random.default_rng(structure[-1]).normal(size=prob.mbar)
        for strategy in msolver.STRATEGIES + ("auto",):
            try:
                sol = build_msolver(prob, strategy)
            except StrategyPrecondition:
                continue
            MJ = own_m(sol, prob.mbar)
            if sol.strategy in NO_JBAR:
                assert np.all(np.abs(MJ - M) <= 1e-12 * (1.0 + np.abs(M).max(
                    initial=0.0)))
            y = sol.solve(h)
            assert np.linalg.norm(MJ @ y - h) <= 1e-10 * np.linalg.norm(h)

    @settings(max_examples=120, deadline=None)
    @given(structures(), st.booleans())
    @example(([0, 2, 0], 1, False, False, 3), False)
    def test_smw_diag_shift_bounds_the_spectrum(self, structure, ill):
        # lam_i I - Bbar_i Bbar_i^T is positive definite in exact rational
        # arithmetic on the stored entries of Bbar_i (empty for no rows)
        prob = oracle_structure(*structure, ill=ill)
        lams = msolver._diag_shifts(prob)
        for lam, s in zip(lams, prob.scenarios):
            bb = [[Fraction(v) for v in row] for row in to_dense(s.Bbar)]
            shifted = [[(Fraction(lam) if r == c else 0)
                        - sum(a * b for a, b in zip(bb[r], bb[c]))
                        for c in range(s.m)] for r in range(s.m)]
            assert exactly_positive_definite(shifted)

    @settings(max_examples=60, deadline=None)
    @given(structures())
    @example(([0, 3], 1, False, False, 1))
    @example(([3], 1, True, False, 0))
    @example(([1, 1, 5], 1, False, False, 5))
    def test_condition_1e10_block(self, structure):
        # D^{-1} = blockdiag(L_i^{-T} L_i^{-1}) is an explicit inverse made
        # from the factors L_i that LAPACK's triangular solves substitute
        # with, so the two differ by the rounding of inverting L_i, bounded
        # by a small multiple of m_i^2 eps cond(L_i) ||D_i^{-1}|| ||h_i||
        # (cond(L_i) = sqrt(cond(D_i))); a fixed relative bound failed on
        # some structures, well-conditioned blocks included.  block-diag
        # applies explicit inverses of the diagonal blocks E_i of M + Jbar,
        # so its residual is bounded by a multiple of m^2 eps cond(E_i)
        # ||h||, not backward stable.  The SMW form's residual grows with
        # cond(D_i) (about 1e-16 cond(D_i) measured).  The others stay
        # backward stable, but no strategy can promise 1e-10 ||h|| here:
        # chol's residual itself reaches ~1e-6 ||h||.
        eps = np.finfo(float).eps
        prob = oracle_structure(*structure, ill=True)
        M = assemble_m_dense(prob)
        rng = np.random.default_rng(structure[-1])
        h = rng.normal(size=prob.mbar)
        try:
            groups, lows = bbar_gram_factors(prob, "")
        except StrategyPrecondition:
            groups = None
        if groups is not None:
            got = msolver._inverse_csr(prob, groups, lows) @ h
            # LAPACK's triangular solves with the same factors L_i
            facs = [None] * prob.N
            for idx, low in zip(groups, lows):
                for i, lo in zip(idx, low):
                    facs[i] = CholFactor("dense", lo, lo.shape[0])
            want = _blockwise(prob, [f.solve for f in facs])(h)
            for i, f in enumerate(facs):
                m, sl = f.dim, prob.y_slice(i)
                if m == 0:
                    continue
                sv = np.linalg.svd(f.lower, compute_uv=False)
                # cond(L_i) ||D_i^{-1}|| = (s_max / s_min) / s_min^2
                bound = (16 * m * m * eps * sv[0] / sv[-1] ** 3
                         * np.linalg.norm(h[sl]))
                assert np.linalg.norm(got[sl] - want[sl]) <= bound
        for strategy in msolver.STRATEGIES + ("auto",):
            try:
                sol = build_msolver(prob, strategy)
            except StrategyPrecondition:
                continue
            MJ = own_m(sol, prob.mbar)
            y = sol.solve(h)
            res = np.linalg.norm(MJ @ y - h)
            if sol.strategy == "block-diag":
                blocks = [MJ[prob.y_slice(i), prob.y_slice(i)]
                          for i in range(prob.N) if prob.m_i[i]]
                cond = max((np.linalg.cond(E) for E in blocks), default=1.0)
                m = max(prob.m_i)
                assert res <= 32 * m * m * eps * cond * np.linalg.norm(h)
                continue
            scale = np.linalg.norm(MJ, 2) * np.linalg.norm(y) + np.linalg.norm(h)
            tol = 1e-14 * 1e10 if sol.strategy == "smw" else 1e-13
            assert res <= tol * scale
