"""An external reference: HiGHS (shipped with SciPy as
``scipy.optimize.linprog(method="highs")``) solves the extensive form of
small random two-stage LPs, and sgs-admm's primal objective must agree
with it within the gap tolerance."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from dbasolve import SolverConfig, admm_solve, random_two_stage


def extensive_form_optimum(problem):
    """Optimal value of min c x + cbar xbar over A x = b,
    B x + Bbar xbar = bbar, x >= 0, xbar >= 0, by HiGHS."""
    A_eq = sp.vstack([
        sp.hstack([sp.csr_matrix(problem.A),
                   sp.csr_matrix((problem.m0, problem.nbar))]),
        sp.hstack([sp.csr_matrix(problem.B.matrix),
                   sp.csr_matrix(problem.Bbar.matrix)])]).tocsr()
    res = linprog(problem.cc, A_eq=A_eq,
                  b_eq=np.concatenate((problem.b, problem.bbar)),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("strategy", ["chol", "smw"])
def test_objective_matches_highs(seed, strategy):
    # chol and smw are the strategies auto picks for a general problem
    problem = random_two_stage(2, 6, 3, 6, N=6, seed=seed, quad_eps=0.0)
    f_star = extensive_form_optimum(problem)
    cfg = SolverConfig(strategy=strategy)
    report = admm_solve(problem, cfg)
    assert report.status == "Converged"
    assert abs(report.obj_p - f_star) <= 2 * cfg.tol_gap * (1 + abs(f_star))
