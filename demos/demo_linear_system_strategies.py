"""Strategies for the coupled scenario system M ybar = h.

M = B B* + Bbar Bbar* + Jbar ties all scenarios together through the
first-stage columns.  This script builds one random structure and walks the
two factorizations: full Cholesky and the Woodbury reduction to a small
first-stage system (in the form the cost model prices lower, shown on two
facility-location relaxations with sparse B, one on each side).  A
proximal term Jbar, any PSD matrix, goes with Cholesky: the last lines
solve M + Jbar and check it against a dense assembly.
"""

import numpy as np

from dbasolve import build_msolver
from dbasolve.builders import build_ufl_dnn, random_ufl
from dbasolve.model import DBAProblem, ScenarioBlock
from dbasolve.msolver import (_column_support, _factored_form,
                              assemble_m_dense)
from dbasolve.proxcone import NonnegOrthant, Zero

rng = np.random.default_rng(1)
n0, N = 12, 6
blocks = []
for _ in range(N):
    mi = int(rng.integers(3, 7))
    B = rng.normal(size=(mi, n0))
    Bbar = rng.normal(size=(mi, mi + 3))
    blocks.append(ScenarioBlock(B, Bbar, np.zeros(mi), np.zeros(mi + 3),
                                NonnegOrthant(mi + 3), Zero(mi + 3)))
problem = DBAProblem(None, None, np.zeros(n0), NonnegOrthant(n0), Zero(n0),
                     blocks)
h = rng.normal(size=problem.mbar)


def compare_with_dense(problem, h):
    """chol and smw against a dense assembly and solve.  smw solves in its
    factored form, D^-1 h - R (R^T h), or in the Woodbury form through
    G_SS, whichever the cost model prices lower: the factored one always
    when B is stored dense."""
    reference = np.linalg.solve(assemble_m_dense(problem), h)
    dense_b = isinstance(problem.B.matrix, np.ndarray)
    factored = _factored_form(problem, _column_support(problem.B.matrix).size)
    print("%d rows over %d scenarios, B stored %s"
          % (problem.mbar, problem.N, "dense" if dense_b else "sparse"))
    for strategy in ("chol", "smw"):
        sol = build_msolver(problem, strategy)
        err = (np.linalg.norm(sol.solve(h) - reference)
               / np.linalg.norm(reference))
        label = strategy
        if strategy == "smw":
            label += " (factored)" if factored else " (G_SS form)"
        print("  %-17s matches dense solve, rel err %.2e" % (label, err))


# reference: dense assembly and solve
print("coupled system:", end=" ")
compare_with_dense(problem, h)
# 5 facilities: R has 5 dense columns; 40: the G_SS form's sparse products
# cost less than R's 40 columns
for p, q in ((5, 140), (40, 20)):
    ufl = build_ufl_dnn(random_ufl(p, q, seed=1))
    print("facility location:", end=" ")
    compare_with_dense(ufl, np.random.default_rng(2).normal(size=ufl.mbar))

# a PSD proximal term changes M itself: chol solves M + Jbar
X = rng.normal(size=(problem.mbar, 3))
J = 0.5 * np.eye(problem.mbar) + X @ X.T
sol = build_msolver(problem, "chol", jbar=J)
ref = np.linalg.solve(assemble_m_dense(problem, jbar=J), h)
err = np.linalg.norm(sol.solve(h, check_residual=True) - ref) / np.linalg.norm(ref)
print("chol + Jbar matches its dense system, rel err %.2e, residual %.2e"
      % (err, sol.last_relres))
