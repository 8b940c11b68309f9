"""Strategies for the coupled scenario system M ybar = h.

M = B B* + Bbar Bbar* + Jbar ties all scenarios together through the
first-stage columns.  This script builds one random structure and walks the
available factorizations: full Cholesky, the Woodbury reduction to a small
first-stage system (with exact or diagonalized scenario grams; in the
form the cost model prices lower, shown on two facility-location
relaxations with sparse B, one on each side), and the proximal choices
of Jbar that make M block diagonal so every scenario can be solved
independently.
"""

import numpy as np

from dbasolve import build_msolver
from dbasolve.builders import build_ufl_dnn, random_ufl
from dbasolve.model import DBAProblem, ScenarioBlock
from dbasolve.msolver import (_column_support, _factored_form,
                              assemble_m_dense, ebj_block_diag_J,
                              std_block_diag_J)
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

# the diagonalizing choice changes M itself: check its own residual
sol = build_msolver(problem, "smw-diag")
y = sol.solve(h, check_residual=True)
print("%-10s solves its own system, residual %.2e" % ("smw-diag", sol.last_relres))

# block-diagonalizing proximal terms: coupling norms vs the conservative rule
J_ebj = ebj_block_diag_J(problem)
J_std = std_block_diag_J(problem)
print("proximal traces: coupling-norm %.1f vs conservative %.1f"
      % (np.trace(J_ebj), np.trace(J_std)))
for variant, J in (("ebj", J_ebj), ("std", J_std)):
    sol = build_msolver(problem, "block-diag", jbar=variant)
    ref = np.linalg.solve(assemble_m_dense(problem, jbar=J), h)
    err = np.linalg.norm(sol.solve(h) - ref) / np.linalg.norm(ref)
    print("block-diag/%-3s matches its dense system, rel err %.2e" % (variant, err))
