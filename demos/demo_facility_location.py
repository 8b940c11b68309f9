"""Doubly nonnegative relaxation of uncapacitated facility location.

Lifts the binary opening variables to a PSD + entrywise-nonnegative matrix
and treats every customer as one scenario block.  All customer blocks share
identical coupling and recourse maps; the structured linear solver treats
them like any other blocks and picks its strategy by the cost model.  On
tiny instances the relaxation value is checked against the exact integer
optimum by enumeration.
"""

import itertools

import numpy as np

from dbasolve import SolverConfig, admm_solve, build_ufl_dnn, random_ufl


def integer_optimum(inst):
    """Enumerate open-facility subsets; allocate customers by bisection."""
    best = np.inf
    for mask in itertools.product([0, 1], repeat=inst.p):
        u = np.array(mask, dtype=float)
        if u.sum() == 0:
            continue
        idx = np.flatnonzero(u)
        total = float(inst.c @ u)
        for j in range(inst.q):
            P, Q = inst.P[idx, j], inst.Q[idx, j]
            if np.all(Q > 0):
                lo, hi = P.min(), (P + Q).max() + 1.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if np.clip((mid - P) / Q, 0, 1).sum() > 1:
                        hi = mid
                    else:
                        lo = mid
                s = np.clip((0.5 * (lo + hi) - P) / Q, 0, 1)
                s /= s.sum()
                total += float(P @ s + 0.5 * Q @ (s * s))
            else:
                total += float(P.min())
        best = min(best, total)
    return best


inst = random_ufl(p=4, q=6, seed=7, quadratic=True)
prob = build_ufl_dnn(inst)
print("lifted dimensions: matrix order %d, %d customer blocks of size %d"
      % (1 + inst.p, prob.N, prob.n_i[0]))

rep = admm_solve(prob, SolverConfig(tol_kkt=1e-7, tol_gap=1e-7))
ip = integer_optimum(inst)
print("relaxation value %.6f  <=  integer optimum %.6f  (gap %.2f%%)"
      % (rep.obj_p, ip, 100 * (ip - rep.obj_p) / ip))
assert rep.obj_p <= ip + 1e-6 * (1 + abs(ip))

# with 100 customers the cost model prefers smw, which factors every
# Bbar_j Bbar_j^T once at setup, to a Cholesky factor of the 500 x 500 M:
# the same exact M, so the same iterate stream up to rounding
big = build_ufl_dnn(random_ufl(p=4, q=100, seed=7, quadratic=True))
reps = {strategy: admm_solve(big, SolverConfig(strategy=strategy,
                                               tol_kkt=1e-7, tol_gap=1e-7))
        for strategy in ("auto", "chol")}
assert reps["auto"].extra["strategy"] == "smw"
for strategy, r in reps.items():
    print("%-4s -> %-4s  %s in %d iterations, objective %.8f"
          % (strategy, r.extra["strategy"], r.status, r.iterations, r.obj_p))
print("auto (smw) reproduces chol's objective: %.2e"
      % abs(reps["auto"].obj_p - reps["chol"].obj_p))
