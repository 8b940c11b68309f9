"""Certificates from the caller's own sums.

``kkt_full`` given the joint dual sums and the linear residues that its
caller holds returns the same floats as the call that recomputes them; the
loop and PHA pass them in and no longer recompute; the conjugates' short
paths return what their general forms return."""

import numpy as np
import pytest

import dbasolve.model as model
import dbasolve.pha as pha
import dbasolve.solvers as solvers
from dbasolve.builders import random_sdp, random_two_stage
from dbasolve.pha import PhaConfig, pha_solve
from dbasolve.proxcone import (BlockFunction, DiagQuadratic, NonnegOrthant,
                               _blockwise_clamp)
from dbasolve.solvers import SolverConfig, admm_solve

from conftest import make_free_qp, make_two_scenario_lp

FEAS_TOL = 1e-8
INSTANCES = {
    "two-scenario-lp": make_two_scenario_lp,
    "free-qp": make_free_qp,
    "small-sdp": lambda: random_sdp(2, 3, 2, 3, N=3, seed=2),
}
# the classic step runs at scale 1; the default Halpern step under the
# stage scale, below 1 on all three instances
STEPS = {"scale-1": 1.618, "stage-scale": None}


def recomputing(monkeypatch, owner, checks):
    """Replace ``owner.kkt_full`` by a wrapper that also makes the call
    without ``sums`` and ``lin`` and records the keywords and whether the
    two results are equal (``==``: every float, bit for bit)."""
    full = model.kkt_full

    def checked(problem, xx, dual, **kw):
        got = full(problem, xx, dual, **kw)
        want = full(problem, xx, dual, denoms=kw.get("denoms"))
        checks.append((sorted(kw), got == want))
        return got

    monkeypatch.setattr(owner, "kkt_full", checked)


@pytest.mark.parametrize("step", sorted(STEPS))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_loop_certificates_match_recomputed(monkeypatch, name, step):
    checks = []
    recomputing(monkeypatch, solvers, checks)
    rep = admm_solve(INSTANCES[name](), SolverConfig(tau=STEPS[step]))
    assert rep.converged
    scale = rep.extra["stage_scale"]
    assert (scale == 1.0) == (step == "scale-1")
    # at scale 1 every full check passes the iteration's sums; under the
    # stage scale they are the scaled problem's and none goes in
    kws = ["denoms", "lin", "sums"] if scale == 1.0 else ["denoms"]
    assert checks and checks == [(kws, True)] * len(checks)


@pytest.mark.parametrize("step", sorted(STEPS))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_held_sums_on_the_working_problem(name, step):
    # the sums and linear residues of the sweep, on the problem in the
    # setup's variables, give the certificate the recomputation gives
    problem = INSTANCES[name]()
    setup = solvers.solve_setup(problem, SolverConfig(),
                                scaled=STEPS[step] is None)
    work = solvers._scaled_problem(problem, setup)
    s = setup.scale
    denoms = model.residue_denominators(problem)
    denoms = (denoms[0], s * denoms[1], denoms[2], denoms[3])
    v_free = problem.joint_theta.is_zero
    st = solvers.zero_state(work)
    sums = None
    for _ in range(25):
        _, d, d_bar, sums, _ = solvers._sgs_iteration(
            work, st, 0.7, 1.618, setup.msolver, setup.afactor, 1e-4,
            SolverConfig(), sums=sums, v_free=v_free)
        lin = model.joint_linear_residues(work, st.xx, d, d_bar, denoms)
        want = model.kkt_full(work, st.xx, st, denoms=denoms)
        assert model.kkt_full(work, st.xx, st, denoms=denoms, sums=sums,
                              lin=lin) == want
        assert model.kkt_full(work, st.xx, st, denoms=denoms,
                              sums=sums) == want


def pha_problem():
    return random_two_stage(2, 4, 2, 4, N=3, seed=1, quad_eps=0.1)


def test_pha_averaged_point_matches_recomputed(monkeypatch):
    checks = []
    recomputing(monkeypatch, pha, checks)
    rep = pha_solve(pha_problem(), PhaConfig(rho=10.0))
    assert rep.converged
    assert checks == [(["denoms", "sums"], True)] * rep.iterations


def counting(monkeypatch, owner, name, counts):
    """Count the calls made through ``owner.name`` in ``counts[name]``."""
    orig = getattr(owner, name)
    counts[name] = 0

    def counted(*args, **kw):
        counts[name] += 1
        return orig(*args, **kw)

    monkeypatch.setattr(owner, name, counted)


def test_loop_full_check_recomputes_no_sums(monkeypatch):
    # at scale 1 kkt_full forms neither the joint dual sums nor the linear
    # residues: both are the iteration's own
    counts, inside = {}, []
    for name in ("joint_dual_sums", "joint_linear_residues"):
        counting(monkeypatch, model, name, counts)
    full = solvers.kkt_full

    def measured(*args, **kw):
        before = dict(counts)
        out = full(*args, **kw)
        inside.append({k: counts[k] - before[k] for k in counts})
        return out

    monkeypatch.setattr(solvers, "kkt_full", measured)
    rep = admm_solve(make_two_scenario_lp(), SolverConfig(tau=1.618))
    assert rep.converged and rep.extra["stage_scale"] == 1.0
    assert inside and all(c == {"joint_dual_sums": 0,
                                "joint_linear_residues": 0} for c in inside)


def test_pha_check_forms_linear_sums_once(monkeypatch):
    # the averaged dual's sums serve its certificate: one W* and one A*
    # product pair per outer iteration, outside the bundle solves
    counts, inside = {}, []
    counting(monkeypatch, model, "linear_dual_sums", counts)
    admm = pha.admm_solve

    def bundle_solve(*args, **kw):
        before = counts["linear_dual_sums"]
        try:
            return admm(*args, **kw)
        finally:
            inside.append(counts["linear_dual_sums"] - before)

    monkeypatch.setattr(pha, "admm_solve", bundle_solve)
    rep = pha_solve(pha_problem(), PhaConfig(rho=10.0))
    assert rep.converged and len(inside) == rep.iterations
    assert counts["linear_dual_sums"] - sum(inside) == rep.iterations


# --- conjugates --------------------------------------------------------------

def masked_conjugate(diag, w, feas_tol):
    """DiagQuadratic's conjugate as it reads with masks for every diagonal."""
    zero = diag == 0.0
    if np.any(np.abs(w[zero]) > feas_tol):
        return np.inf
    pos = ~zero
    return 0.5 * float(np.sum(w[pos] ** 2 / diag[pos]))


def same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


def diagonals(rng, n=11):
    pos = rng.uniform(0.1, 3.0, n)
    some_zero = pos.copy()
    some_zero[[1, 4, 9]] = 0.0
    return {"positive": pos, "some-zero": some_zero,
            "all-zero": np.zeros(n)}


@pytest.mark.parametrize("kind", ["positive", "some-zero", "all-zero"])
def test_diag_conjugate_matches_masked_form(kind):
    rng = np.random.default_rng(7)
    diag = diagonals(rng)[kind]
    f = DiagQuadratic(diag)
    assert f.has_zero == (kind != "positive")
    for k in range(40):
        w = rng.normal(size=diag.size) * 10.0 ** rng.integers(-12, 3)
        if k % 4 == 1:
            # inside the clamp on the zero entries, or just outside it
            w[diag == 0.0] = FEAS_TOL * (1.0 - 1e-12 if k % 8 == 1
                                         else 1.0 + 1e-12)
        if k % 4 == 3:
            w[k % diag.size] = np.nan
        assert same_float(f.conjugate(w, FEAS_TOL),
                          masked_conjugate(diag, w, FEAS_TOL))


def test_scaled_head_copy_keeps_its_zero_record():
    # scaled_head rebuilds the merged diagonal; its record of zeros and
    # its conjugate follow the new diagonal
    rng = np.random.default_rng(8)
    d = diagonals(rng)
    for head, tail in ((d["positive"], d["some-zero"]),
                       (d["some-zero"], d["positive"]),
                       (d["positive"], d["positive"])):
        f = BlockFunction([DiagQuadratic(head), DiagQuadratic(tail)])
        g = f.scaled_head(head.size, 0.37)
        (part, _, _), = g.groups
        assert np.array_equal(part.diag, np.concatenate((0.37 * head, tail)))
        assert part.has_zero == bool((part.diag == 0.0).any())
        for _ in range(10):
            w = rng.normal(size=part.dim)
            assert same_float(g.conjugate(w, FEAS_TOL),
                              masked_conjugate(part.diag, w, FEAS_TOL))


def reduceat_clamp(w, starts, feas_tol):
    """The orthant group's clamp as it reads without the early exit."""
    norms = np.sqrt(np.add.reduceat(w * w, starts))
    peak = np.maximum.reduceat(w, starts)
    return 0.0 if np.all(peak <= feas_tol * (1.0 + norms)) else np.inf


def test_orthant_clamp_matches_reduceat_form():
    rng = np.random.default_rng(9)
    starts = np.array([0, 3, 4, 9, 12])
    n = 15
    cone = NonnegOrthant(n)
    for k in range(60):
        w = -np.abs(rng.normal(size=n)) * 10.0 ** rng.integers(-3, 3)
        j = int(rng.integers(n))
        block = np.searchsorted(starts, j, side="right") - 1
        lo = starts[block]
        hi = starts[block + 1] if block + 1 < starts.size else n
        own = np.linalg.norm(np.delete(w[lo:hi], j - lo))
        rel = (1.0 - 1e-9, 1.0 + 1e-9)[k % 2]
        if k % 6 < 2:
            # just below or just above feas_tol itself
            w[j] = FEAS_TOL * rel
        elif k % 6 < 4:
            # just below or just above the block's own clamp (its norm
            # counts w_j too, so this is within a rounding of it)
            w[j] = FEAS_TOL * (1.0 + own) * rel
        elif k % 6 == 4:
            w[j] = np.nan
        else:
            w[j] = abs(w[j])
        assert _blockwise_clamp(cone, w, starts, FEAS_TOL) == \
            reduceat_clamp(w, starts, FEAS_TOL)


@pytest.mark.parametrize("layout", ["contiguous", "strided", "reversed",
                                    "2-d"])
def test_data_norm_is_the_linalg_norm(layout):
    rng = np.random.default_rng(10)
    for _ in range(20):
        v = rng.normal(size=60) * 10.0 ** rng.integers(-150, 150)
        v = {"contiguous": v, "strided": v[::3], "reversed": v[::-1],
             "2-d": v.reshape(6, 10)}[layout]
        got = model._data_norm(v)
        assert type(got) is float and got == np.linalg.norm(v)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_residue_denominators_are_the_linalg_norms(name):
    prob = INSTANCES[name]()
    nrm = np.linalg.norm
    assert model.residue_denominators(prob) == (
        None if prob.A is None else 1.0 + nrm(prob.b), 1.0 + nrm(prob.c),
        1.0 + nrm(prob.bbar), 1.0 + nrm(prob.cbar))
