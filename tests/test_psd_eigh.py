"""PsdCone's eigenvalue calls go straight to numpy's LAPACK gufuncs: the
same bytes as the np.linalg.eigh / eigvalsh forms, the same errors, and
the public wrappers when the private names are missing."""

import numpy as np
import pytest

from dbasolve import proxcone
from dbasolve.blocklinalg import smat, svec, svec_dim
from dbasolve.builders import random_sdp
from dbasolve.errors import NumericalError
from dbasolve.proxcone import PsdCone
from dbasolve.solvers import SolverConfig, admm_solve


def eigh_project(cone, x):
    """PsdCone.project with np.linalg.eigh."""
    vals, vecs = np.linalg.eigh(smat(x.reshape(cone.k, -1), cone.d))
    np.maximum(vals, 0.0, out=vals)
    return svec((vecs * vals[:, None, :]) @ vecs.swapaxes(1, 2)).ravel()


def eigvalsh_support(cone, w, feas_tol):
    """PsdCone.support with np.linalg.eigvalsh."""
    w = np.reshape(w, (cone.k, -1))
    lam_max = np.linalg.eigvalsh(smat(w, cone.d))[:, -1]
    if np.all(lam_max <= feas_tol * (1.0 + np.linalg.norm(w, axis=1))):
        return 0.0
    return np.inf


def stack(k, d, seed):
    """svec of ``k`` symmetric blocks of order ``d``, cycling through a
    generic block, a rank-deficient one, one of signed zeros, and generic
    blocks scaled by 1e150 and 1e-150."""
    rng = np.random.default_rng(seed)
    blocks = []
    for j in range(k):
        kind = (seed + j) % 5
        if kind == 1:                   # rank one, semidefinite or not
            u = rng.standard_normal(d)
            a = rng.choice((-1.0, 1.0)) * np.outer(u, u)
        elif kind == 2:
            neg = np.tril(rng.random((d, d)) < 0.5)
            a = np.where(neg | neg.T, -0.0, 0.0)
        else:
            a = rng.standard_normal((d, d))
            a = (a + a.T) * (1.0, 1e150, 1e-150)[kind % 3]
        blocks.append(svec(a))
    return np.concatenate(blocks)


CASES = [(k, d, seed) for k in (1, 3, 5) for d in (1, 2, 3, 6, 11)
         for seed in range(5)]


@pytest.mark.parametrize("k,d,seed", CASES)
def test_project_bytes_equal_eigh_form(k, d, seed):
    cone = PsdCone(d, k)
    x = stack(k, d, seed)
    assert x.size == k * svec_dim(d)
    assert cone.project(x).tobytes() == eigh_project(cone, x).tobytes()


@pytest.mark.parametrize("k,d,seed", CASES)
def test_support_and_eigenvalues_equal_eigvalsh_form(k, d, seed):
    cone = PsdCone(d, k)
    w = stack(k, d, seed)
    a = smat(w.reshape(k, -1), d)
    assert proxcone._eigvalsh(a).tobytes() == np.linalg.eigvalsh(a).tobytes()
    vals, vecs = proxcone._eigh(a)
    ref_vals, ref_vecs = np.linalg.eigh(a)
    assert vals.tobytes() == ref_vals.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()
    with np.errstate(over="ignore"):    # norms of the 1e150 blocks
        for tol in (0.0, 1e-8, 1e300):
            assert cone.support(w, tol) == eigvalsh_support(cone, w, tol)


@pytest.mark.parametrize("method", ["project", "support"])
def test_nan_block_raises_linalg_error(method):
    cone = PsdCone(3, 3)
    x = stack(3, 3, 0)
    x[svec_dim(3) + 1] = np.nan
    args = (x,) if method == "project" else (x, 1e-8)
    with pytest.raises(np.linalg.LinAlgError):
        getattr(cone, method)(*args)


@pytest.mark.parametrize("tau", [None, 1.618], ids=["halpern", "classic"])
def test_nan_reaching_the_projection_is_a_numerical_error(tau):
    prob = random_sdp(2, 3, 2, 3, N=3, seed=1)
    cfg = SolverConfig(tau=tau, max_iter=5)
    rep = admm_solve(prob, cfg)
    rep.dual.zbar[0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericalError, match="^non-finite iterate at iteration 0: ") as exc:
        admm_solve(prob, cfg, initial=rep)
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("k,d", [(1, 1), (3, 6), (5, 11)])
def test_fallback_without_private_names_gives_the_same_bytes(monkeypatch,
                                                             k, d):
    cone = PsdCone(d, k)
    x = stack(k, d, 3)
    a = smat(x.reshape(k, -1), d)

    def outputs():
        with np.errstate(over="ignore"):
            return (cone.project(x).tobytes(), proxcone._eigvalsh(a).tobytes(),
                    [cone.support(x, tol) for tol in (0.0, 1e300)])

    direct = outputs()
    monkeypatch.setattr(proxcone, "_EIGH_LO", None)
    monkeypatch.setattr(proxcone, "_EIGVALSH_LO", None)
    assert outputs() == direct
    if d > 1:       # LAPACK returns a 1 x 1 NaN block as its eigenvalue
        x[0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            cone.project(x)
