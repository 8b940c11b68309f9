"""Structured solvers for the coupled system M ybar = h.

M = B B* + Bbar Bbar* + Jbar couples all scenarios through the first-stage
columns of B.  Strategies:

* ``chol``  factor M assembled once (small row totals); the one strategy
            that takes a proximal term Jbar, given as a PSD matrix;
* ``smw``   Sherman-Morrison-Woodbury with Jbar = 0:
            M^{-1} h = D^{-1} h - D^{-1} B G^{-1} B* D^{-1} h with
            D_i = Bbar_i Bbar_i* and G = I + sum_i B_i* D_i^{-1} B_i.

Under ``auto`` every problem, identical blocks and facility-location
relaxations included, gets ``chol`` or ``smw`` by the cost model of
:func:`m_solve_cost_ns`, at every size.

Every scenario gram Bbar_i Bbar_i* comes from one sparse product of the
assembled operator with its transpose (:meth:`BlockDiagOp.gram`): ``chol``
adds it to B B*, and ``smw`` gathers its diagonal blocks into one dense
(n_g, m, m) stack per row count, factors a stack by one batched Cholesky,
inverts its factors in min(n_g, m) numpy steps (:func:`_lower_inverses`)
and assembles D^{-1} = blockdiag(L_i^{-T} L_i^{-1}) once into one CSR
matrix, applied by one sparse mat-vec whatever the row counts.  Under
``auto``, ``smw`` checks the exact 1-norm condition ||D_i||_1
||D_i^{-1}||_1 of every block from the stacks just built.  When every
scenario has the same row count m and the same gram bit for bit (fixed
recourse, as in facility location), ``smw`` factors and inverts that one
m x m gram instead and applies D^{-1} h as one GEMM of h reshaped to
(N, m).

G = I + B* D^{-1} B is the identity off the set S of columns where B has
stored entries, and B* D^{-1} h vanishes there, so ``smw`` builds only
G_SS = I + B_S* D^{-1} B_S.  With S empty (B = 0), M^{-1} = D^{-1}.
``smw`` solves in one of two forms, the cheaper by the two estimates of
:func:`m_solve_cost_ns` (:func:`_factored_form`), which ``auto`` prices:

* the factored form, when G_SS is Cholesky-factored (|S| <=
  ``_G_CHOL_DIM``): the build keeps R = D^{-1} B_S L_G^{-T}, a dense
  mbar x |S| array, from the D^{-1} B_S and the factor L_G that the G_SS
  build forms anyway, and a solve is M^{-1} h = D^{-1} h - R (R^T h): one
  D^{-1} apply and two GEMVs.  It always wins with B stored dense, whose
  B_S the other form multiplies by twice, and with a CSR B while |S| is
  small against the fixed cost of the other form's extra calls;
* the ``G_SS`` form (a PCG G-solve takes it too) applies D^{-1} twice,
  keeps the entries S of B* u, solves with G_SS and applies B to w
  scattered into a zero n0-vector.  Its products with a CSR B cost B's
  stored entries, where R is dense: it wins where mbar |S| is large
  against them, as on facility location with many facilities.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .blocklinalg import (_CHOL_PIVOT_RTOL, _MATVEC_DENSE_SIZE,
                          DENSE_FALLBACK_DENSITY, as_csr, canonicalize,
                          chol_factor, maybe_densify, mv, pcg_solve,
                          to_dense)
from .errors import (NotPositiveDefinite, ParameterError,
                     StrategyPrecondition)

STRATEGIES = ("chol", "smw")

_G_CHOL_DIM = 2000
# auto rejects smw when some Bbar_i Bbar_i^T has a 1-norm condition
# above this: its backward error grows as about 1e-16 cond(Bbar_i Bbar_i^T),
# while chol's does not
_AUTO_MAX_COND = 1e8
# PCG tolerance of an M solve called without one
_PCG_TOL = 1e-10


def auto_strategy(problem):
    """Strategy selection by estimated solve cost.

    Only the build of ``smw`` finds out whether every ``Bbar_i Bbar_i^T`` is
    positive definite and, under ``auto``, of condition at most 1e8;
    :func:`build_msolver` then tries the next of :func:`auto_candidates`."""
    return auto_candidates(problem)[0]


def auto_candidates(problem):
    """The strategies ``auto`` builds, in order, until one builds: ``chol``
    where :func:`m_solve_cost_ns` prices it at most ``smw``, otherwise
    ``smw`` and then ``chol``."""
    return _auto_plan(problem)[0]


def _auto_plan(problem):
    """:func:`auto_candidates` and the ``smw`` form the cost model priced
    for them, ``(S, factored)`` as :func:`_priced` gives it (``None``
    without ``smw``), so that the ``smw`` build prices nothing again."""
    chol, smw, form = _priced(problem)
    if chol <= smw:
        return ["chol"], None
    return ["smw", "chol"], form


# Estimated time of one M solve in ns, from block shapes.  Timeit minima on
# a 2-vCPU VM, one BLAS thread, numpy 2.4, scipy 1.17.
#   chol: two dense triangular solves with the mbar x mbar factor, memory
#         bound: 4 us + 0.66 ns per factor entry (fitted to one 1-d solve on
#         14 instances: random_two_stage with mbar 48-2000 and random
#         ragged blocks with 1-6 row counts).
#   smw:  one application of D^{-1} per pass: the block-diagonal CSR
#         mat-vec (0.45 ns per stored entry and 0.75 ns per row) or, when
#         every Bbar_i is stored alike, the GEMM of h reshaped to (N, m)
#         (1.0 ns per entry of h and 0.034 ns per multiply-add over and
#         above the call, fitted to N x m from 12 x 4 to 20 x 200).
#         - The factored form (|S| <= _G_CHOL_DIM) makes one pass and two
#           GEMVs with R: 7.7 us + 3.1 ns per row + 0.39 ns per entry of
#           R, fitted over whole solves on 22 dense-B instances
#           (random_two_stage with mbar 16-10000, shared grams, ragged
#           blocks, random_sdp and small facility-location relaxations;
#           estimates within 30%).
#         - The other form makes two passes, the products with B_S and
#           B_S* and the |S| x |S| solve with G_SS (priced as chol's):
#           13.6 us + 3.2 ns per row + 2.2 ns per stored entry of B_S,
#           fitted over whole solves on 11 sparse-B instances (facility
#           location up to mbar 6300 and random CSR B; estimates within
#           35%).
def m_solve_cost_ns(problem):
    """Estimated ns per M solve: ``(chol, smw)``, ``smw`` in the form that
    :func:`_factored_form` picks, the cheaper of :func:`smw_form_costs`."""
    return _priced(problem)[:2]


def _priced(problem):
    """:func:`m_solve_cost_ns` and the form it priced ``smw`` in:
    ``(S, factored)``, the column support of ``B`` and whether the
    factored form is the cheaper (:func:`_factored_form`)."""
    mbar = float(problem.mbar)
    chol = 4000.0 + 0.66 * mbar ** 2
    S = _column_support(problem.B.matrix)
    factored, other = smw_form_costs(problem, S.size)
    return chol, min(factored, other), (S, factored <= other)


def smw_form_costs(problem, n_support):
    """Estimated ns per ``smw`` solve, ``(factored, other)``: the factored
    form (``inf`` when G_SS, of order ``n_support`` = |S|, is solved by
    PCG) and the G_SS form."""
    m = np.asarray(problem.m_i)
    Bm = problem.B.matrix
    s = float(n_support)
    mbar = float(problem.mbar)
    entries = float(np.sum(m * m))
    if _identical_blocks(problem.Bbar.blocks):
        dinv = 1.0 * mbar + 0.034 * entries
    else:
        dinv = 0.45 * entries + 0.75 * mbar
    factored = (7700.0 + dinv + 3.1 * mbar + 0.39 * mbar * s
                if n_support <= _G_CHOL_DIM else np.inf)
    stored = Bm.nnz if sp.issparse(Bm) else mbar * s
    other = (13600.0 + 2.0 * dinv + 3.2 * mbar + 2.2 * stored
             + 0.66 * s ** 2)
    return factored, other


def _identical_blocks(blocks):
    """Whether every block is stored as the first: both dense or both CSR,
    with equal arrays.  Their grams (:meth:`BlockDiagOp.gram`) then agree
    bit for bit, which is when ``smw`` applies D^{-1} as one GEMM."""
    first = blocks[0]
    ref = _stored(first)

    def same(blk):
        return blk is first or (type(blk) is type(first)
                                and blk.shape == first.shape
                                and all(map(np.array_equal, _stored(blk), ref)))
    return all(same(blk) for blk in blocks[1:])


def _stored(blk):
    """The arrays that hold a dense or CSR block."""
    if isinstance(blk, np.ndarray):
        return (blk,)
    return blk.indptr, blk.indices, blk.data


def _column_support(Bm):
    """Sorted indices of the columns of the dense or CSR matrix ``Bm`` that
    hold a stored entry (a nonzero one, for dense ``Bm``)."""
    if sp.issparse(Bm):
        return np.unique(Bm.indices[:Bm.indptr[-1]])
    return np.flatnonzero((Bm != 0).any(axis=0))


def assemble_m_dense(problem, jbar=None):
    """Dense M = B B^T + diag(Bbar_i Bbar_i^T) + Jbar (oracle/tests helper)."""
    Bd = np.vstack([to_dense(s.B) for s in problem.scenarios])
    M = Bd @ Bd.T
    for i, s in enumerate(problem.scenarios):
        bb = to_dense(s.Bbar)
        sl = problem.y_slice(i)
        M[sl, sl] += bb @ bb.T
    if jbar is not None:
        M = M + to_dense(jbar)
    return M


class MSolver:
    """Precomputed solver for M ybar = h under a chosen strategy.
    ``reads_tol`` records whether a solve reads its ``tol`` (only a PCG
    G-solve does); otherwise the tolerance need not be computed.
    ``minv_w`` is the dense ``M^{-1} W`` for ``W = [B Bbar]`` when the
    strategy built it (``chol`` on a small system), else ``None``.
    ``solve_impl(h, tol, stats=None)`` returns ``M^{-1} h``; one with an
    inner PCG sets ``last_inner_iters`` and ``last_inner_relres`` on
    ``stats``, which :meth:`solve` passes as the solver itself.

    :attr:`exact` says whether a solve applies ``(W W*)^{-1}`` up to
    rounding: no Jbar and no PCG G-solve.  That holds for ``chol`` without
    a ``jbar``, both ``smw`` forms and ``smw`` at ``B = 0``, and with it for
    the composed ``M^{-1} W``; not for ``chol`` with a ``jbar`` or a PCG
    G-solve.  After an exact ybar solve the scenario rows' primal residue
    needs no product (see :func:`~dbasolve.model.joint_linear_residues`)."""

    def __init__(self, problem, strategy, apply_jbar, solve_impl,
                 reads_tol=False, minv_w=None):
        self.problem = problem
        self.strategy = strategy
        self._apply_jbar = apply_jbar
        self._solve_impl = solve_impl
        self.reads_tol = reads_tol
        self.minv_w = minv_w
        self.last_relres = 0.0
        self.last_inner_iters = 0
        self.last_inner_relres = 0.0

    @property
    def exact(self):
        return self._apply_jbar is None and not self.reads_tol

    def apply_m(self, w):
        """M w, including the strategy's own Jbar."""
        p = self.problem
        out = p.B.apply(p.B.apply_adjoint(w)) + p.Bbar.apply(p.Bbar.apply_adjoint(w))
        if self._apply_jbar is not None:
            out += self._apply_jbar(w)
        return out

    def solve(self, h, tol=None, check_residual=False):
        # a solve with an inner PCG sets both again through ``stats``
        self.last_inner_iters, self.last_inner_relres = 0, 0.0
        y = self._solve_impl(h, tol if tol is not None else _PCG_TOL,
                             stats=self)
        if check_residual:
            nh = np.linalg.norm(h)
            self.last_relres = float(
                np.linalg.norm(self.apply_m(y) - h) / nh) if nh > 0 else 0.0
        return y


def build_msolver(problem, strategy="auto", jbar=None):
    """Precompute a structured solver for this problem's M system.

    ``jbar``, a PSD proximal term given as a matrix, is added to M
    (``chol`` only); any other use, ``auto`` included, raises
    :class:`ParameterError`.
    ``"auto"`` builds the first of :func:`auto_candidates` whose
    precondition holds, where ``smw`` also needs every ``Bbar_i Bbar_i^T``
    of 1-norm condition at most 1e8; an explicit strategy raises
    :class:`StrategyPrecondition` when its own precondition does not hold.
    """
    _check_jbar(strategy, jbar)
    auto = strategy == "auto"
    max_cond = _AUTO_MAX_COND if auto else np.inf
    candidates, form = _auto_plan(problem) if auto else ([strategy], None)
    *tries, last = candidates
    for candidate in tries:
        try:
            return _build(problem, candidate, jbar, max_cond, form)
        except StrategyPrecondition:
            pass
    return _build(problem, last, jbar, max_cond, form)


def _check_jbar(strategy, jbar):
    if jbar is not None and (isinstance(jbar, str) or strategy != "chol"):
        raise ParameterError(
            "jbar takes a matrix with strategy 'chol'; got %s with %r"
            % (repr(jbar) if isinstance(jbar, str) else "a matrix", strategy))


def _build(problem, strategy, jbar, max_cond, form=None):
    if strategy == "chol":
        return _build_chol(problem, jbar)
    if strategy == "smw":
        return _build_smw(problem, max_cond, form)
    raise StrategyPrecondition("unknown strategy %r" % (strategy,))


# ---------------------------------------------------------------------------
# strategy builders
# ---------------------------------------------------------------------------

def _build_chol(problem, jbar):
    Bs = as_csr(problem.B.matrix)
    M = Bs @ Bs.T + problem.Bbar.gram()
    apply_jbar = None
    if jbar is not None:
        M = M + sp.csr_matrix(jbar)
        jmat = canonicalize(jbar)
        apply_jbar = lambda w: mv(jmat, w)
    fac = chol_factor(maybe_densify(M.tocsr()))
    # a small system keeps M^{-1} W, one solve with the columns of W, so
    # that a sweep's ybar step is one dense product
    minv_w = None
    if problem.mbar * (problem.n0 + problem.nbar) <= _MATVEC_DENSE_SIZE:
        minv_w = fac.solve(to_dense(problem.W))
    return MSolver(problem, "chol", apply_jbar,
                   lambda h, tol, stats=None: fac.solve(h), minv_w=minv_w)


def _build_smw(problem, max_cond=np.inf, form=None):
    """The ``smw`` solver.  ``form`` is ``(S, factored)``: the column
    support of ``B`` and whether ``smw`` solves in the factored form, as
    ``auto`` priced it (:func:`_priced`); found here when ``None``."""
    apply_dinv, dinv_times = _bbar_gram_inverse(problem, max_cond)
    Bm = problem.B.matrix
    S, factored = (_column_support(Bm), None) if form is None else form
    if S.size == 0:
        # B = 0: M = D
        return MSolver(problem, "smw", None,
                       lambda h, tol, stats=None: apply_dinv(h))
    # take keeps a dense B_S row-major as B is (B[:, S] would not), so with
    # S all of n0 the G build is the same GEMM as with B itself
    Bs = canonicalize(Bm[:, S] if sp.issparse(Bm) else Bm.take(S, axis=1))
    DBs = dinv_times(Bs)
    BtDB = Bs.T @ DBs
    eye = (np.eye(S.size) if isinstance(BtDB, np.ndarray)
           else sp.identity(S.size, format="csr"))
    G = eye + BtDB
    # the storage maybe_densify picks for the whole n0 x n0 G (G_SS and the
    # identity off S), kept only so that S changes no storage choice
    if sp.issparse(G) and (G.nnz + problem.n0 - S.size
                           > DENSE_FALLBACK_DENSITY * float(problem.n0) ** 2):
        G = to_dense(G)
    g_solve, reads_tol, g_low = _make_g_solver(G)
    if factored is None:
        factored = _factored_form(problem, S.size)
    if factored:
        # R = D^{-1} B_S L_G^{-T}, so that D^{-1} B_S G_SS^{-1} B_S* D^{-1}
        # = R R^T; a GEMM with L_G^{-1} takes about half the time of a
        # triangular solve with the mbar columns of (D^{-1} B_S)^T
        R = DBs @ sla.lapack.dtrtri(g_low, lower=1)[0].T
        return MSolver(problem, "smw", None,
                       _make_factored_solve(apply_dinv, R))
    B_op, n0 = problem.B, problem.n0

    def b_apply(w):
        full = np.zeros(n0)
        full[S] = w
        return B_op.apply(full)

    impl = _make_smw_solve(apply_dinv, b_apply,
                           lambda u: B_op.apply_adjoint(u)[S], g_solve)
    return MSolver(problem, "smw", None, impl, reads_tol)


def _factored_form(problem, n_support):
    """Whether ``smw`` solves as D^{-1} h - R (R^T h): when its estimate in
    :func:`smw_form_costs` is at most the G_SS form's, for the column
    support S of B of size ``n_support``.  A PCG G-solve never does."""
    factored, other = smw_form_costs(problem, n_support)
    return factored <= other


def _size_groups(problem):
    """Scenario indices grouped by row count m_i, in increasing m_i."""
    sizes = np.asarray(problem.m_i)
    return [np.flatnonzero(sizes == m) for m in np.unique(sizes)]


def _block_stacks(problem, gram, groups):
    """Per group of ``groups``, the dense (n_g, m, m) stack of the diagonal
    blocks of ``gram``, an mbar x mbar block-diagonal CSR matrix with one
    m_i x m_i block per scenario (as :meth:`BlockDiagOp.gram` returns),
    where every scenario is in one group.  One pass over the stored
    entries fills every group."""
    m_i = np.asarray(problem.m_i)
    y = problem.y_offsets[:-1]
    m_g = [int(m_i[idx[0]]) for idx in groups]
    offs = np.cumsum([0] + [len(idx) * m * m for idx, m in zip(groups, m_g)])
    start = np.empty(problem.N, dtype=np.int64)
    for idx, m, off in zip(groups, m_g, offs):
        start[idx] = off + np.arange(len(idx)) * m * m
    # entry (r, c) of block i lands at start_i + (r - y_i) m_i + c - y_i
    row_base = (np.repeat(start - y * (m_i + 1), m_i)
                + np.arange(problem.mbar) * np.repeat(m_i, m_i))
    counts = np.diff(gram.indptr)
    buf = np.zeros(offs[-1])
    buf[np.repeat(row_base, counts) + gram.indices] = gram.data
    return [buf[off:off + len(idx) * m * m].reshape(len(idx), m, m)
            for idx, m, off in zip(groups, m_g, offs)]


def _bbar_gram_inverse(problem, max_cond):
    """``(apply, times)``: D^{-1} = blockdiag(Bbar_i Bbar_i^T)^{-1} applied
    to a vector and to a dense or CSR matrix, every gram of 1-norm
    condition at most ``max_cond``.  When all scenarios have one row count
    and every gram equals the first bit for bit, that one gram is factored,
    inverted and checked, D^{-1} is applied to a vector by
    :func:`_shared_block_apply` and to a matrix, densified, by one batched
    matmul; otherwise it is the block-diagonal CSR matrix of the inverses
    of :func:`_checked_inverses`."""
    what = "smw requires Bbar_{i} Bbar_{i}^T"
    groups = _size_groups(problem)
    grams = _block_stacks(problem, problem.Bbar.gram(), groups)
    if len(grams) == 1 and (grams[0] == grams[0][:1]).all():
        dinv1 = _checked_inverses([grams[0][:1]], [groups[0][:1]], max_cond,
                                  what)[0][0]
        N, m = problem.N, dinv1.shape[0]
        dinv1_t = np.ascontiguousarray(dinv1.T)
        return ((lambda h: _shared_block_apply(dinv1_t, N, h)),
                (lambda X: np.matmul(dinv1, to_dense(X).reshape(N, m, -1))
                 .reshape(X.shape)))
    dinv = _block_diag_csr(problem, groups, _checked_inverses(
        grams, groups, max_cond, what))
    return (lambda h: mv(dinv, h)), dinv.__matmul__


def _shared_block_apply(dinv1_t, N, h):
    """blockdiag(dinv1, ..., dinv1) h for N blocks: one GEMM with
    ``dinv1_t``, the transpose of ``dinv1`` held contiguous, a faster
    call than one with the view ``dinv1.T``.  On the facility location
    shapes of the tests and the benchmark the bytes are the view's; BLAS
    may sum other shapes (a single block, for one) in another order."""
    return (h.reshape(N, dinv1_t.shape[0]) @ dinv1_t).ravel()


def _checked_inverses(grams, groups, max_cond, what):
    """Per group, the (n_g, m, m) stack of inverses of its stack of
    symmetric matrices, from :func:`_factor_blocks` and
    :func:`_gram_inverses`.  A block whose 1-norm condition
    ``||D_i||_1 ||D_i^{-1}||_1``, from the blocks just built, exceeds
    ``max_cond`` raises :class:`StrategyPrecondition` naming the first
    such block (``what`` formatted with its scenario index ``i``); a block
    that is not positive definite is named before any of them.  The
    condition is exact up to rounding, so it is at least LAPACK
    ``dpocon``'s estimate, which is a lower bound of it."""
    invs = [_gram_inverses(low)
            for low in _factor_blocks(grams, groups, what)]
    if max_cond < np.inf:
        for gram, inv, idx in zip(grams, invs, groups):
            # the 1-norm of a symmetric block is its largest row sum
            cond = (np.abs(gram).sum(axis=2).max(axis=1, initial=0.0)
                    * np.abs(inv).sum(axis=2).max(axis=1, initial=0.0))
            bad = np.flatnonzero(~(cond <= max_cond))
            if bad.size:
                raise StrategyPrecondition(
                    "%s of condition at most %.0e (1-norm condition %.1e)"
                    % (what.format(i=idx[bad[0]]), max_cond, cond[bad[0]]))
    return invs


def _factor_blocks(grams, groups, what):
    """Per group, the lower Cholesky factors of its (n_g, m, m) stack of
    symmetric matrices, by one batched factorization.  A block that fails
    :func:`chol_factor`'s pivot rule raises :class:`StrategyPrecondition`
    naming the first such block (``what`` formatted with its scenario
    index ``i``)."""
    lows = []
    for gram, idx in zip(grams, groups):
        low = _batched_cholesky(gram)
        if low is None:
            # only on failure: factor block by block to name the first
            # failing one (a block SciPy's factorization accepts keeps its
            # factor)
            low = np.stack([_gram_factor(g, what.format(i=i)).lower
                            for g, i in zip(gram, idx)])
        lows.append(low)
    return lows


def _batched_cholesky(gram):
    """Lower factors of a stack of symmetric matrices, or ``None`` when some
    block is not positive definite by :func:`chol_factor`'s rule: a pivot
    at or below ``1e-13 * max(diag)`` of its block."""
    if gram.shape[1] == 0:
        return gram.copy()
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    pivots = np.diagonal(low, axis1=1, axis2=2).min(axis=1) ** 2
    diag = np.abs(np.diagonal(gram, axis1=1, axis2=2)).max(axis=1)
    return None if np.any(pivots <= _CHOL_PIVOT_RTOL * diag) else low


def _gram_inverses(low):
    """L_i^{-T} L_i^{-1} for a (n, m, m) stack of lower factors L_i, by
    :func:`_lower_inverses` and one batched matmul."""
    inv = _lower_inverses(low)
    return np.matmul(inv.transpose(0, 2, 1), inv)


def _lower_inverses(low):
    """L_i^{-1} for a (n, m, m) stack of nonsingular lower-triangular L_i,
    in min(n, m) numpy steps: for a stack of at least m blocks, forward
    substitution row by row over the whole stack, row k of every inverse
    from rows 0..k-1 of all of them; otherwise LAPACK ``dtrtri`` per
    block."""
    n, m, _ = low.shape
    inv = np.zeros_like(low)
    if m == 0:
        return inv
    if n < m:
        for k, lo in enumerate(low):
            inv[k] = sla.lapack.dtrtri(lo, lower=1)[0]
        return inv
    for k in range(m):
        # row k of L X = I: X_k = (e_k - L[k, :k] X[:k]) / L[k, k]
        row = -np.matmul(low[:, k:k + 1, :k], inv[:, :k, :])[:, 0, :]
        row[:, k] += 1.0
        inv[:, k, :] = row / low[:, k, k:k + 1]
    return inv


def _block_diag_csr(problem, groups, blocks):
    """The mbar x mbar block-diagonal CSR matrix whose block i is
    ``blocks[g][k]`` for scenario ``i = groups[g][k]``, built from index
    arrays: row r of block i holds columns y_i .. y_i + m_i - 1."""
    m = np.asarray(problem.m_i)
    block_start = np.concatenate(([0], np.cumsum(m * m)))
    data = np.empty(block_start[-1])
    for stack, idx in zip(blocks, groups):
        data[block_start[idx][:, None] + np.arange(stack[0].size)] = \
            stack.reshape(len(idx), -1)
    row_len = np.repeat(m, m)
    indptr = np.concatenate(([0], np.cumsum(row_len)))
    indices = (np.repeat(np.repeat(problem.y_offsets[:-1], m), row_len)
               + np.arange(indptr[-1]) - np.repeat(indptr[:-1], row_len))
    return sp.csr_matrix((data, indices, indptr),
                         shape=(problem.mbar, problem.mbar))


def _gram_factor(gram, what):
    """Cholesky factor of ``gram``; :class:`StrategyPrecondition`, naming
    ``what``, when it is not positive definite."""
    try:
        return chol_factor(gram)
    except NotPositiveDefinite as exc:
        raise StrategyPrecondition(
            "%s positive definite: %s" % (what, exc)) from exc


def _make_g_solver(G):
    """``(solve, reads_tol, lower)`` for the dense or CSR matrix G_SS: its
    Cholesky factor ``lower`` up to order ``_G_CHOL_DIM``, otherwise PCG
    with a Jacobi preconditioner, the one solve that reads the tolerance
    threaded to it (``lower`` is then ``None``)."""
    n = G.shape[0]
    if n <= _G_CHOL_DIM:
        fac = chol_factor(to_dense(G))
        return (lambda g, tol: (fac.solve(g), 0, 0.0)), False, fac.lower
    diag = np.array(G.diagonal())
    diag = np.where(diag > 0, diag, 1.0)
    gop = (lambda x: mv(G, x))

    def solve(g, tol):
        return pcg_solve(gop, g, precond=lambda r: r / diag,
                         tol=max(tol, 1e-14), maxit=10 * n + 100)
    return solve, True, None


def _make_smw_solve(apply_dinv, b_apply, b_adjoint, g_solve):
    """M^{-1} h = D^{-1} h - D^{-1} B_S G_SS^{-1} B_S* D^{-1} h, with
    ``b_apply`` / ``b_adjoint`` the products with B_S and B_S*."""
    def impl(h, tol, stats=None):
        u = apply_dinv(h)
        w, iters, relres = g_solve(b_adjoint(u), tol)
        if stats is not None:
            stats.last_inner_iters, stats.last_inner_relres = iters, relres
        return u - apply_dinv(b_apply(w))
    return impl


def _make_factored_solve(apply_dinv, R):
    """M^{-1} h = D^{-1} h - R (R^T h): one D^{-1} apply and two GEMVs.
    A non-finite ``R^T h`` raises ``ValueError``, as the G_SS factor's
    solve does in the other form: a NaN or infinite entry of ``h`` makes
    every entry of it NaN or infinite, since 0 times either is NaN."""
    def impl(h, tol, stats=None):
        t = h @ R
        if not np.isfinite(t).all():
            raise ValueError("array must not contain infs or NaNs")
        y = apply_dinv(h)
        y -= R @ t
        return y
    return impl
