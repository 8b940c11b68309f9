"""Problem and solution files (versioned JSON) and iteration logs (CSV).

Matrices are stored as canonical triplet lists (sorted, duplicates summed),
vectors as plain arrays, the ``Q`` of a ``dense_quad`` as its packed
row-major lower triangle (:func:`svec_indices` order, unscaled).
Floats rely on the shortest round-trip representation, so write -> parse ->
write is byte identical.  Box bounds use ``null`` for infinities.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import scipy.sparse as sp

from .blocklinalg import canonicalize, svec_dim, svec_indices
from .errors import NonFiniteData, ParseError
from .model import DBAProblem, DualPoint, PrimalPoint, ScenarioBlock
from .proxcone import (Box, DenseQuadratic, DiagQuadratic, FreeSpace,
                       IndicatorCone, NonnegOrthant, NonnegSymMatrices,
                       PsdCone, Zero)

FORMAT_PROBLEM = "dba/1"
FORMAT_SOLUTION = "dba-solution/1"
SYM_CONVENTION = "svec-upper-rowmajor-sqrt2"


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _enc_matrix(mat):
    if mat is None:
        return None
    m = canonicalize(sp.csr_matrix(mat))
    coo = m.tocoo()
    return {"shape": [int(m.shape[0]), int(m.shape[1])],
            "rows": coo.row.tolist(), "cols": coo.col.tolist(),
            "vals": coo.data.tolist()}


def _enc_vector(vec):
    return None if vec is None else np.asarray(vec, dtype=np.float64).tolist()


def _enc_bound(arr):
    return [None if not np.isfinite(x) else float(x) for x in arr]


def _enc_cone(cone):
    if isinstance(cone, FreeSpace):
        return {"type": "free", "n": cone.dim}
    if isinstance(cone, NonnegOrthant):
        return {"type": "nonneg", "n": cone.dim}
    if isinstance(cone, Box):
        return {"type": "box", "lower": _enc_bound(cone.lower),
                "upper": _enc_bound(cone.upper)}
    if isinstance(cone, PsdCone):
        return {"type": "psd", "d": cone.d}
    if isinstance(cone, NonnegSymMatrices):
        return {"type": "nonneg_sym", "d": cone.d}
    raise ParseError("cannot encode cone %s" % type(cone).__name__)


def _enc_function(f):
    if isinstance(f, Zero):
        return {"type": "zero", "n": f.dim}
    if isinstance(f, DiagQuadratic):
        return {"type": "diag_quad", "diag": f.diag.tolist()}
    if isinstance(f, DenseQuadratic):
        return {"type": "dense_quad", "dim": f.dim,
                "lower": f.Q[svec_indices(f.dim, lower=True)].tolist()}
    if isinstance(f, IndicatorCone):
        return {"type": "indicator", "cone": _enc_cone(f.cone)}
    raise ParseError("cannot encode function %s" % type(f).__name__)


def problem_to_dict(problem):
    meta = {k: v for k, v in problem.meta.items() if not k.startswith("_")}
    return {
        "format": FORMAT_PROBLEM,
        "sym_convention": SYM_CONVENTION,
        "header": {"n0": problem.n0, "m0": problem.m0, "N": problem.N,
                   "metadata": meta},
        "first_stage": {
            "A": _enc_matrix(problem.A),
            "b": _enc_vector(problem.b),
            "c": _enc_vector(problem.c),
            "cone": _enc_cone(problem.cone),
            "theta": _enc_function(problem.theta),
        },
        "scenarios": [
            {"B": _enc_matrix(s.B), "Bbar": _enc_matrix(s.Bbar),
             "bbar": _enc_vector(s.bbar), "cbar": _enc_vector(s.cbar),
             "cone": _enc_cone(s.cone), "theta": _enc_function(s.theta)}
            for s in problem.scenarios
        ],
    }


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_problem(problem, path):
    with open(path, "w") as fh:
        fh.write(dumps(problem_to_dict(problem)))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _req(doc, key, where):
    if key not in doc:
        raise ParseError("missing field %r in %s" % (key, where))
    return doc[key]


def _dec_matrix(doc, where):
    if doc is None:
        return None
    try:
        from .blocklinalg import sparse_from_triplets

        return sparse_from_triplets(tuple(doc["shape"]), doc["rows"],
                                    doc["cols"], doc["vals"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad matrix in %s: %s" % (where, exc)) from exc


def _dec_vector(vals, where):
    """``vals`` as a 1-d float array; :class:`ParseError` naming ``where``
    for anything but a list of numbers (``null`` entries included: only box
    bounds give them a meaning)."""
    try:
        if isinstance(vals, list) and None in vals:
            raise ValueError("null entry")
        vec = np.array(vals, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError("bad vector in %s: %s" % (where, exc)) from exc
    if vec.ndim != 1:
        raise ParseError("bad vector in %s: not a list of numbers" % where)
    return vec


def _dec_bound(vals, default, where):
    """Box bounds: a list of numbers with ``null`` for ``default``."""
    try:
        return np.array([default if x is None else float(x) for x in vals])
    except (TypeError, ValueError) as exc:
        raise ParseError("bad bound in %s: %s" % (where, exc)) from exc


def _dec_lower(dim, lower, where):
    """The symmetric matrix of order ``dim`` with packed lower triangle ``lower``."""
    try:
        d = int(dim)
        lower = np.asarray(lower, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError("bad dense_quad in %s: %s" % (where, exc)) from exc
    if d < 0 or lower.shape != (svec_dim(d),):
        raise ParseError("%s.lower has shape %s, dim %d needs (%d,)"
                         % (where, lower.shape, d, svec_dim(max(d, 0))))
    il, jl = svec_indices(d, lower=True)
    Q = np.zeros((d, d))
    Q[il, jl] = lower
    Q[jl, il] = lower
    return Q


def _dec_cone(doc, where):
    kind = _req(doc, "type", where)
    if kind == "free":
        return FreeSpace(_req(doc, "n", where))
    if kind == "nonneg":
        return NonnegOrthant(_req(doc, "n", where))
    if kind == "box":
        return Box(_dec_bound(_req(doc, "lower", where), -np.inf,
                              where + ".lower"),
                   _dec_bound(_req(doc, "upper", where), np.inf,
                              where + ".upper"))
    if kind == "psd":
        return PsdCone(_req(doc, "d", where))
    if kind == "nonneg_sym":
        return NonnegSymMatrices(_req(doc, "d", where))
    raise ParseError("unknown cone type %r in %s" % (kind, where))


def _dec_function(doc, where):
    kind = _req(doc, "type", where)
    if kind == "zero":
        return Zero(_req(doc, "n", where))
    if kind == "diag_quad":
        return DiagQuadratic(_dec_vector(_req(doc, "diag", where),
                                         where + ".diag"))
    if kind == "dense_quad":
        return DenseQuadratic(_dec_lower(_req(doc, "dim", where),
                                         _req(doc, "lower", where), where))
    if kind == "indicator":
        return IndicatorCone(_dec_cone(_req(doc, "cone", where), where))
    raise ParseError("unknown function type %r in %s" % (kind, where))


def problem_from_dict(doc):
    if _req(doc, "format", "document") != FORMAT_PROBLEM:
        raise ParseError("unsupported problem format %r" % doc.get("format"))
    fs = _req(doc, "first_stage", "document")
    A = _dec_matrix(fs.get("A"), "first_stage.A")
    b = fs.get("b")
    b = None if b is None else _dec_vector(b, "first_stage.b")
    c = _dec_vector(_req(fs, "c", "first_stage"), "first_stage.c")
    cone = _dec_cone(_req(fs, "cone", "first_stage"), "first_stage.cone")
    theta = _dec_function(_req(fs, "theta", "first_stage"), "first_stage.theta")
    blocks = []
    for i, sdoc in enumerate(_req(doc, "scenarios", "document")):
        where = "scenario %d" % i
        blocks.append(ScenarioBlock(
            B=_dec_matrix(_req(sdoc, "B", where), where + ".B"),
            Bbar=_dec_matrix(_req(sdoc, "Bbar", where), where + ".Bbar"),
            bbar=_dec_vector(_req(sdoc, "bbar", where), where + ".bbar"),
            cbar=_dec_vector(_req(sdoc, "cbar", where), where + ".cbar"),
            cone=_dec_cone(_req(sdoc, "cone", where), where + ".cone"),
            theta=_dec_function(_req(sdoc, "theta", where), where + ".theta")))
    meta = doc.get("header", {}).get("metadata", {})
    return DBAProblem(A, b, c, cone, theta, blocks, meta=meta)


def read_problem(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    return problem_from_dict(doc)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

def solution_to_dict(problem, primal, dual):
    split = lambda vec, offs: [vec[offs[i]:offs[i + 1]].tolist()
                               for i in range(problem.N)]
    return {
        "format": FORMAT_SOLUTION,
        "x": primal.x.tolist(),
        "xbar": [xb.tolist() for xb in primal.xbar],
        "y": dual.y.tolist(),
        "ybar": split(dual.ybar, problem.y_offsets),
        "z": dual.z.tolist(),
        "zbar": split(dual.zbar, problem.x_offsets),
        "v": dual.v.tolist(),
        "vbar": split(dual.vbar, problem.x_offsets),
    }


def write_solution(problem, primal, dual, path):
    with open(path, "w") as fh:
        fh.write(dumps(solution_to_dict(problem, primal, dual)))


def read_solution(path, problem=None):
    """The primal and dual points of a solution file.  With ``problem``,
    each field's length is compared with the problem's and the first one
    that differs raises :class:`ParseError`.  The first field with a
    ``null`` or non-finite entry raises :class:`NonFiniteData`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    if doc.get("format") != FORMAT_SOLUTION:
        raise ParseError("unsupported solution format %r" % doc.get("format"))
    try:
        arr = lambda key: np.asarray(doc[key], dtype=np.float64)
        cat = lambda key: (np.concatenate([np.asarray(p, dtype=np.float64)
                                           for p in doc[key]])
                           if doc[key] else np.zeros(0))
        primal = PrimalPoint(arr("x"), [np.asarray(p, dtype=np.float64)
                                        for p in doc["xbar"]])
        dual = DualPoint(y=arr("y"), ybar=cat("ybar"), z=arr("z"),
                         zbar=cat("zbar"), v=arr("v"), vbar=cat("vbar"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad solution document: %s" % exc) from exc
    if problem is not None:
        _check_lengths(problem, primal, dual)
    _check_finite(primal, dual)
    return primal, dual


def _check_lengths(problem, primal, dual):
    """Raise :class:`ParseError` naming the first field of the solution
    whose shape differs from the problem's."""
    n0, nbar = problem.n0, problem.nbar
    fields = [("x", primal.x.shape, n0),
              ("xbar", (len(primal.xbar),), problem.N)]
    fields += [("xbar[%d]" % i, xb.shape, n)
               for i, (xb, n) in enumerate(zip(primal.xbar, problem.n_i))]
    fields += [("y", dual.y.shape, problem.m0),
               ("ybar", dual.ybar.shape, problem.mbar),
               ("z", dual.z.shape, n0), ("zbar", dual.zbar.shape, nbar),
               ("v", dual.v.shape, n0), ("vbar", dual.vbar.shape, nbar)]
    for name, shape, want in fields:
        if shape != (want,):
            raise ParseError("solution field %r has shape %s, the problem "
                             "needs (%d,)" % (name, shape, want))


def _check_finite(primal, dual):
    """Raise :class:`NonFiniteData` naming the first field of the solution
    with an entry that is not a finite number (``null`` reads as NaN)."""
    fields = [("x", primal.x)]
    fields += [("xbar[%d]" % i, xb) for i, xb in enumerate(primal.xbar)]
    fields += [(name, getattr(dual, name))
               for name in ("y", "ybar", "z", "zbar", "v", "vbar")]
    for name, vec in fields:
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise NonFiniteData("solution field %r has a null or non-finite "
                                "entry at index %d" % (name, bad[0]))


# ---------------------------------------------------------------------------
# CSV logs
# ---------------------------------------------------------------------------

def write_iteration_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(iteration_csv_text(columns, rows))


def iteration_csv_text(columns, rows):
    """CSV text with every float cell (numpy scalars included) written as a
    plain round-tripping number."""
    import io as _io

    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(float(x)) if isinstance(x, float) else x
                         for x in row])
    return buf.getvalue()
