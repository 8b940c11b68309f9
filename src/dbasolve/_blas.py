"""One BLAS thread inside a solve.

The solvers' dense kernels work on small matrices, where OpenBLAS's worker
threads cost more than they save, and a different thread count can round
the iterates differently.  :func:`one_blas_thread` runs a solve with every
OpenBLAS copy that the numpy and scipy wheels bundle set to one thread,
and restores the caller's counts afterwards.  The copies are reached
through ``ctypes``: numpy's 64-bit-integer build exports
``scipy_openblas_{get,set}_num_threads64_``, scipy's build the same names
without the suffix.  Where neither is found, solves leave BLAS alone and
one INFO record on ``dbasolve.blas`` says so.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import os
import threading

import numpy as np
import scipy

_LOG = logging.getLogger("dbasolve.blas")

# each wheel's bundled OpenBLAS and the suffix of its thread-count symbols
_BUNDLED = ((np, "64_"), (scipy, ""))


def _thread_controls():
    """``(get, set)`` thread-count functions of each bundled OpenBLAS found."""
    found = []
    for pkg, suffix in _BUNDLED:
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir,
                                                  "libscipy_openblas*.so"))):
            try:
                lib = ctypes.CDLL(path)
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            found.append((get, put))
            break
    return found


class _Inside(threading.local):
    """Whether this thread is inside a pinned solve."""
    solve = False


_inside = _Inside()
_lock = threading.Lock()
_controls = None        # looked up at the first solve
_active = 0             # pinned solves running, over all threads
_saved = []             # the counts to restore when the last one returns


def _looked_up():
    """The thread controls, looked up at the first call; the caller holds
    ``_lock``."""
    global _controls
    if _controls is None:
        _controls = _thread_controls()
        if not _controls:
            _LOG.info("no bundled OpenBLAS thread control found; "
                      "solves run with BLAS's own thread count")
    return _controls


def solve_threads():
    """The BLAS thread count that solves run at: 1 where a bundled
    OpenBLAS thread control was found, ``None`` where none was (solves
    then run at BLAS's own count).  Sets no count."""
    with _lock:
        return 1 if _looked_up() else None


def _pin():
    global _active, _saved
    with _lock:
        _looked_up()
        if not _active:
            _saved = [get() for get, _ in _controls]
            for (_, put), n in zip(_controls, _saved):
                if n != 1:
                    put(1)
        _active += 1


def _unpin():
    global _active
    with _lock:
        _active -= 1
        if not _active:
            for (_, put), n in zip(_controls, _saved):
                if n != 1:
                    put(n)


def one_blas_thread(solve):
    """``solve`` run with the bundled OpenBLAS copies at one thread.  The
    callers' counts come back when the last solve running under the pin
    returns or raises, on whichever thread; a solve nested in another on
    the same thread costs one check."""
    @functools.wraps(solve)
    def pinned(*args, **kwargs):
        if _inside.solve:
            return solve(*args, **kwargs)
        _pin()
        _inside.solve = True
        try:
            return solve(*args, **kwargs)
        finally:
            _inside.solve = False
            _unpin()
    return pinned
