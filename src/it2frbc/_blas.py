"""Run numpy's matrix products on one OpenBLAS thread for the length of a call.

classify_batch's soundness product, (2 * rows, c) @ (c, M) per row block
with M the number of classes, is too thin to gain from BLAS threads: on a
2-CPU host a 10k-row predict takes the same time on one thread as on two.
A threaded product costs more than it gives, though: OpenBLAS keeps its
worker threads spinning for a while after each threaded call, and code that
runs right after the call stalls for milliseconds now and then while they
do. One thread gives the same bytes, since OpenBLAS splits a product over
its output cells, never over the inner sum.

numpy wheels bundle OpenBLAS in a library beside the package (numpy.libs on
Linux and Windows, numpy/.dylibs on macOS); its thread-count functions are
called through ctypes. Where no such library is found (another BLAS, a
system build), ``one_blas_thread`` does nothing.
"""
from __future__ import annotations

import ctypes
import pathlib
import threading
from contextlib import contextmanager

import numpy as np

# (set, get) symbol names, as exported by the OpenBLAS of numpy 2.x wheels
# (scipy-openblas64) and of numpy 1.x wheels.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)


def _thread_functions():
    """(set, get) of the OpenBLAS that numpy loaded, or None."""
    root = pathlib.Path(np.__file__).resolve().parent
    paths = sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")])
    for path in paths:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


_FUNCTIONS = _thread_functions()
_LOCK = threading.Lock()
_depth = 0
_saved = 1


@contextmanager
def one_blas_thread():
    """Limit OpenBLAS to one thread inside the block and restore the count
    after it. Nested and concurrent blocks restore it once, when the last
    one ends."""
    global _depth, _saved
    if _FUNCTIONS is None:
        yield
        return
    set_threads, get_threads = _FUNCTIONS
    with _LOCK:
        if _depth == 0:
            _saved = get_threads()
            set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _LOCK:
            _depth -= 1
            if _depth == 0:
                set_threads(_saved)
