"""ctypes bindings to the BLAS that numpy itself links.

numpy's linalg extension carries CBLAS and OpenBLAS's thread control.
Binding them with ctypes keeps scipy (about 0.3 s and 30 MB at import) off
the simplex path and lets the compiled loops of ``_countsim`` call the very
``ddot``, ``dgemv``, ``dger`` and ``dgemm`` numpy's matmul calls.  Symbol
names and the integer width depend on how numpy's BLAS was built, so
explicit tables are tried in order.  Where no thread control resolves,
``one_blas_thread`` leaves the thread count alone.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

import numpy.linalg._umath_linalg as _umath_linalg

# (prefix, suffix, integer type) of CBLAS names; 64-bit "ILP64" builds carry a 64 suffix
_CBLAS_NAMES = (
    ("scipy_cblas_", "64_", ctypes.c_int64),
    ("cblas_", "64_", ctypes.c_int64),
    ("scipy_cblas_", "", ctypes.c_int32),
    ("cblas_", "", ctypes.c_int32),
)
# (setter, getter) of OpenBLAS's thread count, in the same order of builds
_THREAD_NAMES = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _open_blas() -> Optional[ctypes.CDLL]:
    try:
        return ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None


_LIB = _open_blas()


def cblas(name: str) -> Optional[Tuple[Callable, type]]:
    """(function, integer type) of the first CBLAS ``name`` numpy's BLAS exports, or None."""
    if _LIB is None:
        return None
    for prefix, suffix, int_t in _CBLAS_NAMES:
        fn = getattr(_LIB, f"{prefix}{name}{suffix}", None)
        if fn is not None:
            return fn, int_t
    return None


def _resolve_threads() -> Optional[Tuple[Callable, Callable]]:
    if _LIB is None:
        return None
    for set_name, get_name in _THREAD_NAMES:
        setter, getter = getattr(_LIB, set_name, None), getattr(_LIB, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


BLAS_THREADS = _resolve_threads()


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with numpy's BLAS on one thread; restore the caller's count after.

    Processes forked inside the block inherit the single thread.
    """
    if BLAS_THREADS is None:
        yield
        return
    setter, getter = BLAS_THREADS
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)

