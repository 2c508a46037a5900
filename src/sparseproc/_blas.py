"""ctypes bindings to the BLAS that numpy itself links.

numpy's linalg extension carries CBLAS and OpenBLAS's thread control.
Binding them with ctypes keeps scipy (about 0.3 s and 30 MB at import) off
the simplex path and lets the count simulators call the very ``ddot`` and
``dgemv`` numpy's matmul calls.  Symbol names and the integer width depend
on how numpy's BLAS was built, so explicit tables are tried in order.  Only
when no CBLAS ``dger`` resolves does ``rank1_updater`` fall back to
``scipy.linalg.blas.dger``; where no thread control resolves,
``one_blas_thread`` leaves the thread count alone.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

import numpy as np
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
_COL_MAJOR = 102  # CblasColMajor


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


def _resolve_dger() -> Optional[Tuple[Callable, type]]:
    found = cblas("dger")
    if found is not None:
        fn, int_t = found
        fn.argtypes = [ctypes.c_int, int_t, int_t, ctypes.c_double,
                       ctypes.c_void_p, int_t, ctypes.c_void_p, int_t,
                       ctypes.c_void_p, int_t]
        fn.restype = None
    return found


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


CBLAS_DGER = _resolve_dger()
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


def rank1_updater(a: np.ndarray, x: np.ndarray, y: np.ndarray) -> Callable[[], None]:
    """Bind ``a``, ``x`` and ``y``; the returned call does ``a -= outer(x, y)`` in place.

    ``a`` must be a writeable, aligned, Fortran-contiguous float64 matrix and
    ``x``, ``y`` aligned contiguous float64 vectors of its row and column
    counts.  The call reads the buffers' current contents, so refill ``x`` and
    ``y`` in place between calls and never rebind ``a`` while it is bound.
    """
    if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == np.float64
            and a.flags.f_contiguous and a.flags.aligned and a.flags.writeable):
        raise ValueError("a must be a writeable, aligned, Fortran-contiguous float64 matrix")
    for vec, size, name in ((x, a.shape[0], "x"), (y, a.shape[1], "y")):
        if not (isinstance(vec, np.ndarray) and vec.ndim == 1 and vec.dtype == np.float64
                and vec.flags.c_contiguous and vec.flags.aligned):
            raise ValueError(f"{name} must be an aligned, contiguous float64 vector")
        if vec.size != size:
            raise ValueError(f"{name} has {vec.size} entries, a needs {size}")
    if CBLAS_DGER is None:
        from scipy.linalg.blas import dger  # only where numpy's BLAS exports no CBLAS dger

        def update() -> None:
            dger(-1.0, x, y, a=a, overwrite_a=1)
        return update

    fn, int_t = CBLAS_DGER
    m, n = a.shape
    # prebuilt arguments: converting the buffers on every call would cost more than the update
    args = (_COL_MAJOR, int_t(m), int_t(n), ctypes.c_double(-1.0),
            ctypes.c_void_p(x.ctypes.data), int_t(1), ctypes.c_void_p(y.ctypes.data),
            int_t(1), ctypes.c_void_p(a.ctypes.data), int_t(max(m, 1)))

    def update() -> None:
        fn(*args)
    update.buffers = (a, x, y)  # keep the bound memory alive as long as the call
    return update
