"""In-place rank-1 update through the BLAS that numpy itself links.

numpy's linalg extension carries a CBLAS ``dger``; binding it with ctypes
keeps scipy (about 0.3 s and 30 MB at import) off the simplex path.  The
symbol name and its integer width depend on how numpy's BLAS was built, so
an explicit table is tried in order.  Only when no name resolves does
``rank1_updater`` fall back to ``scipy.linalg.blas.dger``.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional, Tuple

import numpy as np
import numpy.linalg._umath_linalg as _umath_linalg

# CBLAS dger name -> its integer type (64-bit "ILP64" builds carry a 64 suffix)
_DGER_NAMES = (
    ("scipy_cblas_dger64_", ctypes.c_int64),
    ("cblas_dger64_", ctypes.c_int64),
    ("scipy_cblas_dger", ctypes.c_int32),
    ("cblas_dger", ctypes.c_int32),
)
_COL_MAJOR = 102  # CblasColMajor


def _resolve_dger() -> Optional[Tuple[Callable, type]]:
    """(function, integer type) of the first CBLAS dger numpy's BLAS exports, or None."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for name, int_t in _DGER_NAMES:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int, int_t, int_t, ctypes.c_double,
                           ctypes.c_void_p, int_t, ctypes.c_void_p, int_t,
                           ctypes.c_void_p, int_t]
            fn.restype = None
            return fn, int_t
    return None


CBLAS_DGER = _resolve_dger()


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
