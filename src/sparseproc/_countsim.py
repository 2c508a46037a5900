"""The count simulators' step loop, compiled once per source and bound with ctypes.

``_countsim.c`` runs every step of ``simulate_inar`` and ``simulate_minar1``
and calls, through function pointers, the code numpy itself runs for that
step: ``random_poisson`` of ``numpy.random._generator`` (the library numpy's
own cffi example opens for it) and the CBLAS ``ddot`` and ``dgemv`` of
numpy's BLAS (``_blas``).  numpy draws a Poisson variate by multiplication
below lambda = 10 and by transformed rejection from 10 up, so the last bit of
lambda picks the algorithm; making numpy's exact calls keeps every series
bit-identical to the numpy loop in ``simulate``.

The first ``load()`` in a process compiles the source with ``cc`` into
``__pycache__/_countsim.<key>.so`` beside this file, keyed by the source,
the numpy version and the BLAS integer width, and later processes only load
it.  The shared object is not bytecode, so ``sys.dont_write_bytecode`` does
not stop it being written.  Where any step fails (no compiler, a directory
that cannot be written, a missing symbol), ``load()`` returns None and the
simulators run their numpy loop.
"""

from __future__ import annotations

import ctypes
import os
import tempfile
from typing import Optional

import numpy as np

from . import _blas

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_countsim.c")
_CACHE_DIR = os.path.join(os.path.dirname(_SOURCE), "__pycache__")

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


def _library_path(blas_bits: int) -> str:
    """The compiled loop for this source, numpy and BLAS width, built if it is missing."""
    import hashlib

    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update(f"\0{np.__version__}\0{blas_bits}".encode())
    path = os.path.join(_CACHE_DIR, f"_countsim.{key.hexdigest()}.so")
    if not os.path.exists(path):
        _build(path, blas_bits)
    return path


def _build(path: str, blas_bits: int) -> None:
    """Compile the source to ``path`` through a temporary file, so no half-written file shows."""
    import subprocess

    os.makedirs(_CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_countsim.", suffix=".tmp", dir=_CACHE_DIR)
    os.close(fd)
    try:
        proc = subprocess.run(
            ["cc", "-O2", "-shared", "-fPIC", "-I", np.get_include(),
             f"-DBLAS_INT=int{blas_bits}_t", "-o", tmp, _SOURCE],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            raise OSError(f"cc exited with {proc.returncode}: {proc.stdout.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _check_buffers(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if not (arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.aligned):
            raise ValueError("the count loop needs aligned, C-contiguous float64 arrays")


class CountKernel:
    """The compiled ``inar`` and ``minar1`` loops with numpy's functions bound."""

    def __init__(self):
        ddot, dgemv = _blas.cblas("ddot"), _blas.cblas("dgemv")
        if ddot is None or dgemv is None or ddot[1] is not dgemv[1]:
            raise OSError("numpy's BLAS exports no CBLAS ddot and dgemv of one integer width")
        import numpy.random._generator as generator

        poisson = ctypes.CDLL(generator.__file__).random_poisson
        lib = ctypes.CDLL(_library_path(8 * ctypes.sizeof(ddot[1])))
        self._poisson, self._ddot, self._dgemv = (
            ctypes.cast(fn, _PTR).value for fn in (poisson, ddot[0], dgemv[0]))
        self._inar, self._minar1 = lib.inar, lib.minar1
        self._inar.argtypes = [_PTR, _PTR, _PTR, _F64, _I64, _PTR, _PTR, _PTR, _I64, _F64]
        self._minar1.argtypes = [_PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR,
                                 _I64, _F64]
        self._inar.restype = self._minar1.restype = _I64

    def inar(self, rng: np.random.Generator, mu_eps: float, alpha: np.ndarray,
             out: np.ndarray, cap: float) -> int:
        """Fill ``out`` with INAR(p) counts from the zero state; the steps drawn.

        Fewer than ``out.size`` steps means that step's mean exceeded ``cap``.
        """
        _check_buffers(alpha, out)
        if alpha.ndim != 1 or out.ndim != 1:
            raise ValueError("alpha and out must be vectors")
        history = np.zeros(max(alpha.size, 1))
        bitgen = rng.bit_generator
        with bitgen.lock:
            return self._inar(self._poisson, self._ddot,
                              bitgen.ctypes.bit_generator, float(mu_eps), alpha.size,
                              alpha.ctypes.data, history.ctypes.data, out.ctypes.data,
                              out.size, cap)

    def minar1(self, rng: np.random.Generator, eta: np.ndarray, a_matrix: np.ndarray,
               out: np.ndarray, cap: float) -> int:
        """Fill the rows of ``out`` with MINAR(1) counts from zero; the steps drawn."""
        _check_buffers(eta, a_matrix, out)
        d = eta.size
        if a_matrix.shape != (d, d) or out.ndim != 2 or out.shape[1] != d:
            raise ValueError("a_matrix must be d x d and out steps x d for d = eta.size")
        y0, lam = np.zeros(d), np.zeros(d)
        bitgen = rng.bit_generator
        with bitgen.lock:
            return self._minar1(self._poisson, self._dgemv,
                                bitgen.ctypes.bit_generator, d, eta.ctypes.data,
                                a_matrix.ctypes.data, y0.ctypes.data, lam.ctypes.data,
                                out.ctypes.data, out.shape[0], cap)


_UNSET = object()
_kernel = _UNSET


def load() -> Optional[CountKernel]:
    """The compiled loops, built on the first call in a process; None where they cannot be."""
    global _kernel
    if _kernel is _UNSET:
        try:
            _kernel = CountKernel()
        except (OSError, AttributeError):
            _kernel = None
    return _kernel
