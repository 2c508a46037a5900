"""The simulators' step loops, compiled once per source and bound with ctypes.

``_countsim.c`` runs every step of ``simulate_inar``, ``simulate_minar1`` and
``simulate_hawkes`` and calls, through function pointers, the code numpy
itself runs for that step: ``random_poisson`` and
``random_standard_exponential`` of ``numpy.random._generator`` (the library
numpy's own cffi example opens for them) and the CBLAS ``ddot`` and ``dgemv``
of numpy's BLAS (``_blas``).  numpy draws a Poisson variate by multiplication
below lambda = 10 and by transformed rejection from 10 up, so the last bit of
lambda picks the algorithm; making numpy's exact calls keeps every series
bit-identical to the numpy loop in ``simulate``.  The Hawkes thinning loop
repeats the float operations of the Python loop in their order, so its events
equal that loop's byte for byte; the Python loop is the fallback.

The first ``load()`` in a process compiles the source with ``cc`` into
``__pycache__/_countsim.<key>.so`` beside this file, keyed by the source,
the numpy version and the whole compile command (flags and BLAS integer
width included, file names left out), and later processes only load it.
The shared object is not bytecode, so ``sys.dont_write_bytecode`` does not
stop it being written.  Where any step fails (no compiler, a directory that
cannot be written, a missing symbol), ``load()`` returns None and the
simulators run their Python loops.
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

# -ffp-contract=off: a fused multiply-add in t + (1 / lam) * e would move the Hawkes events
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


def _compile_command(blas_bits: int, source: str, output: str) -> list:
    """The ``cc`` arguments that build ``source`` into ``output`` for this BLAS width."""
    return ["cc", *_CFLAGS, "-I", np.get_include(), f"-DBLAS_INT=int{blas_bits}_t",
            "-o", output, source, "-lm"]


def _cached_path(blas_bits: int) -> str:
    """The cache file of the loops, keyed by the source text, numpy and the ``cc`` command.

    The command is hashed with its file names left out, so a checkout reached
    through another path (a symlink, say) finds the same file.
    """
    import hashlib

    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update("\0".join([np.__version__, *_compile_command(blas_bits, "", "")]).encode())
    return os.path.join(_CACHE_DIR, f"_countsim.{key.hexdigest()}.so")


def _library_path(blas_bits: int) -> str:
    """The compiled loops for this source, numpy and command, built if they are missing."""
    path = _cached_path(blas_bits)
    if not os.path.exists(path):
        _build(blas_bits, path)
    return path


def _build(blas_bits: int, path: str) -> None:
    """Compile the source to ``path`` through a temporary file, so no half-written file shows.

    Then remove the cache's other, superseded ``_countsim.*.so`` files; a
    process that still has one loaded keeps its mapping.
    """
    import glob
    import subprocess

    os.makedirs(_CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_countsim.", suffix=".tmp", dir=_CACHE_DIR)
    os.close(fd)
    try:
        proc = subprocess.run(_compile_command(blas_bits, _SOURCE, tmp),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            raise OSError(f"cc exited with {proc.returncode}: {proc.stdout.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in glob.glob(os.path.join(glob.escape(_CACHE_DIR), "_countsim.*.so")):
        if stale != path:
            try:
                os.unlink(stale)
            except OSError:
                pass  # gone already, or not ours to remove


def _check_buffers(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if not (arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.aligned):
            raise ValueError("the compiled loops need aligned, C-contiguous float64 arrays")


class CountKernel:
    """The compiled ``inar``, ``minar1`` and ``hawkes`` loops with numpy's functions bound."""

    def __init__(self):
        ddot, dgemv = _blas.cblas("ddot"), _blas.cblas("dgemv")
        if ddot is None or dgemv is None or ddot[1] is not dgemv[1]:
            raise OSError("numpy's BLAS exports no CBLAS ddot and dgemv of one integer width")
        import numpy.random._generator as generator

        draws = ctypes.CDLL(generator.__file__)
        poisson, exponential = draws.random_poisson, draws.random_standard_exponential
        lib = ctypes.CDLL(_library_path(8 * ctypes.sizeof(ddot[1])))
        self._poisson, self._exponential, self._ddot, self._dgemv = (
            ctypes.cast(fn, _PTR).value for fn in (poisson, exponential, ddot[0], dgemv[0]))
        self._inar, self._minar1, self._hawkes = lib.inar, lib.minar1, lib.hawkes
        self._inar.argtypes = [_PTR, _PTR, _PTR, _F64, _I64, _PTR, _PTR, _PTR, _I64, _F64]
        self._minar1.argtypes = [_PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR,
                                 _I64, _F64]
        self._hawkes.argtypes = [_PTR, _PTR, _F64, _I64, _PTR, _PTR, _F64, _PTR, _I64, _I64,
                                 ctypes.POINTER(_F64)]
        self._inar.restype = self._minar1.restype = self._hawkes.restype = _I64

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

    def hawkes(self, rng: np.random.Generator, eta: float, breakpoints: np.ndarray,
               values: np.ndarray, horizon: float, capacity: int = 4096) -> np.ndarray:
        """Hawkes event times in (0, horizon] by Ogata thinning, as ``simulate_hawkes``.

        The events go into a buffer of ``capacity``; each time it fills, the
        loop resumes in one twice the size, so the events do not depend on it.
        """
        _check_buffers(breakpoints, values)
        if breakpoints.ndim != 1 or values.shape != breakpoints.shape:
            raise ValueError("breakpoints and values must be vectors of equal length")
        events = np.empty(max(int(capacity), 1))
        n, t = 0, _F64(0.0)
        bitgen = rng.bit_generator
        with bitgen.lock:
            while True:
                n = self._hawkes(self._exponential, bitgen.ctypes.bit_generator, float(eta),
                                 breakpoints.size, breakpoints.ctypes.data,
                                 values.ctypes.data, float(horizon), events.ctypes.data, n,
                                 events.size, ctypes.byref(t))
                if t.value > horizon:
                    return events[:n].copy()
                events = np.concatenate([events, np.empty(events.size)])


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
