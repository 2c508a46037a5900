"""The simulators' step loops, the LP's pivot loop and the CV fold loop, compiled
once per source: the one runtime path of each.

``_countsim.c`` runs every step of ``simulate_inar``, ``simulate_minar1`` and
``simulate_hawkes``, the whole LP of ``dantzig.solve_dantzig_path`` (its
tableau, pivots and certificates) and the whole fold loop of
``dantzig.cross_validate_lambda``, and calls, through
function pointers, the code numpy itself runs for that step:
``random_poisson`` and ``random_standard_exponential`` of
``numpy.random._generator`` (the library numpy's own cffi example opens for
them) and the CBLAS ``ddot``, ``dgemv``, ``dger`` and ``dgemm`` of numpy's
BLAS (``_blas``).  numpy draws a Poisson variate by multiplication below
lambda = 10 and by transformed rejection from 10 up, so the last bit of
lambda picks the algorithm; forming lambda by numpy's own calls keeps every
series bit-identical to a numpy loop of ``rng.poisson`` draws.  The count
loops take the generator's uniforms ahead, a block at a time, through its own
``next_double``.  Below 10 they run numpy's multiplication method on the
block, with e^-lambda kept in a small memo keyed by the bits of lambda;
any other lambda goes to numpy's ``random_poisson`` on a shim ``bitgen_t``
that reads the block.  The uniforms left over are then stepped back with
``advance``, so the generator ends where a numpy loop leaves it (see
``_drawn``).  Both count loops write one array: the last p burn-in steps as
its lag rows (p = 1 for MINAR(1)), then the kept steps, which
``simulate_inar`` and ``simulate_minar1`` return, uncopied, as
``SeriesSample(rows, lag_rows=p)``.  Where a MINAR(1) matrix is
zero outside its aligned 4 x 4 diagonal blocks, ``A @ y`` is summed over
each row's own block instead of by ``dgemv``, in the order that
``CountKernel.block_sums_match`` finds gives ``dgemv``'s bits; any other
matrix, or a BLAS that sums in another order, keeps ``dgemv``.  The Hawkes
thinning loop, the LP loop and the CV fold loop make the float operations
of numpy loops in order (numpy's pairwise summation included); the tests
keep those numpy loops and check events, fits, slacks and held-out losses
against them byte for byte.  The CV fold loop solves each fold's system
with the LP loop itself.

The first ``load()`` in a process compiles the source with ``cc`` into
``__pycache__/_countsim.<key>.so`` beside this file, keyed by the source,
the numpy version and the whole compile command (flags and BLAS integer
width included, file names left out), and later processes only load it.
The shared object is not bytecode, so ``sys.dont_write_bytecode`` does not
stop it being written.  Where any step fails (no compiler, a compile error,
a directory that cannot be written, a missing symbol, no CBLAS ``ddot``,
``dgemv``, ``dger`` and ``dgemm`` of one integer width in numpy's BLAS),
``load()`` raises ``RuntimeError``; there is no other path to run.
"""

from __future__ import annotations

import ctypes
import os
import tempfile
from typing import Sequence, Tuple

import numpy as np

from . import _blas

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_countsim.c")
_CACHE_DIR = os.path.join(os.path.dirname(_SOURCE), "__pycache__")

# -ffp-contract=off: a fused multiply-add in t + (1 / lam) * e would move the Hawkes events
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p

# the LP loops' status codes 0, 1 and 2, and 3 for a fit whose slack does not certify it
_LP_STATUS = ("optimal", "infeasible", "iteration_limit", "inaccurate")

# block_sums_match compares the compiled block sum with numpy's A @ y on this
# many vectors of counts, drawn from its own seed
_PROBES, _PROBE_SEED = 8, 20241019

_HAWKES_CAPACITY = 4096  # events the Hawkes loop's first buffer holds


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


def _drawn(rng: np.random.Generator, call) -> int:
    """``call(bitgen, unused)`` under the generator's lock, which then steps back
    over the ``unused`` uniforms the call fetched ahead; the call's result.

    ``advance`` drops a pending 32-bit half of an earlier 64-bit draw, which
    the uniforms never touch, so it is put back.  PCG64, which ``make_rng``
    gives, steps one uniform per step of ``advance``; the other bit
    generators have no ``advance`` or step in blocks of draws.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise ValueError("the compiled count loops step back the uniforms they fetch ahead "
                         f"by PCG64's advance, and cannot on {type(bitgen).__name__}")
    unused = _I64(0)
    with bitgen.lock:
        pending = bitgen.state
        drawn = call(bitgen.ctypes.bit_generator, ctypes.byref(unused))
        bitgen.advance(-unused.value)
        if pending["has_uint32"]:
            state = bitgen.state
            state.update(has_uint32=pending["has_uint32"], uinteger=pending["uinteger"])
            bitgen.state = state
    return drawn


def check_steps(burn_in: int, rows: int, lag_rows: int) -> None:
    """Reject what a count loop cannot draw: a negative ``burn_in``, or an output of
    ``rows`` rows that cannot hold the ``lag_rows`` lag rows before the kept steps."""
    if burn_in < 0 or rows < lag_rows:
        raise ValueError(f"a count loop needs burn_in >= 0 and at least {lag_rows} output "
                         f"rows, got burn_in {burn_in} and {rows} rows")


def _check_buffers(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if not (arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.aligned):
            raise ValueError("the compiled loops need aligned, C-contiguous float64 arrays")


class CountKernel:
    """The compiled ``inar``, ``minar1``, ``hawkes``, ``dantzig_path`` and ``cv_folds``
    loops, with numpy's functions bound."""

    def __init__(self):
        blas = {name: _blas.cblas(name) for name in ("ddot", "dgemv", "dger", "dgemm")}
        for name, found in blas.items():
            if found is None:
                raise OSError(f"numpy's BLAS exports no CBLAS {name}")
            if found[1] is not blas["ddot"][1]:
                raise OSError(f"numpy's BLAS exports CBLAS {name} with "
                              f"{8 * ctypes.sizeof(found[1])}-bit integers and ddot with "
                              f"{8 * ctypes.sizeof(blas['ddot'][1])}-bit ones")
        import numpy.random._generator as generator

        draws = ctypes.CDLL(generator.__file__)
        poisson, exponential = draws.random_poisson, draws.random_standard_exponential
        lib = ctypes.CDLL(_library_path(8 * ctypes.sizeof(blas["ddot"][1])))
        self._poisson, self._exponential, self._ddot, self._dgemv, self._dger, self._dgemm = (
            ctypes.cast(fn, _PTR).value
            for fn in (poisson, exponential, *(fn for fn, _ in blas.values())))
        self._inar, self._minar1, self._hawkes = lib.inar, lib.minar1, lib.hawkes
        self._block_sums = lib.block_sums
        self._block_sums.argtypes = [_I64, _PTR, _PTR, _PTR]
        self._block_sums.restype = None
        self._lp = lib.dantzig_path
        self._lp.argtypes = [_PTR, _PTR, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _I64, _PTR,
                             _PTR, _PTR, _PTR]
        self._lp.restype = _I64
        self._cv = lib.cv_folds
        self._cv.argtypes = [_PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR,
                             _I64, _PTR, _I64, _PTR, _PTR, _PTR, _PTR]
        self._cv.restype = _I64
        self._inar.argtypes = [_PTR, _PTR, _PTR, _F64, _I64, _PTR, _I64, _PTR, _PTR, _I64,
                               _F64, ctypes.POINTER(_I64)]
        self._minar1.argtypes = [_PTR, _PTR, _PTR, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR,
                                 _I64, _F64, ctypes.POINTER(_I64)]
        self._hawkes.argtypes = [_PTR, _PTR, _F64, _I64, _PTR, _PTR, _F64, _PTR, _I64, _I64,
                                 ctypes.POINTER(_F64)]
        self._inar.restype = self._minar1.restype = self._hawkes.restype = _I64

    def inar(self, rng: np.random.Generator, mu_eps: float, alpha: np.ndarray,
             out: np.ndarray, cap: float, burn_in: int) -> int:
        """INAR(p) counts from zero; the steps drawn, ``burn_in + len(out) - p`` in full.

        ``out[:p]`` receives the last p of ``burn_in`` discarded steps (zeros
        where fewer were drawn) and ``out[p:]`` the kept steps.  Fewer steps
        mean that step's mean exceeded ``cap``.
        """
        _check_buffers(alpha, out)
        if alpha.ndim != 1 or out.ndim != 1:
            raise ValueError("alpha and out must be vectors")
        check_steps(burn_in, out.size, alpha.size)
        history = np.zeros(max(alpha.size, 1))
        return _drawn(rng, lambda bitgen, unused: self._inar(
            self._poisson, self._ddot, bitgen, float(mu_eps), alpha.size, alpha.ctypes.data,
            int(burn_in), history.ctypes.data, out.ctypes.data, out.size, cap, unused))

    def minar1(self, rng: np.random.Generator, eta: np.ndarray, a_matrix: np.ndarray,
               out: np.ndarray, cap: float, burn_in: int) -> int:
        """MINAR(1) counts from zero; the steps drawn, ``burn_in + len(out) - 1`` in full.

        Row 0 of ``out`` receives the last of ``burn_in`` discarded steps (zeros
        where there are none) and the later rows the kept steps, as :meth:`inar`
        with p = 1.  Each step's ``a_matrix @ y`` is the block sum where
        :meth:`block_sums_match` allows it, and numpy's ``dgemv`` otherwise.
        """
        _check_buffers(eta, a_matrix, out)
        d = eta.size
        if a_matrix.shape != (d, d) or out.ndim != 2 or out.shape[1] != d:
            raise ValueError("a_matrix must be d x d and out steps x d for d = eta.size")
        check_steps(burn_in, out.shape[0], 1)
        blocks = self.block_sums_match(a_matrix)
        scratch = np.empty(3 * d)
        return _drawn(rng, lambda bitgen, unused: self._minar1(
            self._poisson, self._dgemv, bitgen, d, eta.ctypes.data, a_matrix.ctypes.data,
            int(blocks), int(burn_in), scratch.ctypes.data, out.ctypes.data, out.shape[0], cap,
            unused))

    def block_sums_match(self, a_matrix: np.ndarray) -> bool:
        """Whether ``minar1`` may sum each row of ``a_matrix`` over its own 4 x 4 block.

        True when the nonnegative d x d ``a_matrix`` is zero outside its
        aligned 4 x 4 diagonal blocks and the compiled block sum equals
        numpy's ``a_matrix @ y`` bit for bit on a few fixed count vectors y,
        the rows of one matrix, as the steps' counts are.  numpy's BLAS picks
        its kernel for the CPU, and the kernel's reduction order follows d
        and the memory layout, not the values, so probes that tell the
        orders apart settle it.  (Orders differ only on rows with three or
        more non-zeros; with fewer, every order gives the same sum.)
        """
        _check_buffers(a_matrix)
        d = a_matrix.shape[0] if a_matrix.ndim == 2 else 0
        if d == 0 or d % 4 or a_matrix.shape != (d, d):
            return False
        k = d // 4
        diagonal = a_matrix.reshape(k, 4, k, 4)[np.arange(k), :, np.arange(k)]
        if np.count_nonzero(diagonal) != np.count_nonzero(a_matrix):
            return False
        probes = np.random.default_rng(_PROBE_SEED).integers(0, 1000, (_PROBES, d))
        sums = np.empty(d)
        for y in probes.astype(float):
            self._block_sums(d, a_matrix.ctypes.data, y.ctypes.data, sums.ctypes.data)
            if sums.tobytes() != (a_matrix @ y).tobytes():
                return False
        return True

    def hawkes(self, rng: np.random.Generator, eta: float, breakpoints: np.ndarray,
               values: np.ndarray, horizon: float) -> np.ndarray:
        """Hawkes event times in (0, horizon] by Ogata thinning, as ``simulate_hawkes``.

        The events go into a buffer of ``_HAWKES_CAPACITY``; each time it fills,
        the loop resumes in one twice the size, so the events do not depend on it.
        """
        _check_buffers(breakpoints, values)
        if breakpoints.ndim != 1 or values.shape != breakpoints.shape:
            raise ValueError("breakpoints and values must be vectors of equal length")
        events = np.empty(_HAWKES_CAPACITY)
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

    def dantzig_path(self, gram: np.ndarray, b: np.ndarray, lams: Sequence[float],
                     max_iter: int) -> Tuple[np.ndarray, list, list, np.ndarray]:
        """The Dantzig LP of the system (``gram``, ``b``) for each lambda, largest first.

        Returns the theta of each lambda (rows of one array), its pivot
        count, its certified status and its slack, in the order of ``lams``,
        warm-starting each from the last basis.  The caller checks that
        the system is finite.
        """
        _check_buffers(gram, b)
        p = b.size
        if not (p > 0 and b.ndim == 1 and gram.shape == (p, p)):
            raise ValueError("dantzig_path needs a p x p gram and a moment of p values, p > 0")
        lams = np.array(lams, dtype=np.float64)
        theta, slack = np.empty((lams.size, p)), np.empty(lams.size)
        iterations, status = np.empty((2, lams.size), np.int64)
        if self._lp(self._ddot, self._dgemv, self._dger, p, gram.ctypes.data, b.ctypes.data,
                    lams.size, lams.ctypes.data, max_iter, theta.ctypes.data,
                    iterations.ctypes.data, status.ctypes.data, slack.ctypes.data):
            raise MemoryError("no scratch memory for the LP loop")
        return theta, iterations.tolist(), [_LP_STATUS[code] for code in status], slack

    def cv_folds(self, zc: np.ndarray, yc: np.ndarray, bounds: Sequence[int],
                 cross: np.ndarray, cross_y: np.ndarray, grid: np.ndarray,
                 max_iter: int) -> Tuple:
        """The fold loop of ``dantzig.cross_validate_lambda``.

        ``zc`` (n x p) and ``yc`` are split into blocks at the row offsets
        ``bounds``, and ``cross`` and ``cross_y`` are the blocks'
        cross-products.  Returns the held-out losses, pivot counts, statuses
        and slacks of each (fold, lambda) on the ascending ``grid``; the loop
        stops after a fold with a fit that is not "optimal", so ``statuses``
        has a row for each fold run and the later rows of the arrays stay 0.
        """
        _check_buffers(zc, yc, cross, cross_y)
        bounds = np.array(bounds, dtype=np.int64)
        grid = np.array(grid, dtype=np.float64)
        folds = bounds.size - 1
        n, p = zc.shape if zc.ndim == 2 else (0, 0)
        if not (p > 0 and folds > 0 and grid.ndim == 1 and grid.size and yc.shape == (n,)
                and bounds[0] == 0 and bounds[-1] == n and np.all(np.diff(bounds) > 0)
                and cross.shape == (folds, p, p) and cross_y.shape == (folds, p)):
            raise ValueError("cv_folds needs an n x p series (p > 0), blocks that cover it, "
                             "the cross-products of each block and a grid")
        losses, slacks = np.zeros((folds, grid.size)), np.zeros((folds, grid.size))
        pivots, codes = np.zeros((2, folds, grid.size), np.int64)
        ran = self._cv(self._ddot, self._dgemv, self._dger, self._dgemm, p, folds,
                       bounds.ctypes.data, zc.ctypes.data, yc.ctypes.data, cross.ctypes.data,
                       cross_y.ctypes.data, grid.size, grid.ctypes.data, max_iter,
                       pivots.ctypes.data, codes.ctypes.data, slacks.ctypes.data,
                       losses.ctypes.data)
        if ran == -1:
            raise MemoryError("no scratch memory for the CV loop")
        if ran < -1:
            raise ValueError("gram and moment must be finite")
        statuses = [[_LP_STATUS[code] for code in row] for row in codes[:ran].tolist()]
        return losses, pivots, statuses, slacks


_UNSET = object()
_kernel = _UNSET  # the loaded CountKernel, or the error that stopped the first load


def load() -> CountKernel:
    """The compiled loops, built on the first call in a process.

    Raises ``RuntimeError``, chained to its cause, where they cannot be built
    or loaded; the message names what is missing (``cc``, its exit status
    and output, or a CBLAS function).  The failure is kept, so later calls in
    the process raise it again without running ``cc``.
    """
    global _kernel
    if _kernel is _UNSET:
        try:
            _kernel = CountKernel()
        except (OSError, AttributeError) as exc:
            _kernel = exc
    if isinstance(_kernel, Exception):
        raise RuntimeError(f"the compiled loops of sparseproc cannot load, and nothing else "
                           f"runs them: {_kernel}") from _kernel
    return _kernel
