"""The numpy loops the compiled loops of ``_countsim`` are checked against.

Each method of ``ReferenceKernel`` repeats, in order, the float operations
and BLAS calls of the ``CountKernel`` method of the same name and signature,
so the two give the same counts, events, fits, slacks and held-out losses
byte for byte.  A test patches ``_countsim.load`` to return a
``ReferenceKernel``, and the simulators, ``solve_dantzig_path`` and
``cross_validate_lambda`` then run these loops in place of the compiled ones.

``rank1_updater`` binds the CBLAS ``dger`` of numpy's own BLAS, as the
compiled LP loop calls it, for the numpy LP loop's pivots.
"""

from __future__ import annotations

import ctypes
import math
from bisect import bisect_right
from typing import Callable, Sequence, Tuple

import numpy as np

from sparseproc import _blas, _countsim

_COL_MAJOR = 102  # CblasColMajor
_DRAW_BLOCK = 4096  # unit exponentials fetched per call in the Hawkes loop

# the reductions behind ndarray.min/max, without their Python-level wrappers
_min, _max = np.minimum.reduce, np.maximum.reduce


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
    fn, int_t = _blas.cblas("dger")
    m, n = a.shape
    # prebuilt arguments: converting the buffers on every call would cost more than the update
    args = (ctypes.c_int(_COL_MAJOR), int_t(m), int_t(n), ctypes.c_double(-1.0),
            ctypes.c_void_p(x.ctypes.data), int_t(1), ctypes.c_void_p(y.ctypes.data),
            int_t(1), ctypes.c_void_p(a.ctypes.data), int_t(max(m, 1)))

    def update() -> None:
        fn(*args)
    update.buffers = (a, x, y)  # keep the bound memory alive as long as the call
    return update


def standard_exponentials(rng: np.random.Generator):
    """Unit exponential draws of ``rng`` one at a time, fetched in blocks.

    A block draw consumes the same stream as repeated scalar draws, and
    ``rng.exponential(scale)`` is ``scale * rng.standard_exponential()``.
    """
    while True:
        yield from rng.standard_exponential(_DRAW_BLOCK).tolist()


class ReferenceKernel:
    """``CountKernel``'s ``inar``, ``minar1``, ``hawkes``, ``dantzig_path`` and
    ``cv_folds``, as numpy loops."""

    def inar(self, rng: np.random.Generator, mu_eps: float, alpha: np.ndarray,
             out: np.ndarray, cap: float, burn_in: int) -> int:
        """Fill ``out`` with INAR(p) counts from zero; the steps drawn."""
        p = alpha.size
        _countsim.check_steps(burn_in, out.size, p)
        history = np.zeros(max(p, 1))  # history[0] = X_{t-1}, ... , history[p-1] = X_{t-p}
        out[:p] = 0.0
        for t in range(burn_in + out.size - p):
            lam = mu_eps + (alpha @ history[:p] if p else 0.0)
            if lam > cap:
                return t
            x = rng.poisson(lam)
            if p:
                history[1:p] = history[: p - 1]
                history[0] = x
            if t + p >= burn_in:
                out[t + p - burn_in] = x
        return burn_in + out.size - p

    def minar1(self, rng: np.random.Generator, eta: np.ndarray, a_matrix: np.ndarray,
               out: np.ndarray, cap: float, burn_in: int) -> int:
        """Fill the rows of ``out`` with MINAR(1) counts from zero; the steps drawn."""
        _countsim.check_steps(burn_in, out.shape[0], 1)
        y = out[0] = np.zeros(eta.size)
        for t in range(burn_in + out.shape[0] - 1):
            lam = eta + a_matrix @ y
            if lam.max() > cap:
                return t
            y = rng.poisson(lam).astype(float)
            if t + 1 >= burn_in:
                out[t + 1 - burn_in] = y
        return burn_in + out.shape[0] - 1

    def hawkes(self, rng: np.random.Generator, eta: float, breakpoints: np.ndarray,
               values: np.ndarray, horizon: float) -> np.ndarray:
        """The event times in (0, horizon] by Ogata thinning."""
        draw = standard_exponentials(rng).__next__
        bp = breakpoints.tolist()
        vals = values.tolist()
        eta = float(eta)
        horizon = float(horizon)
        pieces = len(bp)
        tail = bp[-1] if bp else 0.0
        events: list[float] = []
        t = 0.0
        first_active = 0  # events earlier than t - tail never contribute again
        while True:
            while first_active < len(events) and events[first_active] <= t - tail:
                first_active += 1
            # intensity just right of t (lam >= eta > 0) and the next time it can change
            lam = eta
            next_change = math.inf
            for ti in events[first_active:]:
                k = bisect_right(bp, t - ti)
                if k < pieces:
                    lam += vals[k]
                    boundary = ti + bp[k]
                    # guard: float rounding may land exactly on t
                    if t < boundary < next_change:
                        next_change = boundary
            wait = (1.0 / lam) * draw()
            if t + wait > next_change:
                t = math.nextafter(next_change, math.inf)
                continue
            t = t + wait
            if t > horizon:
                break
            events.append(t)
        return np.array(events)

    def dantzig_path(self, a: np.ndarray, b: np.ndarray, lams: Sequence[float], max_iter: int
                     ) -> Tuple[np.ndarray, list, list, np.ndarray]:
        """The LP of each lambda, from the largest value down, each warm-started from
        the last basis.  Returns the theta of each lambda (rows of one array), its
        pivot count, its certified status and its slack, in that order.
        """
        p = b.size
        scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
        tol = 1e-9 * scale
        n_cols = 2 * p                  # theta columns, then the slack columns (which hold B^-1)
        tableau = np.zeros((p + 1, n_cols + 1), order="F")  # columns contiguous for dger
        tableau[:p, :p] = a
        tableau[np.arange(p), p + np.arange(p)] = 1.0
        # last row: the reduced cost d_j of raising theta_j (1 at the slack basis; a basic
        # theta on its negative piece holds 2) and the reduced cost of each slack
        tableau[-1, :p] = 1.0
        x = tableau[:p, -1]             # values of the basic variables
        basis = p + np.arange(p)        # stored column of each row's basic variable
        order = 2 * p + np.arange(p)    # its Bland index: u_j = j, v_j = p + j, s_i = 2p + i
        bounds = np.empty((2, p))       # of the basic variables, widened by tol
        lo, hi = bounds
        slack_bounds = np.empty((2, 1))  # the current (lower, upper) bound of a basic slack
        side = np.zeros(p)              # -1 / +1 for a slack nonbasic at -lambda / +lambda
        lower_cost = np.zeros(n_cols)   # lowering theta_j costs 2 - (cost of raising it)
        lower_cost[:p] = 2.0
        flip, gap, ratios = np.empty(n_cols), np.empty(n_cols), np.empty(n_cols)
        pivot_row, enter_col = np.empty(n_cols + 1), np.empty(p + 1)
        eliminate = rank1_updater(tableau, enter_col, pivot_row)  # -= outer(enter_col, pivot_row)

        thetas, pivot_counts, statuses = np.zeros((len(lams), p)), [], []
        for k, lam in enumerate(lams):
            # the last basis stays dual feasible: lambda moves only the nonbasic slacks' bounds
            x[:] = tableau[:p, p:n_cols] @ (b - lam * side)
            slack_bounds[:, 0] = -lam - tol, lam + tol
            np.copyto(bounds, slack_bounds, where=basis >= p)
            for iterations in range(max_iter + 1):  # optimality is tested after the last pivot
                rows = ((x < lo) | (x > hi)).nonzero()[0]
                if rows.size == 0:
                    status = "optimal"
                    break
                if iterations == max_iter:
                    status = "iteration_limit"
                    break
                leave = int(rows[order[rows].argmin()])  # Bland: lowest basic index
                out, x_r = int(basis[leave]), float(x[leave])
                # up: the leaving variable must rise to its lower bound, else fall to its upper
                up = x_r < lo[leave]
                bound = 0.0 if out < p else -lam if up else lam
                # rho < 0: raising the column's variable moves x_r the right way
                rho = (tableau[leave, :n_cols] if up
                       else np.negative(tableau[leave, :n_cols], out=flip))
                np.abs(rho[:p], out=gap[:p])             # a theta moves either way
                np.multiply(rho[p:], side, out=gap[p:])  # a slack only away from its bound
                # per unit of gap: raising costs the reduced cost d, lowering a theta 2 - d
                # and lowering a slack -d
                cost = np.where(rho > 0, lower_cost - tableau[-1, :n_cols], tableau[-1, :n_cols])
                ratios.fill(np.inf)
                np.divide(cost, gap, out=ratios, where=gap > tol)
                best = _min(ratios)
                if best == np.inf:  # no nonbasic variable can move x_r toward its bound
                    status = "infeasible"
                    break
                enter = int((ratios <= best + tol).argmax())  # Bland: lowest column among ties
                lowering = enter < p and rho[enter] > 0
                x[leave] = x_r - bound  # the pivot row's last entry becomes the entering step
                np.divide(tableau[leave], tableau[leave, enter], out=pivot_row)
                np.copyto(enter_col, tableau[:, enter])
                if lowering:
                    enter_col[-1] -= 2.0  # the reduced cost of theta_j's negative piece
                eliminate()
                tableau[leave] = pivot_row
                if out >= p:
                    side[out - p] = -1.0 if up else 1.0
                basis[leave] = enter
                if enter >= p:
                    x[leave] += lam * side[enter - p]  # the slack's old value
                    side[enter - p] = 0.0
                    order[leave] = p + enter
                    lo[leave], hi[leave] = slack_bounds[:, 0]
                elif lowering:
                    order[leave] = p + enter
                    lo[leave], hi[leave] = -np.inf, tol
                else:
                    order[leave] = enter
                    lo[leave], hi[leave] = -tol, np.inf
            xs = np.zeros(n_cols)
            xs[basis] = x
            thetas[k] = xs[:p]
            pivot_counts.append(iterations)
            statuses.append(status)
        # the certificate of every fit at once: a stacked matmul is one dgemv per theta, as
        # a @ theta is (a dgemm over all thetas would round differently)
        residuals = b - np.matmul(a, thetas[:, :, None])[..., 0]
        slacks = np.array(lams, dtype=float) - _max(np.abs(residuals), axis=1)
        short = (slacks < -1e-8 * scale).tolist()
        statuses = ["inaccurate" if status == "optimal" and fails else status
                    for status, fails in zip(statuses, short)]
        return thetas, pivot_counts, statuses, slacks

    def cv_folds(self, zc: np.ndarray, yc: np.ndarray, bounds: np.ndarray, cross: np.ndarray,
                 cross_y: np.ndarray, grid: np.ndarray, max_iter: int
                 ) -> Tuple[np.ndarray, np.ndarray, list, np.ndarray]:
        """Each fold's fits and losses.

        ``zc`` and ``yc`` are split into blocks at the row offsets ``bounds``,
        and ``cross`` and ``cross_y`` are the blocks' cross-products.  Each
        fold's LP goes to :meth:`dantzig_path` with ``max_iter``.  Returns, per
        fold and value of the ascending ``grid``, the held-out mean squared
        error, the pivot count, the status and the slack of the fit.  The loop
        stops after a fold with a fit that is not "optimal": ``statuses`` has a
        row for each fold run, and the later rows of the arrays stay 0.
        """
        folds = bounds.size - 1
        n = yc.size
        blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        sums = np.array([zc[rows].sum(axis=0) for rows in blocks])
        sums_y = np.array([yc[rows].sum() for rows in blocks])
        losses, slacks = np.zeros((folds, grid.size)), np.zeros((folds, grid.size))
        pivots = np.zeros((folds, grid.size), np.int64)
        statuses = []
        z_held = np.empty_like(zc[blocks[0]])  # the largest block comes first
        for k, rows in enumerate(blocks):
            z_val, y_val = zc[rows], yc[rows]
            train = np.arange(folds) != k
            m = n - y_val.size
            d = sums[train].sum(axis=0) / m     # training means, relative to the full ones
            e = sums_y[train].sum() / m
            gram = cross[train].sum(axis=0) / m - np.outer(d, d)
            moment = cross_y[train].sum(axis=0) / m - d * e
            if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(moment))):
                raise ValueError("gram and moment must be finite")
            path_thetas, path_pivots, path_statuses, path_slacks = self.dantzig_path(
                gram, moment, grid[::-1], max_iter)
            statuses.append(path_statuses[::-1])
            pivots[k], slacks[k] = path_pivots[::-1], path_slacks[::-1]
            if statuses[-1].count("optimal") < grid.size:
                break
            thetas = np.ascontiguousarray(path_thetas[::-1].T)  # p x grid in C order, as in C
            z_dev = np.subtract(z_val, d, out=z_held[:y_val.size])
            resid = z_dev @ thetas
            np.subtract((y_val - e)[:, None], resid, out=resid)
            losses[k] = np.mean(np.square(resid, out=resid), axis=0)
        return losses, pivots, statuses, slacks
