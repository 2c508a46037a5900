"""l1-minimal estimation subject to an l-infinity score constraint.

The Dantzig selector  min ||theta||_1  s.t.  ||b - A theta||_inf <= lambda
is written on p ranged rows

    min sum_j |theta_j|   s.t.   A theta + s = b,   -lambda <= s <= lambda,

and solved exactly by a dense bounded dual simplex (Fourer, Math. Prog. 33,
1985; Koberstein, PhD thesis, Paderborn 2005).  The tableau is
(p+1) x (2p+1): one column B^-1 A_j per free theta_j, the slack columns,
which hold B^-1, and the values of the basic variables in the last column.
|theta_j| has two pieces: raising theta_j costs its reduced cost d_j and
lowering it 2 - d_j, so the slack basis, where every d_j is 1, is dual
feasible for every lambda and the dual simplex starts from it without a
phase 1.  lambda moves only the bounds of the nonbasic slacks.  A basic
variable leaves at the bound it violates; a basic theta_j whose sign
disagrees with its piece leaves at 0, and may re-enter on the other piece
in the same pivot.  Both choices follow Bland's lowest-index rule, in the
numbering of the split form theta = u - v (u_j = j, v_j = p + j, slack
2p + i) for the leaving variable and by stored column for the entering
one, which prevents cycling and makes the returned vertex deterministic.
A path of lambda values is solved from the largest value down, each
warm-started from the last optimal basis (parametric simplex, as in
fastclime); every pivot is one in-place BLAS rank-1 update (dger) through
the CBLAS that numpy itself links (``_blas``), so no scipy module is
imported on this path.  One loop, given the gram and moment, sets up the
tableau, pivots and certifies each fit: it is "optimal" only when its
slack, recomputed from theta, certifies it.  It is the compiled
``CountKernel.dantzig_path``, which makes the float operations and BLAS
calls of the numpy loop ``_dantzig_path`` in their order; that loop runs
where the compiled one does not load.  Cross-validation runs its whole fold
loop in one call to the compiled ``CountKernel.cv_folds``, which stands in,
byte for byte, for the numpy loop ``_cv_folds``; each hands its folds to the
LP loop of its own language, not to ``solve_dantzig_path``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _countsim
from ._blas import rank1_updater
from .errors import UncertifiedFitError
from .scores import CenteredDesign, LinearScoreSystem
from .simulate import as_float, as_int
# no longer called here; perfbench/tracing.py still wraps dantzig.build_regression_score by name
from .scores import build_regression_score  # noqa: F401

# the reductions behind ndarray.min/max/sum, without their Python-level wrappers:
# the CV path solves thousands of small LPs, where call overhead outweighs the work
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce

# the default CV grid: how many values, and its ends as multiples of the score norm
_GRID_NUM, _GRID_LO, _GRID_HI = 20, 0.01, 1.0

# the bound on the pivots of each lambda, per coordinate
_PIVOTS_PER_DIM = 200


@dataclass(frozen=True)
class DantzigFit:
    """First-step estimate with solver certificate."""

    theta_hat: np.ndarray
    lam: float
    l1_objective: float  # ||theta_hat||_1
    feasibility_slack: float  # lambda - ||b - A theta_hat||_inf
    iterations: int
    status: str  # optimal | inaccurate | infeasible | iteration_limit


@dataclass(frozen=True)
class SupportEstimate:
    """Indices whose first-step coordinate strictly exceeds the threshold."""

    indices: Tuple[int, ...]
    threshold: float


@dataclass(frozen=True)
class CvReport:
    grid: np.ndarray
    cv_loss: np.ndarray
    chosen_lambda: float
    folds: int


def solve_dantzig(sys: LinearScoreSystem, lam: float) -> DantzigFit:
    """Solve the constrained l1 minimization for one tuning value."""
    return solve_dantzig_path(sys, [lam])[0]


def solve_dantzig_path(sys: LinearScoreSystem, lams: Sequence[float]) -> list[DantzigFit]:
    """Solve the constrained l1 minimization for each tuning value; fits in input order.

    Each lambda passes ``as_float``, and its fit stores the float it returns.
    Each value may take ``_PIVOTS_PER_DIM * p`` pivots; a value whose basis
    is optimal after its last allowed pivot is "optimal".  ``status`` is
    "infeasible" only when lambda is below the smallest attainable score
    norm, and "inaccurate" when the pivots ended but the recomputed slack
    falls short of ``-1e-8 * max(1, |A|_max, |b|_max)``; a fit that is not
    "optimal" carries the last basic solution visited.
    """
    lams = [as_float(lam, "lambda") for lam in lams]
    p = sys.dim
    if p == 0:
        raise ValueError("the system has no coordinate to select")
    path = sorted(zip(lams, range(len(lams))), reverse=True)
    kernel = _countsim.load()
    lp_path = _dantzig_path if kernel is None else kernel.dantzig_path
    thetas, iterations, statuses, slacks = lp_path(
        np.ascontiguousarray(sys.gram), np.ascontiguousarray(sys.moment),
        [lam for lam, _ in path], _PIVOTS_PER_DIM * p)
    l1 = _sum(np.abs(thetas), axis=1)
    fits: list = [None] * len(lams)
    for (lam, i), theta, slack, objective, pivot_count, status in zip(
            path, thetas, slacks.tolist(), l1.tolist(), iterations, statuses):
        fits[i] = DantzigFit(theta_hat=theta, lam=lam, l1_objective=objective,
                             feasibility_slack=slack, iterations=pivot_count, status=status)
    return fits


def _dantzig_path(a: np.ndarray, b: np.ndarray, lams: Sequence[float], max_iter: int
                  ) -> Tuple[np.ndarray, list, list, np.ndarray]:
    """The numpy loop of ``_countsim.CountKernel.dantzig_path``: the LP of each lambda.

    ``lams`` runs from the largest value down, each warm-started from the
    last basis.  Returns the theta of each lambda (rows of one array), its
    pivot count, its certified status and its slack, in that order.
    """
    p = b.size
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    tol = 1e-9 * scale
    n_cols = 2 * p                  # theta columns, then the slack columns (which hold B^-1)
    tableau = np.zeros((p + 1, n_cols + 1), order="F")  # columns contiguous for dger
    tableau[:p, :p] = a
    tableau[np.arange(p), p + np.arange(p)] = 1.0
    # last row: the reduced cost d_j of raising theta_j (1 at the slack basis; a basic theta on
    # its negative piece holds 2) and the reduced cost of each slack
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
        for iterations in range(max_iter + 1):  # optimality is tested after the last pivot too
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
            rho = tableau[leave, :n_cols] if up else np.negative(tableau[leave, :n_cols], out=flip)
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


def _cv_folds(zc: np.ndarray, yc: np.ndarray, bounds: np.ndarray, cross: np.ndarray,
              cross_y: np.ndarray, grid: np.ndarray, max_iter: int
              ) -> Tuple[np.ndarray, np.ndarray, list, np.ndarray]:
    """The numpy loop of ``_countsim.CountKernel.cv_folds``: each fold's fits and losses.

    ``zc`` and ``yc`` are split into blocks at the row offsets ``bounds``,
    and ``cross`` and ``cross_y`` are the blocks' cross-products.  Each
    fold's LP goes to ``_dantzig_path`` with ``max_iter``.  Returns, per fold
    and value of the ascending ``grid``, the held-out mean squared error,
    the pivot count, the status and the slack of the fit.  The loop stops
    after a fold with a fit that is not "optimal": ``statuses`` has a row
    for each fold run, and the later rows of the arrays stay 0.
    """
    folds, p = bounds.size - 1, zc.shape[1]
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
        path_thetas, path_pivots, path_statuses, path_slacks = _dantzig_path(
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


def threshold_support(fit: DantzigFit, tau: float) -> SupportEstimate:
    """Coordinates with |theta_hat_j| strictly greater than tau."""
    tau = as_float(tau, "tau")
    idx = np.nonzero(np.abs(fit.theta_hat) > tau)[0]
    return SupportEstimate(indices=tuple(int(j) for j in idx), threshold=tau)


def default_lambda_grid(moment: np.ndarray) -> np.ndarray:
    """Log-spaced grid spanning [0.01, 1] times the unconstrained score norm."""
    b_inf = float(np.abs(np.asarray(moment)).max())
    if b_inf <= 0:
        return np.array([0.0])
    return np.geomspace(_GRID_LO * b_inf, _GRID_HI * b_inf, _GRID_NUM)


def check_cv_arguments(rows: int, folds: int, grid: Optional[np.ndarray]) -> int:
    """``folds`` as an int; ``ValueError`` unless it is an integer >= 2 with two of the
    ``rows`` fit rows per fold, and ``grid``, where given, a nonempty, ascending
    vector of finite, nonnegative values."""
    folds = as_int(folds, "cv folds")
    if folds < 2:
        raise ValueError(f"cv folds must be >= 2, got {folds}")
    if rows < 2 * folds:
        raise ValueError(f"{folds} cv folds need at least {2 * folds} fit rows, got {rows}")
    if grid is not None:
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError(f"cv grid must be a nonempty vector, got shape {grid.shape}")
        if not np.all(np.isfinite(grid) & (grid >= 0)):
            raise ValueError("lambda must be finite and nonnegative")
        if np.any(np.diff(grid) < 0):
            raise ValueError("cv grid must be sorted ascending")
    return folds


def cross_validate_lambda(data: CenteredDesign, grid: Optional[Sequence[float]] = None,
                          folds: int = 5) -> CvReport:
    """Pick lambda by contiguous-block K-fold, preserving time order.

    ``data`` is the ``CenteredDesign`` of the whole series (``center_lags``),
    which the first step then reuses.  The centered series is split into ``folds``
    contiguous blocks; each block contributes its cross-products and
    column sums about the common mean.  Fold k's training system, the
    least-squares score of the other blocks centered at their own mean, is
    merged from those sums without copying a row (shifted sums as in
    Chan, Golub & LeVeque, 1983), solved along the grid, and scored by the
    one-step-ahead squared prediction error on the held-out block
    (intercept refit from the training means).  The whole fold loop runs in
    one call to the compiled ``CountKernel.cv_folds`` of ``_countsim``,
    which makes the float operations and BLAS calls of the numpy loop
    ``_cv_folds`` in their order; that loop runs where the compiled one does
    not load.  Without a ``grid``, the default grid of ``data.moment`` is
    used.  Ties in the mean loss go to the largest lambda.  Raises
    ``UncertifiedFitError`` when a fold's LP is not "optimal".
    """
    if grid is None:
        grid = default_lambda_grid(data.moment)
    grid = np.asarray(grid, dtype=float)
    folds = check_cv_arguments(data.n, folds, grid)
    zc, yc = np.ascontiguousarray(data.zc), np.ascontiguousarray(data.yc)
    if zc.shape[1] == 0:
        raise ValueError("the design has no lag column to select")
    z_blocks, y_blocks = np.array_split(zc, folds), np.array_split(yc, folds)  # views
    bounds = np.cumsum([0] + [yb.size for yb in y_blocks])
    # the blocks' products by numpy's BLAS (zb.T @ zb is a dsyrk, which the kernel lacks)
    cross = np.array([zb.T @ zb for zb in z_blocks])
    cross_y = np.array([zb.T @ yb for zb, yb in zip(z_blocks, y_blocks)])
    kernel = _countsim.load()
    fold_loop = _cv_folds if kernel is None else kernel.cv_folds
    losses, _, statuses, _ = fold_loop(zc, yc, bounds, cross, cross_y, grid,
                                       _PIVOTS_PER_DIM * zc.shape[1])
    for k, row in enumerate(statuses):
        for lam, status in zip(grid, row):
            if status != "optimal":
                raise UncertifiedFitError(
                    f"CV LP of fold {k} at lambda={lam:.6g} ended with status {status!r}")
    cv_loss = losses.mean(axis=0)
    winners = np.nonzero(cv_loss <= cv_loss.min())[0]
    return CvReport(grid=grid, cv_loss=cv_loss,
                    chosen_lambda=float(grid[winners.max()]), folds=folds)


def fit_to_dict(fit: DantzigFit) -> dict:
    """JSON-ready view of a fit."""
    return {
        "theta_hat": fit.theta_hat.tolist(),
        "lambda": fit.lam,
        "objective": fit.l1_objective,
        "slack": fit.feasibility_slack,
        "status": fit.status,
        "iterations": fit.iterations,
    }
