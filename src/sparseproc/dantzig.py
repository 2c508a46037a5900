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
slack, recomputed from theta, certifies it.  That loop is the compiled
``CountKernel.dantzig_path`` of ``_countsim``.  Cross-validation runs its
whole fold loop in one call to the compiled ``CountKernel.cv_folds``, which
hands each fold to the same LP loop.  Both are the only runtime path: where
``_countsim.load()`` cannot build or load them, it raises ``RuntimeError``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _countsim
from .errors import UncertifiedFitError
from .scores import CenteredDesign, LinearScoreSystem
from .simulate import as_float, as_int
# no longer called here; perfbench/tracing.py still wraps dantzig.build_regression_score by name
from .scores import build_regression_score  # noqa: F401

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
    thetas, iterations, statuses, slacks = _countsim.load().dantzig_path(
        np.ascontiguousarray(sys.gram), np.ascontiguousarray(sys.moment),
        [lam for lam, _ in path], _PIVOTS_PER_DIM * p)
    l1 = np.abs(thetas).sum(axis=1)
    fits: list = [None] * len(lams)
    for (lam, i), theta, slack, objective, pivot_count, status in zip(
            path, thetas, slacks.tolist(), l1.tolist(), iterations, statuses):
        fits[i] = DantzigFit(theta_hat=theta, lam=lam, l1_objective=objective,
                             feasibility_slack=slack, iterations=pivot_count, status=status)
    return fits


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
    one call to the compiled ``CountKernel.cv_folds`` of ``_countsim``.
    Without a ``grid``, the default grid of ``data.moment`` is
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
    losses, _, statuses, _ = _countsim.load().cv_folds(zc, yc, bounds, cross, cross_y, grid,
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
