"""l1-minimal estimation subject to an l-infinity score constraint.

The Dantzig selector  min ||theta||_1  s.t.  ||b - A theta||_inf <= lambda
is rewritten with the positive/negative split theta = u - v into the
linear program

    min 1'(u + v)   s.t.   A(u - v) <= b + lambda,
                          -A(u - v) <= lambda - b,   u, v >= 0,

and solved exactly by a dense dual simplex.  lambda enters only the
right-hand side and every cost is one, so the all-slack basis is dual
feasible for every lambda and the dual simplex starts from it without a
phase 1.  Both the leaving and the entering choices follow Bland's
lowest-index rule, which prevents cycling and makes the returned vertex
deterministic.  A path of lambda values is solved in one Fortran-order
tableau from the largest value down, each warm-started from the last
optimal basis (parametric simplex, as in fastclime); every pivot is one
in-place BLAS rank-1 update (dger).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.blas import dger

from .errors import UncertifiedFitError
from .scores import LinearScoreSystem, center_design
# no longer called here; perfbench/tracing.py still wraps dantzig.build_regression_score by name
from .scores import build_regression_score  # noqa: F401


@dataclass(frozen=True)
class DantzigFit:
    """First-step estimate with solver certificate."""

    theta_hat: np.ndarray
    lam: float
    l1_objective: float  # ||theta_hat||_1
    feasibility_slack: float  # lambda - ||b - A theta_hat||_inf
    iterations: int
    status: str  # optimal | infeasible | iteration_limit


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


def solve_dantzig(sys: LinearScoreSystem, lam: float,
                  max_iter: Optional[int] = None) -> DantzigFit:
    """Solve the constrained l1 minimization for one tuning value."""
    return solve_dantzig_path(sys, [lam], max_iter)[0]


def solve_dantzig_path(sys: LinearScoreSystem, lams: Sequence[float],
                       max_iter: Optional[int] = None) -> list[DantzigFit]:
    """Solve the constrained l1 minimization for each tuning value; fits in input order.

    ``max_iter`` bounds the pivots of each value.  ``status`` is
    "infeasible" only when lambda is below the smallest attainable score
    norm; a fit that is not "optimal" carries the last basic solution visited.
    """
    if not all(np.isfinite(lam) and lam >= 0 for lam in lams):
        raise ValueError("lambda must be finite and nonnegative")
    a, b, p = sys.gram, sys.moment, sys.dim
    max_iter = 50 * 4 * p if max_iter is None else max_iter
    tol = 1e-9 * max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))

    m, n_cols = 2 * p, 4 * p        # constraint rows (one slack each); u, v, slack columns
    tableau = np.zeros((m + 1, n_cols + 1), order="F")  # columns contiguous for dger
    tableau[:p, :p] = tableau[p:m, p:m] = a
    tableau[:p, p:m] = tableau[p:m, :p] = -a
    tableau[np.arange(m), m + np.arange(m)] = 1.0
    # reduced costs of the slack basis are the costs, all ones: dual feasible for every lambda
    tableau[-1, :m] = 1.0
    basis = m + np.arange(m)

    fits: list = [None] * len(lams)
    for lam, i in sorted(zip(lams, range(len(lams))), reverse=True):
        # the last basis stays dual feasible; the slack columns hold B^-1
        tableau[:m, -1] = tableau[:m, m:n_cols] @ np.concatenate([b + lam, lam - b])
        for iterations in range(max_iter):
            rows = np.nonzero(tableau[:m, -1] < -tol)[0]
            if rows.size == 0:
                status = "optimal"
                break
            leave = int(rows[np.argmin(basis[rows])])  # Bland: lowest basic index
            row = tableau[leave, :n_cols]
            cols = np.nonzero(row < -tol)[0]
            if cols.size == 0:  # nonnegative entries times x >= 0 cannot reach a negative value
                status = "infeasible"
                break
            ratios = tableau[-1, cols] / -row[cols]
            enter = int(cols[np.nonzero(ratios <= ratios.min() + tol)[0][0]])  # Bland tie-break
            pivot_row = tableau[leave] / tableau[leave, enter]
            dger(-1.0, tableau[:, enter].copy(), pivot_row, a=tableau, overwrite_a=1)
            tableau[leave] = pivot_row
            basis[leave] = enter
        else:
            status, iterations = "iteration_limit", max_iter
        x = np.zeros(n_cols)
        x[basis] = tableau[:m, -1]
        theta = x[:p] - x[p:m]
        slack = lam - float(np.abs(b - a @ theta).max()) if p else lam
        fits[i] = DantzigFit(theta_hat=theta, lam=lam,
                             l1_objective=float(np.abs(theta).sum()),
                             feasibility_slack=slack, iterations=iterations, status=status)
    return fits


def threshold_support(fit: DantzigFit, tau: float) -> SupportEstimate:
    """Coordinates with |theta_hat_j| strictly greater than tau."""
    if not (np.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and nonnegative")
    idx = np.nonzero(np.abs(fit.theta_hat) > tau)[0]
    return SupportEstimate(indices=tuple(int(j) for j in idx), threshold=float(tau))


def default_lambda_grid(moment: np.ndarray, num: int = 20,
                        lo: float = 0.01, hi: float = 1.0) -> np.ndarray:
    """Log-spaced grid spanning [lo, hi] times the unconstrained score norm."""
    b_inf = float(np.abs(np.asarray(moment)).max())
    if b_inf <= 0:
        return np.array([0.0])
    return np.geomspace(lo * b_inf, hi * b_inf, num)


def cross_validate_lambda(design: np.ndarray, response: np.ndarray,
                          grid: Optional[Sequence[float]] = None,
                          folds: int = 5) -> CvReport:
    """Pick lambda by contiguous-block K-fold, preserving time order.

    ``design`` must carry the intercept in column 0.  The whole series is
    centered once with ``center_design`` and split into ``folds``
    contiguous blocks; each block contributes its cross-products and
    column sums about that common mean.  Fold k's training system, the
    least-squares score of the other blocks centered at their own mean, is
    merged from those sums without copying a row (shifted sums as in
    Chan, Golub & LeVeque, 1983), solved along the grid, and scored by the
    one-step-ahead squared prediction error on the held-out block
    (intercept refit from the training means).  Without a ``grid``, the
    default grid of the whole series' centered moment is used.  Ties in
    the mean loss go to the largest lambda.  Raises
    ``UncertifiedFitError`` when a fold's LP is not "optimal".
    """
    z = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    n = y.size
    zc, yc, _, _ = center_design(z, y)
    if grid is None:
        grid = default_lambda_grid(zc.T @ yc / n)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda grid is empty")
    if np.any(np.diff(grid) < 0):
        raise ValueError("lambda grid must be sorted ascending")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < 2 * folds:
        raise ValueError("series too short for the requested fold count")
    z_blocks, y_blocks = np.array_split(zc, folds), np.array_split(yc, folds)  # views
    cross = np.array([zb.T @ zb for zb in z_blocks])
    cross_y = np.array([zb.T @ yb for zb, yb in zip(z_blocks, y_blocks)])
    sums = np.array([zb.sum(axis=0) for zb in z_blocks])
    sums_y = np.array([yb.sum() for yb in y_blocks])
    losses = np.zeros((folds, grid.size))
    for k, (z_val, y_val) in enumerate(zip(z_blocks, y_blocks)):
        train = np.arange(folds) != k
        m = n - y_val.size
        d = sums[train].sum(axis=0) / m     # training means, relative to the full ones
        e = sums_y[train].sum() / m
        sys = LinearScoreSystem(gram=cross[train].sum(axis=0) / m - np.outer(d, d),
                                moment=cross_y[train].sum(axis=0) / m - d * e, n_eff=m)
        fits = solve_dantzig_path(sys, grid)
        for lam, fit in zip(grid, fits):
            if fit.status != "optimal":
                raise UncertifiedFitError(
                    f"CV LP of fold {k} at lambda={lam:.6g} ended with status {fit.status!r}")
        thetas = np.column_stack([fit.theta_hat for fit in fits])
        resid = (y_val - e)[:, None] - (z_val - d) @ thetas
        losses[k] = np.mean(resid ** 2, axis=0)
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
