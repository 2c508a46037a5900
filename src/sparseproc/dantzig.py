"""l1-minimal estimation subject to an l-infinity score constraint.

The program  min sum_{j not in F} |theta_j|  s.t.  ||b - A theta||_inf <= lambda,
with F the system's unpenalized coordinates (empty for the plain Dantzig
selector  min ||theta||_1), is rewritten with the positive/negative split
theta = u - v into the linear program

    min c'(u + v)   s.t.   A(u - v) <= b + lambda,
                          -A(u - v) <= lambda - b,   u, v >= 0,

with c_j = 0 for j in F and c_j = 1 otherwise, and solved exactly by a
dense dual simplex.  lambda enters only the right-hand side and every cost
is nonnegative, so the all-slack basis is dual feasible for every lambda
and the dual simplex starts from it without a phase 1.  Both the leaving
and the entering choices follow Bland's lowest-index rule, which prevents
cycling and makes the returned vertex deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import UncertifiedFitError
from .scores import LinearScoreSystem, build_regression_score


@dataclass(frozen=True)
class DantzigFit:
    """First-step estimate with solver certificate."""

    theta_hat: np.ndarray
    lam: float
    l1_objective: float  # l1 norm of theta_hat over penalized coordinates
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


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    colvals = tableau[:, col].copy()
    colvals[row] = 0.0
    tableau -= np.outer(colvals, tableau[row])


def solve_dantzig(sys: LinearScoreSystem, lam: float,
                  max_iter: Optional[int] = None) -> DantzigFit:
    """Solve the constrained l1 minimization for one tuning value.

    Coordinates in ``sys.unpenalized`` get zero cost on both their u and v
    columns, so the fit minimizes the l1 norm over the remaining ones.
    ``status`` is "infeasible" only when ``lam`` is below the smallest
    attainable score norm (singular gram with the moment outside its
    range).  A fit that is not "optimal" carries the last basic solution
    visited, which violates some constraint.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    a, b = sys.gram, sys.moment
    p = sys.dim
    if max_iter is None:
        max_iter = 50 * 4 * p
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    tol = 1e-9 * scale

    m = 2 * p                       # constraint rows, one slack column each
    n_cols = 2 * p + m              # u, v, slack columns
    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:p, :p] = tableau[p:m, p:m] = a
    tableau[:p, p:m] = tableau[p:m, :p] = -a
    tableau[np.arange(m), m + np.arange(m)] = 1.0
    tableau[:m, -1] = np.concatenate([b + lam, lam - b])
    # reduced costs of the slack basis: the costs themselves, all >= 0,
    # so the slack basis is dual feasible for every lambda
    cost = np.ones(p)
    cost[list(sys.unpenalized)] = 0.0
    tableau[-1, :p] = tableau[-1, p:m] = cost
    basis = m + np.arange(m)

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
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    else:
        status, iterations = "iteration_limit", max_iter

    x = np.zeros(n_cols)
    x[basis] = tableau[:m, -1]
    theta = x[:p] - x[p:m]
    slack = lam - float(np.abs(b - a @ theta).max()) if p else lam
    return DantzigFit(theta_hat=theta, lam=lam,
                      l1_objective=float(np.abs(theta[cost > 0]).sum()),
                      feasibility_slack=slack, iterations=iterations, status=status)


def threshold_support(fit: DantzigFit, tau: float) -> SupportEstimate:
    """Coordinates with |theta_hat_j| strictly greater than tau."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
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

    ``design`` must carry the intercept in column 0; each fold centers the
    remaining columns with training-block means, fits the constrained l1
    problem per grid value, and scores one-step-ahead squared prediction
    error on the held-out block (intercept refit from the training means).
    Without a ``grid``, the default grid of the whole series' centered
    moment is used.  Ties in the mean loss go to the largest lambda.
    Raises ``UncertifiedFitError`` when a fold's LP is not "optimal".
    """
    z = np.asarray(design, dtype=float)[:, 1:]
    y = np.asarray(response, dtype=float).ravel()
    n = y.size
    if grid is None:
        zc = z - z.mean(axis=0)
        grid = default_lambda_grid(zc.T @ (y - y.mean()) / n)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda grid is empty")
    if np.any(np.diff(grid) < 0):
        raise ValueError("lambda grid must be sorted ascending")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < 2 * folds:
        raise ValueError("series too short for the requested fold count")
    blocks = np.array_split(np.arange(n), folds)
    losses = np.zeros((folds, grid.size))
    for k, val in enumerate(blocks):
        train = np.setdiff1d(np.arange(n), val, assume_unique=True)
        z_bar = z[train].mean(axis=0)
        y_bar = y[train].mean()
        sys = build_regression_score(z[train] - z_bar, y[train] - y_bar)
        zc_val = z[val] - z_bar
        for g, lam in enumerate(grid):
            fit = solve_dantzig(sys, lam)
            if fit.status != "optimal":
                raise UncertifiedFitError(
                    f"CV LP of fold {k} at lambda={lam:.6g} ended with status {fit.status!r}")
            pred = y_bar + zc_val @ fit.theta_hat
            losses[k, g] = np.mean((y[val] - pred) ** 2)
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
