"""l1-minimal estimation subject to an l-infinity score constraint.

The program  min sum_{j not in F} |theta_j|  s.t.  ||b - A theta||_inf <= lambda,
with F the system's unpenalized coordinates (empty for the plain Dantzig
selector  min ||theta||_1), is rewritten with the positive/negative split
theta = u - v into the linear program

    min c'(u + v)   s.t.   A(u - v) <= b + lambda,
                          -A(u - v) <= lambda - b,   u, v >= 0,

with c_j = 0 for j in F and c_j = 1 otherwise, and solved exactly by a
dense two-phase primal simplex.  Both the entering and the leaving choices
follow Bland's lowest-index rule, which prevents cycling and makes the
returned vertex deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

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


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, n_price: int,
                 max_iter: int, tol: float) -> Tuple[str, int]:
    """Iterate to optimality on a tableau whose last row holds reduced costs.

    Only the first ``n_price`` columns are eligible to enter.  Returns the
    status and the number of pivots performed.
    """
    m = tableau.shape[0] - 1
    for it in range(max_iter):
        reduced = tableau[-1, :n_price]
        eligible = np.nonzero(reduced < -tol)[0]
        if eligible.size == 0:
            return "optimal", it
        j = int(eligible[0])  # Bland: lowest eligible index
        col = tableau[:m, j]
        rows = np.nonzero(col > tol)[0]
        if rows.size == 0:
            return "unbounded", it
        ratios = tableau[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + tol]
        leave = int(ties[np.argmin(basis[ties])])  # Bland tie-break on basis index
        _pivot(tableau, leave, j)
        basis[leave] = j
    return "iteration_limit", max_iter


def solve_dantzig(sys: LinearScoreSystem, lam: float,
                  max_iter: Optional[int] = None) -> DantzigFit:
    """Solve the constrained l1 minimization for one tuning value.

    Coordinates in ``sys.unpenalized`` get zero cost on both their u and v
    columns, so the fit minimizes the l1 norm over the remaining ones.
    ``status`` is "infeasible" only when ``lam`` is below the smallest
    attainable score norm (singular gram with the moment outside its
    range); an "iteration_limit" fit carries the last vertex visited.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    a, b = sys.gram, sys.moment
    p = sys.dim
    if max_iter is None:
        max_iter = 50 * 4 * p
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    tol = 1e-9 * scale

    m = 2 * p                       # constraint rows
    n_struct = 2 * p                # u, v columns
    cons = np.vstack([np.hstack([a, -a]), np.hstack([-a, a])])
    rhs = np.concatenate([b + lam, lam - b])

    neg = rhs < 0
    slack_sign = np.where(neg, -1.0, 1.0)
    cons[neg] *= -1
    rhs = np.abs(rhs)
    art_rows = np.nonzero(neg)[0]
    n_art = art_rows.size
    n_cols = n_struct + m + n_art

    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m, :n_struct] = cons
    tableau[np.arange(m), n_struct + np.arange(m)] = slack_sign
    tableau[art_rows, n_struct + m + np.arange(n_art)] = 1.0
    tableau[:m, -1] = rhs

    basis = np.empty(m, dtype=int)
    basis[~neg] = n_struct + np.nonzero(~neg)[0]
    basis[neg] = n_struct + m + np.arange(n_art)

    iterations = 0
    if n_art:
        # phase 1: minimize the sum of artificials
        tableau[-1] = 0.0
        tableau[-1, n_struct + m:-1] = 1.0
        for i in art_rows:
            tableau[-1] -= tableau[i]
        status, it1 = _run_simplex(tableau, basis, n_cols, max_iter, tol)
        iterations += it1
        phase1_obj = -tableau[-1, -1]
        if status == "iteration_limit" or phase1_obj > 1e-7 * scale:
            final = "iteration_limit" if status == "iteration_limit" else "infeasible"
            theta = np.zeros(p)
            slack = lam - float(np.abs(b - a @ theta).max())
            return DantzigFit(theta, lam, 0.0, slack, iterations, final)
        # pivot lingering zero-level artificials out where possible
        for i in np.nonzero(basis >= n_struct + m)[0]:
            nz = np.nonzero(np.abs(tableau[i, : n_struct + m]) > tol)[0]
            if nz.size:
                _pivot(tableau, i, int(nz[0]))
                basis[i] = int(nz[0])

    # phase 2: minimize c'(u + v); artificial columns are never priced
    cost = np.zeros(n_cols + 1)
    cost[:n_struct] = 1.0
    for j in sys.unpenalized:
        cost[j] = cost[p + j] = 0.0
    tableau[-1] = cost
    for i in range(m):
        if cost[basis[i]]:
            tableau[-1] -= cost[basis[i]] * tableau[i]
    status, it2 = _run_simplex(tableau, basis, n_struct + m, max_iter, tol)
    iterations += it2
    if status == "unbounded":  # cannot happen: objective bounded below by 0
        raise RuntimeError("simplex reported an unbounded l1 objective")

    x = np.zeros(n_cols)
    x[basis] = tableau[:m, -1]
    theta = x[:p] - x[p: 2 * p]
    slack = lam - float(np.abs(b - a @ theta).max()) if p else lam
    final = "optimal" if status == "optimal" else "iteration_limit"
    return DantzigFit(theta_hat=theta, lam=lam,
                      l1_objective=float(np.abs(theta[cost[:p] > 0]).sum()),
                      feasibility_slack=slack, iterations=iterations, status=final)


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
                          grid: Sequence[float], folds: int = 5) -> CvReport:
    """Pick lambda by contiguous-block K-fold, preserving time order.

    ``design`` must carry the intercept in column 0; each fold centers the
    remaining columns with training-block means, fits the constrained l1
    problem per grid value, and scores one-step-ahead squared prediction
    error on the held-out block (intercept refit from the training means).
    Ties in the mean loss go to the largest lambda.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda grid is empty")
    if np.any(np.diff(grid) < 0):
        raise ValueError("lambda grid must be sorted ascending")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    z = np.asarray(design, dtype=float)[:, 1:]
    y = np.asarray(response, dtype=float).ravel()
    n = y.size
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
