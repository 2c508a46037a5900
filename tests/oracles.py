"""Independent oracles shared by the unit and acceptance suites."""

import itertools
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from sparseproc.dantzig import CvReport, default_lambda_grid, solve_dantzig_path
from sparseproc.errors import UncertifiedFitError
from sparseproc.rng import make_rng
from sparseproc.scores import build_regression_score, center_design


def _split_lp(a: np.ndarray, b: np.ndarray, lam: float):
    """(constraints, right-hand side) of the LP over x = (u, v)."""
    cons = np.vstack([np.hstack([a, -a]), np.hstack([-a, a])])
    rhs = np.concatenate([b + lam, lam - b])
    return cons, rhs


def bruteforce_l1min(a: np.ndarray, b: np.ndarray, lam: float):
    """Enumerate basic solutions of the standard-form LP.

    min 1'(u+v) s.t. A(u-v) <= b + lam, -A(u-v) <= lam - b, u, v >= 0.
    Returns (objective, feasible): the minimal l1 norm among all basic
    feasible points, found by enumeration rather than pivoting.  The
    determinants and solves of all bases are stacked into one call each.
    """
    cons, rhs = _split_lp(a, b, lam)
    m, k = cons.shape
    full = np.hstack([cons, np.eye(m)])
    cost = np.concatenate([np.ones(k), np.zeros(m)])
    bases = np.array(list(itertools.combinations(range(full.shape[1]), m)))
    subs = np.moveaxis(full[:, bases], 1, 0)  # one m x m basis matrix per row of bases
    keep = np.abs(np.linalg.det(subs)) >= 1e-10
    rhs_stack = np.broadcast_to(rhs, (int(keep.sum()), m))
    x = np.linalg.solve(subs[keep], rhs_stack[..., None])[..., 0]
    feasible = np.all(x >= -1e-9, axis=1)
    objs = np.einsum("ij,ij->i", cost[bases[keep][feasible]], x[feasible])
    best = objs.min() if objs.size else np.inf
    return best, np.isfinite(best)


def highs_l1min(a: np.ndarray, b: np.ndarray, lam: float) -> float:
    """Optimal objective of the same LP from scipy's HiGHS solver."""
    cons, rhs = _split_lp(a, b, lam)
    res = linprog(np.ones(cons.shape[1]), A_ub=cons, b_ub=rhs, bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the LP: {res.message}")
    return float(res.fun)


def hawkes_reference_events(spec, seed: int) -> np.ndarray:
    """Ogata thinning with one numpy call per step: the reference for
    ``simulate_hawkes``, which must return the same events byte for byte."""
    rng = make_rng(seed)
    bp = spec.kernel_breakpoints
    vals = spec.kernel_values
    tail = bp[-1] if bp.size else 0.0
    events: list[float] = []
    t = 0.0
    first_active = 0  # events earlier than t - tail never contribute again
    while True:
        while first_active < len(events) and events[first_active] <= t - tail:
            first_active += 1
        active = events[first_active:]
        # intensity just right of t and the next time it can change
        lam = spec.eta
        next_change = np.inf
        for ti in active:
            age = t - ti
            k = int(np.searchsorted(bp, age, side="right"))
            if k < bp.size:
                lam += vals[k]
                boundary = ti + bp[k]
                if boundary > t:  # guard: float rounding may land exactly on t
                    next_change = min(next_change, boundary)
        if lam <= 0:
            if not np.isfinite(next_change) or next_change >= spec.horizon:
                break
            t = np.nextafter(next_change, np.inf)
            continue
        wait = rng.exponential(1.0 / lam)
        if t + wait > next_change:
            t = np.nextafter(next_change, np.inf)
            continue
        t = t + wait
        if t > spec.horizon:
            break
        events.append(t)
    return np.array(events)


def reference_cross_validate(design: np.ndarray, response: np.ndarray,
                               grid: Optional[Sequence[float]] = None,
                               folds: int = 5) -> CvReport:
    """Cross-validation with one copy, centering and gram per fold: the reference
    for ``cross_validate_lambda``, which merges per-block sums instead and must
    choose the same lambda with the same losses up to rounding.

    Pick lambda by contiguous-block K-fold, preserving time order.

    ``design`` must carry the intercept in column 0; each fold centers the
    training block with ``center_design``, fits the constrained l1 problem
    per grid value, and scores one-step-ahead squared prediction error on
    the held-out block (intercept refit from the training means).  Without
    a ``grid``, the default grid of the whole series' centered moment is
    used.  Ties in the mean loss go to the largest lambda.  Raises
    ``UncertifiedFitError`` when a fold's LP is not "optimal".
    """
    z = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    n = y.size
    if grid is None:
        zc, yc, _, _ = center_design(z, y)
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
    blocks = np.array_split(np.arange(n), folds)
    losses = np.zeros((folds, grid.size))
    for k, val in enumerate(blocks):
        train = np.setdiff1d(np.arange(n), val, assume_unique=True)
        zc, yc, z_bar, y_bar = center_design(z[train], y[train])
        sys = build_regression_score(zc, yc)
        zc_val = z[val, 1:] - z_bar
        for g, (lam, fit) in enumerate(zip(grid, solve_dantzig_path(sys, grid))):
            if fit.status != "optimal":
                raise UncertifiedFitError(
                    f"CV LP of fold {k} at lambda={lam:.6g} ended with status {fit.status!r}")
            pred = y_bar + zc_val @ fit.theta_hat
            losses[k, g] = np.mean((y[val] - pred) ** 2)
    cv_loss = losses.mean(axis=0)
    winners = np.nonzero(cv_loss <= cv_loss.min())[0]
    return CvReport(grid=grid, cv_loss=cv_loss,
                    chosen_lambda=float(grid[winners.max()]), folds=folds)
