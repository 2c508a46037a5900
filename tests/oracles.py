"""Independent oracles shared by the unit and acceptance suites, and a fresh-interpreter runner."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog

from reference_loops import rank1_updater
from sparseproc.dantzig import CvReport, DantzigFit, default_lambda_grid, solve_dantzig_path
from sparseproc.errors import RankError, UncertifiedFitError
from sparseproc.scores import LinearScoreSystem, build_regression_score, center_design
from sparseproc.simulate import make_rng


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


def reference_solve_dantzig_path(sys, lams: Sequence[float],
                                 max_iter: Optional[int] = None) -> list:
    """The mirrored-row dual simplex: the reference for ``solve_dantzig_path``,
    which must end with the same status and the same objective up to rounding.

    The LP  min 1'(u + v)  s.t.  A(u - v) <= b + lambda,  -A(u - v) <= lambda - b,
    u, v >= 0  in one (2p+1) x (4p+1) tableau from the slack basis, with
    Bland's rule for the leaving and the entering variable and each value of
    the path warm-started from the last optimal basis.  ``status`` is
    "optimal", "infeasible" or "iteration_limit"; the slack is not certified.
    """
    if not all(np.isfinite(lam) and lam >= 0 for lam in lams):
        raise ValueError("lambda must be finite and nonnegative")
    a, b, p = sys.gram, sys.moment, sys.dim
    max_iter = 50 * 4 * p if max_iter is None else max_iter
    tol = 1e-9 * max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))

    m, n_cols = 2 * p, 4 * p        # constraint rows (one slack each); u, v, slack columns
    tableau = np.zeros((m + 1, n_cols + 1), order="F")
    tableau[:p, :p] = tableau[p:m, p:m] = a
    tableau[:p, p:m] = tableau[p:m, :p] = -a
    tableau[np.arange(m), m + np.arange(m)] = 1.0
    tableau[-1, :m] = 1.0
    basis = m + np.arange(m)
    pivot_row, enter_col = np.empty(n_cols + 1), np.empty(m + 1)
    eliminate = rank1_updater(tableau, enter_col, pivot_row)

    fits: list = [None] * len(lams)
    for lam, i in sorted(zip(lams, range(len(lams))), reverse=True):
        tableau[:m, -1] = tableau[:m, m:n_cols] @ np.concatenate([b + lam, lam - b])
        for iterations in range(max_iter + 1):  # optimality is tested after the last pivot too
            rows = np.nonzero(tableau[:m, -1] < -tol)[0]
            if rows.size == 0:
                status = "optimal"
                break
            if iterations == max_iter:
                status = "iteration_limit"
                break
            leave = int(rows[np.argmin(basis[rows])])
            row = tableau[leave, :n_cols]
            cols = np.nonzero(row < -tol)[0]
            if cols.size == 0:
                status = "infeasible"
                break
            ratios = tableau[-1, cols] / -row[cols]
            enter = int(cols[np.nonzero(ratios <= ratios.min() + tol)[0][0]])
            np.divide(tableau[leave], tableau[leave, enter], out=pivot_row)
            np.copyto(enter_col, tableau[:, enter])
            eliminate()
            tableau[leave] = pivot_row
            basis[leave] = enter
        x = np.zeros(n_cols)
        x[basis] = tableau[:m, -1]
        theta = x[:p] - x[p:m]
        slack = lam - float(np.abs(b - a @ theta).max()) if p else lam
        fits[i] = DantzigFit(theta_hat=theta, lam=lam,
                             l1_objective=float(np.abs(theta).sum()),
                             feasibility_slack=slack, iterations=iterations, status=status)
    return fits


def reference_solve_weighted(wsys) -> np.ndarray:
    """scipy's Cholesky factor and triangular solves on a ``LinearScoreSystem``:
    the reference for the theta of ``twostep.solve_weighted``, which must
    agree up to rounding."""
    try:
        factor = cho_factor(wsys.gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"weighted gram not positive definite: {exc}") from exc
    theta = cho_solve(factor, wsys.moment)
    resid = np.abs(wsys.gram @ theta - wsys.moment).max()
    tol = 1e-8 * (1.0 + np.abs(wsys.moment).max())
    if resid > tol:
        raise RankError(f"weighted solve residual {resid:.2e} exceeds {tol:.2e}")
    return theta


def reference_covariance(wsys) -> np.ndarray:
    """The same for the symmetrized gram^{-1} of ``twostep.solve_weighted``."""
    inv = cho_solve(cho_factor(wsys.gram, lower=True), np.eye(wsys.dim))
    return 0.5 * (inv + inv.T)


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


def reference_lagged_design(series, order: int, target: int = 0):
    """(design, response) of ``scores.lagged_design``, one lag column at a time.

    Column i of a univariate design is the series shifted by i steps into
    its lag buffer; a multivariate design stacks the last buffer row over
    all but the last observation, beside a column of ones.
    """
    x = series.values
    buf = series.lag_buffer
    n, d = x.shape
    if d == 1:
        full = np.concatenate([buf[:, 0], x[:, 0]])
        off = buf.shape[0]
        design = np.ones((n, order + 1))
        for i in range(1, order + 1):
            design[:, i] = full[off - i: off - i + n]
        return design, x[:, 0]
    prev = np.vstack([buf[-1:], x[:-1]])
    return np.hstack([np.ones((n, 1)), prev]), x[:, target]


GRID_RESOLUTION = 720  # angles per sphere coordinate of ``f_infinity_grid``


def f_infinity_grid(m: np.ndarray, support: Sequence[int]) -> float:
    """The cone compatibility factor of ``m`` at ``support`` by a dense direction sweep:
    the reference that ``diagnostics.estimate_f_infinity``'s sampled upper bound is
    checked against, for p <= 3.  The ratio is scale-invariant, so directions suffice.
    """
    p = m.shape[0]
    if p > 3:
        raise ValueError("grid oracle available for p <= 3 only")
    t_idx = np.array(sorted(support), dtype=int)
    tc_idx = np.setdiff1d(np.arange(p), t_idx)
    if p == 1:
        dirs = np.array([[1.0]])
    elif p == 2:
        ang = np.linspace(0.0, np.pi, GRID_RESOLUTION, endpoint=False)
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        ang1 = np.linspace(0.0, np.pi, GRID_RESOLUTION, endpoint=False)
        ang2 = np.linspace(0.0, 2 * np.pi, GRID_RESOLUTION, endpoint=False)
        a1, a2 = np.meshgrid(ang1, ang2, indexing="ij")
        dirs = np.column_stack([
            (np.sin(a1) * np.cos(a2)).ravel(),
            (np.sin(a1) * np.sin(a2)).ravel(),
            np.cos(a1).ravel(),
        ])
    l1_t = np.abs(dirs[:, t_idx]).sum(axis=1)
    l1_tc = np.abs(dirs[:, tc_idx]).sum(axis=1) if tc_idx.size else np.zeros(len(dirs))
    dirs = dirs[(l1_tc <= l1_t) & (l1_t > 0)]
    num = np.abs(np.einsum("ij,jk,ik->i", dirs, m, dirs))
    den = np.abs(dirs[:, t_idx]).sum(axis=1) * np.abs(dirs).max(axis=1)
    return float((num / den).min())


def reference_diffusion_score(covariates: np.ndarray, increments: np.ndarray,
                              delta: float) -> LinearScoreSystem:
    """The drift score written out: gram = Y'Y / n, moment = Y' dX / (n delta).

    Y holds the left-endpoint states and dX the target increments.  The
    float operations are those a fit on a ``DiffusionDesign`` is defined
    by, so a first step on this system matches it bit for bit.
    """
    n = increments.size
    return LinearScoreSystem(gram=covariates.T @ covariates / n,
                             moment=covariates.T @ increments / (n * delta))


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
        full = center_design(z, y)
        grid = default_lambda_grid(full.zc.T @ full.yc / n)
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
        fold = center_design(z[train], y[train])
        sys = build_regression_score(fold.zc, fold.yc)
        zc_val = z[val, 1:] - fold.z_bar
        for g, (lam, fit) in enumerate(zip(grid, solve_dantzig_path(sys, grid))):
            if fit.status != "optimal":
                raise UncertifiedFitError(
                    f"CV LP of fold {k} at lambda={lam:.6g} ended with status {fit.status!r}")
            pred = fold.y_bar + zc_val @ fit.theta_hat
            losses[k, g] = np.mean((y[val] - pred) ** 2)
    cv_loss = losses.mean(axis=0)
    winners = np.nonzero(cv_loss <= cv_loss.min())[0]
    return CvReport(grid=grid, cv_loss=cv_loss,
                    chosen_lambda=float(grid[winners.max()]), folds=folds)


def run_fresh(script: str, *args: str, **env: Optional[str]) -> dict:
    """Last stdout line, as JSON, of ``script`` in a fresh interpreter over this src.

    ``env`` entries override the inherited environment; None removes a variable.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    full_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for name, value in env.items():
        if value is None:
            full_env.pop(name, None)
        else:
            full_env[name] = value
    proc = subprocess.run([sys.executable, "-c", script, *args], env=full_env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])
