"""Independent oracles shared by the unit and acceptance suites."""

import itertools

import numpy as np
from scipy.optimize import linprog


def _split_lp(a: np.ndarray, b: np.ndarray, lam: float, free):
    """(constraints, right-hand side, costs) of the LP over x = (u, v)."""
    p = a.shape[0]
    cons = np.vstack([np.hstack([a, -a]), np.hstack([-a, a])])
    rhs = np.concatenate([b + lam, lam - b])
    c = np.ones(p)
    c[list(free)] = 0.0
    return cons, rhs, np.concatenate([c, c])


def bruteforce_l1min(a: np.ndarray, b: np.ndarray, lam: float, free=()):
    """Enumerate basic solutions of the standard-form LP.

    min c'(u+v) s.t. A(u-v) <= b + lam, -A(u-v) <= lam - b, u, v >= 0,
    with c_j = 0 for j in ``free`` and 1 otherwise.  Returns
    (objective, feasible): the minimal l1 norm over the penalized
    coordinates among all basic feasible points, found by enumeration
    rather than pivoting.
    """
    cons, rhs, c = _split_lp(a, b, lam, free)
    m = cons.shape[0]
    full = np.hstack([cons, np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    best = np.inf
    for cols in itertools.combinations(range(full.shape[1]), m):
        sub = full[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, rhs)
        if np.all(x >= -1e-9):
            best = min(best, cost[list(cols)] @ x)
    return best, np.isfinite(best)


def highs_l1min(a: np.ndarray, b: np.ndarray, lam: float, free=()) -> float:
    """Optimal objective of the same LP from scipy's HiGHS solver."""
    cons, rhs, c = _split_lp(a, b, lam, free)
    res = linprog(c, A_ub=cons, b_ub=rhs, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the LP: {res.message}")
    return float(res.fun)
