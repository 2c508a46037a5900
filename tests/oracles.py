"""Independent oracles shared by the unit and acceptance suites."""

import itertools

import numpy as np
from scipy.optimize import linprog

from sparseproc.rng import make_rng


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
