"""Output checks that do not reuse the program's own computations.

The truth comes from the simulated model itself (the transition matrix
row, the Hawkes kernel), never from a saved copy of an earlier report.
Each check returns a list of problems; an empty list means it passed.
"""

import numpy as np
from scipy.optimize import linprog

SLACK_TOL = 1e-8        # times max(1, |gram|_max, |moment|_max), as in the program's tests
OBJECTIVE_TOL = 1e-6    # relative to max(1, HiGHS objective)
FINAL_LAG_TOL = 0.15    # l-inf error of the final lag estimates; typically 0.02-0.05
FIRST_LAG_TOL = 0.25    # the same for the shrunken first step; typically 0.04-0.09
TAU_REL_TOL = 0.3       # Hawkes support estimate within 30% of the true support
TAU_MIN_SHARE = 0.5     # share of Hawkes reps that must meet TAU_REL_TOL


def count_truth(model, target: int):
    """(lag coefficients, support) of the target row of a multivariate INAR(1)."""
    lags = np.asarray(model.a_matrix, dtype=float)[target]
    return lags, tuple(int(j) for j in np.nonzero(lags)[0])


def hawkes_support(model) -> float:
    """Right end of the kernel's support: the last breakpoint with a nonzero value."""
    live = np.nonzero(np.asarray(model.kernel_values) != 0)[0]
    return float(model.kernel_breakpoints[live[-1]]) if live.size else 0.0


def check_report(report: dict, config, hawkes: bool) -> list:
    """Every replication completed and its estimates sit near the truth."""
    problems = []
    if report["failures"] != 0 or any(r["failed"] for r in report["per_rep"]):
        problems.append(f"{report['failures']} of {report['reps']} replications failed")
        return problems
    if len(report["per_rep"]) != config.reps:
        problems.append(f"{len(report['per_rep'])} records for {config.reps} replications")
    if hawkes:
        tau = hawkes_support(config.model)
        tau_hat = np.array([r["tau_hat"] for r in report["per_rep"]])
        within = np.abs(tau_hat - tau) <= TAU_REL_TOL * tau
        if abs(np.median(tau_hat) - tau) > TAU_REL_TOL * tau or within.mean() < TAU_MIN_SHARE:
            problems.append(f"tau_hat median {np.median(tau_hat):.3f}, "
                            f"{within.mean():.2f} of reps within 30% of {tau}")
        return problems
    lags, support = count_truth(config.model, config.target)
    for r in report["per_rep"]:
        # theta_t0 = (intercept, lags on the true support) of the final estimate
        err = np.abs(np.array(r["theta_t0"][1:]) - lags[list(support)]).max()
        if err > FINAL_LAG_TOL:
            problems.append(f"rep {r['rep']}: final lag error {err:.3f} on the true support")
    return problems


def check_two_step_fits(fits, config) -> list:
    """Selection contains the true support; first and final lags near the truth."""
    problems = []
    if len(fits) != config.reps:
        problems.append(f"{len(fits)} two-step fits traced for {config.reps} replications")
    lags, support = count_truth(config.model, config.target)
    for rep, fit in fits:
        missed = set(support) - set(fit.support.indices)
        if missed:
            problems.append(f"rep {rep}: true lags {sorted(missed)} not selected")
        for label, theta, tol in (("first", fit.theta_first, FIRST_LAG_TOL),
                                  ("final", fit.theta_tilde, FINAL_LAG_TOL)):
            err = np.abs(theta[1:] - lags).max()  # column 0 is the intercept
            if err > tol:
                problems.append(f"rep {rep}: {label}-step lag l-inf error {err:.3f}")
    return problems


def lp_certified(system, lam: float, fit) -> bool:
    """Status optimal and the returned point feasible, recomputed here."""
    a, b = system.gram, system.moment
    theta = fit.theta_hat
    if fit.status != "optimal" or not np.all(np.isfinite(theta)):
        return False
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return lam - float(np.abs(b - a @ theta).max()) >= -SLACK_TOL * scale


def highs_l1(system, lam: float) -> float:
    """Optimal penalized l1 norm by HiGHS, in the (theta, t) form with |theta_j| <= t_j.

    min sum_{j penalized} t_j  s.t.  -lam <= b - A theta <= lam,  -t <= theta_pen <= t.
    """
    a, b = system.gram, system.moment
    p = b.size
    pen = [j for j in range(p) if j not in set(system.unpenalized)]
    k = len(pen)
    pick = np.eye(p)[pen]
    a_ub = np.block([[a, np.zeros((p, k))],
                     [-a, np.zeros((p, k))],
                     [pick, -np.eye(k)],
                     [-pick, -np.eye(k)]])
    b_ub = np.concatenate([b + lam, lam - b, np.zeros(2 * k)])
    c = np.concatenate([np.zeros(p), np.ones(k)])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * p + [(0, None)] * k,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the LP: {res.message}")
    return float(res.fun)


def check_lps(lps, oracle_reps) -> tuple:
    """(problems, uncertified count, worst relative objective gap to HiGHS).

    Every LP must be certified; those of the replications in ``oracle_reps``
    and every first-step LP are also solved by HiGHS.
    """
    problems, uncertified, worst = [], 0, 0.0
    for rep, name, system, lam, fit in lps:
        if not lp_certified(system, lam, fit):
            uncertified += 1
            problems.append(f"rep {rep}: {name} at lambda={lam!r} is not certified "
                            f"(status {fit.status})")
            continue
        if rep in oracle_reps or name == "dantzig.first_lp":
            free = set(system.unpenalized)
            l1 = float(sum(abs(v) for j, v in enumerate(fit.theta_hat) if j not in free))
            best = highs_l1(system, lam)
            gap = abs(l1 - best) / max(1.0, abs(best))
            worst = max(worst, gap)
            if gap > OBJECTIVE_TOL:
                problems.append(f"rep {rep}: {name} l1 {l1!r} vs HiGHS {best!r}")
    return problems, uncertified, worst
