"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy Monte Carlo cases (the order-10 table reproduction and the
dimension-100 spot check) run once per session as module fixtures and are
shared across the criteria that read them.
"""

import json
import time

import numpy as np
import pytest
from oracles import bruteforce_l1min

from sparseproc import harness
from sparseproc.dantzig import solve_dantzig, threshold_support
from sparseproc.diagnostics import royston_test, shapiro_wilk
from sparseproc.harness import builtin_case, report_to_json, run_case, run_hawkes_support
from sparseproc.scores import LinearScoreSystem, build_inar_score, build_regression_score
from sparseproc.simulate import InarSpec, OuSpec, derive_seed, simulate_inar, simulate_ou
from sparseproc.twostep import estimate_diffusion_sigma2, two_step_fit

JOBS = 2


def check(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def case1_report():
    t0 = time.perf_counter()
    report = run_case(builtin_case("case1", n=2000, reps=200), jobs=JOBS)
    report.runtime = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def case3_report():
    t0 = time.perf_counter()
    report = run_case(builtin_case("case3", n=2000, reps=100), jobs=JOBS)
    report.runtime = time.perf_counter() - t0
    return report


def test_criterion_1_table1_case1(case1_report):
    r = case1_report
    ok = (abs(r.mean_linf_first - 0.043) <= 0.02
          and abs(r.mean_l2_first - 0.060) <= 0.025
          and r.selection_proportion >= 0.85
          and abs(r.mean_linf_two - 0.033) <= 0.015
          and r.runtime <= 600
          and r.failures == 0)
    check("1 (table-1 reproduction)", ok,
          f"linf1={r.mean_linf_first:.4f} (0.043+/-0.02) "
          f"l21={r.mean_l2_first:.4f} (0.060+/-0.025) "
          f"sel={r.selection_proportion:.3f} (>=0.85) "
          f"linf2={r.mean_linf_two:.4f} (0.033+/-0.015) "
          f"runtime={r.runtime:.0f}s (<=600)")


def test_criterion_2_table3_case3(case3_report):
    r = case3_report
    ok = (r.selection_proportion >= 0.90
          and abs(r.mean_l2_two - 0.048) <= 0.02
          and r.runtime <= 1800
          and r.failures == 0)
    check("2 (table-3 spot check)", ok,
          f"sel={r.selection_proportion:.3f} (>=0.90) "
          f"l22={r.mean_l2_two:.4f} (0.048+/-0.02) "
          f"runtime={r.runtime:.0f}s (<=1800)")


def test_criterion_3_two_step_improves(case1_report, case3_report):
    oks, details = [], []
    for r in (case1_report, case3_report):
        oks.append(r.mean_linf_two <= r.mean_linf_first
                   and r.mean_l2_two <= r.mean_l2_first)
        details.append(f"{r.case_id}: linf {r.mean_linf_two:.4f}<={r.mean_linf_first:.4f}, "
                       f"l2 {r.mean_l2_two:.4f}<={r.mean_l2_first:.4f}")
    check("3 (two-step improvement)", all(oks), "; ".join(details))


def test_criterion_4_lp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240810)
    worst = 0.0
    min_slack = np.inf
    for _ in range(100):
        p = int(rng.integers(1, 5))
        m = rng.standard_normal((p + 2, p))
        sys = LinearScoreSystem(gram=m.T @ m / (p + 2),
                                moment=rng.standard_normal(p))
        lam = float(rng.uniform(0.0, 1.2) * np.abs(sys.moment).max())
        fit = solve_dantzig(sys, lam)
        oracle, feasible = bruteforce_l1min(sys.gram, sys.moment, lam)
        assert feasible and fit.status == "optimal"
        worst = max(worst, abs(fit.l1_objective - oracle))
        min_slack = min(min_slack, fit.feasibility_slack)
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and min_slack >= -1e-8
    check("4 (LP oracle equivalence)", ok,
          f"max |obj - oracle|={worst:.2e} (<1e-6), min slack={min_slack:.2e} "
          f"(>=-1e-8), runtime={dt:.1f}s")


def test_criterion_5_rate_in_n():
    spec = InarSpec(mu_eps=0.5, alpha=np.array([0.3, 0.2, 0.2, 0.2] + [0.0] * 6))
    alpha0 = spec.alpha
    c = 3.5
    medians = []
    for n in (500, 1000, 2000, 4000):
        lam = c * np.sqrt(np.log(10) / n)
        errs = []
        for r in range(100):
            sample = simulate_inar(spec, n, seed=derive_seed(515, 1000 * n + r))
            sys = build_inar_score(sample, order=10)
            fit = solve_dantzig(sys, lam)
            errs.append(np.abs(fit.theta_hat - alpha0).max())
        medians.append(float(np.median(errs)))
    ok = all(medians[i] > medians[i + 1] for i in range(3))
    check("5 (error rate in n)", ok,
          "medians over n=500,1000,2000,4000: "
          + ", ".join(f"{m:.4f}" for m in medians) + " (strictly decreasing)")


def test_criterion_6_normality(case1_report):
    r = case1_report
    covers = [rec["cover_t0"] for rec in r.per_rep
              if not rec["failed"] and rec.get("cover_t0") is not None]
    pooled = float(np.mean(np.array(covers, dtype=float))) if covers else float("nan")
    var_ratio = r.proj_var_selected / r.proj_var_pred
    ok = (0.90 <= pooled <= 0.98
          and abs(var_ratio - 1.0) <= 0.25
          and r.royston_p_selected >= 0.01)
    check("6 (selection-conditional normality)", ok,
          f"coverage={pooled:.3f} (in [0.90,0.98]; per-coord "
          + "/".join(f"{c:.2f}" for c in r.coverage_t0) + ") "
          f"var_ratio={var_ratio:.3f} (within 25%) "
          f"royston_p={r.royston_p_selected:.3f} (>=0.01)")


def test_criterion_7_diffusion():
    # quadratic-variation accuracy at n*delta = 100, delta = 0.01
    sig_errs = []
    for r in range(3):
        spec = OuSpec(a_matrix=np.array([[-1.0]]), sigma_diag=np.array([1.0]),
                      delta=0.01, n_steps=10_000, substeps=5)
        est = estimate_diffusion_sigma2(simulate_ou(spec, seed=700 + r))
        sig_errs.append(abs(float(est.values) - 1.0))
    sigma_ok = max(sig_errs) < 0.05

    # drift-row error decreasing over two doublings of the observation span
    means = []
    for n in (2000, 4000, 8000):
        cfg = builtin_case("ou", n=n, reps=12)
        rep = run_case(cfg, jobs=JOBS)
        means.append(rep.mean_linf_two)
    drift_ok = means[0] > means[1] > means[2]
    check("7 (diffusion)", sigma_ok and drift_ok,
          f"sigma2 errors={['%.3f' % e for e in sig_errs]} (<0.05); "
          f"drift linf2 over doublings: "
          + ", ".join(f"{m:.3f}" for m in means) + " (decreasing)")


def test_criterion_8_hawkes_support():
    cfg = builtin_case("hawkes", reps=100)
    rep = run_hawkes_support(cfg, jobs=JOBS)
    frac = rep.frac_tau_within_30pct
    ok = frac >= 0.70 and rep.failures == 0
    check("8 (hawkes support recovery)", ok,
          f"tau_hat within 30% of 1.0 in {frac:.2f} of {cfg.reps} reps (>=0.70), "
          f"mean tau_hat={rep.mean_tau_hat:.3f}")


def test_criterion_9_test_calibration():
    reps = 1000
    sw_null = sum(
        shapiro_wilk(np.random.default_rng(r).standard_normal(500)).p_value < 0.05
        for r in range(reps)) / reps
    sw_power = sum(
        shapiro_wilk(np.random.default_rng(r).exponential(size=500)).p_value < 0.05
        for r in range(reps)) / reps
    roy_null = sum(
        royston_test(np.random.default_rng(r).standard_normal((500, 4))).p_value < 0.05
        for r in range(reps)) / reps
    roy_power = sum(
        royston_test(np.random.default_rng(r).exponential(size=(500, 4))).p_value < 0.05
        for r in range(reps)) / reps
    ok = (0.02 <= sw_null <= 0.09 and 0.02 <= roy_null <= 0.09
          and sw_power >= 0.9 and roy_power >= 0.9)
    check("9 (normality-test calibration)", ok,
          f"null rejection sw={sw_null:.3f}, royston={roy_null:.3f} (in [0.02,0.09]); "
          f"power sw={sw_power:.2f}, royston={roy_power:.2f} (>=0.9)")


def test_criterion_10_determinism():
    cfg = builtin_case("case1", n=600, reps=8)
    doc1 = report_to_json(run_case(cfg, jobs=1))
    doc2 = report_to_json(run_case(cfg, jobs=2))
    cfg_again = builtin_case("case1", n=600, reps=8)
    doc3 = report_to_json(run_case(cfg_again, jobs=2))
    ok = doc1 == doc2 == doc3
    check("10 (byte-identical reports)", ok,
          f"jobs=1 vs jobs=2 identical={doc1 == doc2}, rerun identical={doc2 == doc3}")


def test_case4_routine_run():
    # p = 200 with CV at 100 reps: a check beside criteria 1-10, with criterion 2's kind
    # of gate; the runtime bound is generous (about 8 s on two cores)
    t0 = time.perf_counter()
    r = run_case(builtin_case("case4", n=2000, reps=100), jobs=JOBS)
    runtime = time.perf_counter() - t0
    ok = (r.failures == 0
          and r.selection_proportion >= 0.90
          and r.mean_linf_two <= r.mean_linf_first
          and r.mean_l2_two <= r.mean_l2_first
          and runtime <= 300)
    check("case4 (p=200 routine run)", ok,
          f"failures={r.failures} (0) sel={r.selection_proportion:.3f} (>=0.90) "
          f"linf {r.mean_linf_two:.4f}<={r.mean_linf_first:.4f}, "
          f"l2 {r.mean_l2_two:.4f}<={r.mean_l2_first:.4f} "
          f"runtime={runtime:.0f}s (<=300)")
