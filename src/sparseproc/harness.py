"""Batch experiment runner: simulate, fit, aggregate, and serialize reports.

Built-in cases pin the count-model scenarios studied in the experiments
(univariate order-10/20 and block-multivariate dimension-100/200 designs),
a block Ornstein-Uhlenbeck drift-row scenario, and the binned Hawkes
support-recovery scenario.  Replication r draws its own PCG64 stream
derived from the base seed, so reports are byte-identical for any worker
count.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Tuple

import numpy as np

from ._blas import one_blas_thread
from .dantzig import check_cv_arguments, cross_validate_lambda
# not called here; perfbench/tracing.py still wraps these six harness names
from .dantzig import default_lambda_grid, solve_dantzig, threshold_support  # noqa: F401
from .scores import build_regression_score, lagged_design  # noqa: F401
from .twostep import estimate_diffusion_sigma2  # noqa: F401
from .diagnostics import royston_test, selection_and_errors
from .errors import NumericError
from .scores import DiffusionDesign, center_lags, diffusion_design
from .simulate import (HawkesSpec, InarSpec, Minar1Spec, OuSpec, SeriesSample, as_float,
                       as_int, bin_counts, derive_seed, make_rng, n_bins, simulate_hawkes,
                       simulate_inar, simulate_minar1, simulate_ou, spec_from_dict,
                       spec_to_dict, to_jsonable)
from .twostep import FitData, first_step, project_statistic, two_step_fit

SCHEMA_VERSION = 1

_MINAR_BLOCK = np.array([
    [0.3, 0.2, 0.2, 0.2],
    [0.2, 0.3, 0.2, 0.2],
    [0.0, 0.2, 0.3, 0.2],
    [0.0, 0.0, 0.2, 0.3],
])


@dataclass(frozen=True)
class CaseConfig:
    """One experiment: model, tuning strategy, replication budget."""

    case_id: str
    model: object                     # one of the simulate.* spec types
    n: int
    p: int
    reps: int
    lambda_mode: str = "cv"           # cv | fixed | rate
    lambda_value: Optional[float] = None
    rate_c: float = 1.0               # rate mode: lambda = rate_c * sqrt(log p / data.fisher)
    cv_grid: Optional[np.ndarray] = None
    cv_folds: int = 5
    tau: float = 0.05
    base_seed: int = 20240801
    theta_true: Optional[np.ndarray] = None     # full coefficient vector incl. intercept
    support_true: Tuple[int, ...] = ()          # true support in selected-vector coords
    target: int = 0                             # target coordinate (multivariate/OU)
    hawkes_bin_delta: Optional[float] = None

    def __post_init__(self):
        """Raise ValueError where the fields do not make a runnable case.

        Integer fields pass ``as_int`` and real ones ``as_float``, each stored as it returns;
        ``lambda_value`` and ``hawkes_bin_delta`` wherever given or needed.
        """
        if not isinstance(self.model, (InarSpec, Minar1Spec, OuSpec, HawkesSpec)):
            raise ValueError(f"model must be an InarSpec, Minar1Spec, OuSpec or HawkesSpec, "
                             f"got {type(self.model).__name__}")
        for name in ("reps", "n", "p", "cv_folds", "target", "base_seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.base_seed < 0:  # _draw_projection seeds make_rng with it
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.lambda_mode not in ("cv", "fixed", "rate"):
            raise ValueError("lambda_mode must be 'cv', 'fixed', or 'rate'")
        if self.lambda_mode == "fixed" or self.lambda_value is not None:
            object.__setattr__(self, "lambda_value", as_float(self.lambda_value, "lambda_value"))
        for name in ("rate_c", "tau"):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        if self.lambda_mode == "cv" and isinstance(self.model, OuSpec):
            raise ValueError("OU case supports fixed or rate lambda modes")
        dim = self.model.dim if isinstance(self.model, (Minar1Spec, OuSpec)) else 1
        if not 0 <= self.target < dim:
            raise ValueError(f"target must lie in [0, {dim}), got {self.target}")
        if isinstance(self.model, HawkesSpec) or self.hawkes_bin_delta is not None:
            delta = as_float(self.hawkes_bin_delta, "hawkes_bin_delta", positive=True)
            object.__setattr__(self, "hawkes_bin_delta", delta)
        if isinstance(self.model, HawkesSpec):
            bins = n_bins(self.model.horizon, delta)
            if bins <= self.p:
                raise ValueError("horizon too short for the requested lag order")
            if self.n != bins:
                raise ValueError(f"n must equal the {bins} bins of the horizon, got {self.n}")
        if isinstance(self.model, OuSpec) and self.n != self.model.n_steps:
            raise ValueError(f"n must equal the OU model's n_steps {self.model.n_steps}, "
                             f"got {self.n}")
        if self.theta_true is not None:
            object.__setattr__(self, "theta_true", np.asarray(self.theta_true, dtype=float))
        if self.cv_grid is not None:
            object.__setattr__(self, "cv_grid", np.asarray(self.cv_grid, dtype=float))
        object.__setattr__(self, "support_true",
                           tuple(as_int(j, "each support_true index") for j in self.support_true))
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if isinstance(self.model, (Minar1Spec, OuSpec)) and self.p != dim:
            raise ValueError(f"p must equal the model dimension {dim}, got {self.p}")
        # an INAR sample holds the model's order of lag rows, so a fit of order p fits all n
        if isinstance(self.model, InarSpec) and self.p > self.model.order:
            raise ValueError(f"p must be at most the INAR model's order {self.model.order}, "
                             f"got {self.p}")
        if not all(0 <= j < self.p for j in self.support_true):
            raise ValueError(f"support_true must lie in [0, {self.p})")
        if len(set(self.support_true)) != len(self.support_true):
            raise ValueError(f"support_true must not repeat an index, got {self.support_true}")
        if not isinstance(self.model, HawkesSpec):
            fit_dim = self.p if isinstance(self.model, OuSpec) else self.p + 1
            if self.theta_true is None or self.theta_true.shape != (fit_dim,):
                raise ValueError(f"theta_true must hold the {fit_dim} fit coefficients")
        if self.theta_true is not None and not np.all(np.isfinite(self.theta_true)):
            raise ValueError("theta_true must be finite")
        if self.lambda_mode == "cv":
            # a binned Hawkes sample has no lag rows: its first p bins give the first lags
            fit_rows = self.n - self.p if isinstance(self.model, HawkesSpec) else self.n
            check_cv_arguments(fit_rows, self.cv_folds, self.cv_grid)

    def to_dict(self) -> dict:
        return {f.name: spec_to_dict(self.model) if f.name == "model"
                else to_jsonable(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CaseConfig":
        d = dict(d, model=spec_from_dict(d["model"]))
        d.pop("jobs", None)  # the worker count is a run argument, not config
        return cls(**d)


def _case_alphas(p: int) -> np.ndarray:
    alpha = np.zeros(p)
    alpha[:4] = [0.3, 0.2, 0.2, 0.2]
    return alpha


def _block_diagonal(block: np.ndarray, count: int) -> np.ndarray:
    # slice assignment, not np.kron: kron writes -0.0 beside negative entries
    k = block.shape[0]
    a = np.zeros((k * count, k * count))
    for b in range(count):
        a[k * b: k * b + k, k * b: k * b + k] = block
    return a


def _default(value, default):
    return default if value is None else value


def builtin_case(case_id: str, n: Optional[int] = None, reps: Optional[int] = None,
                 base_seed: int = 20240801, tau: float = 0.05,
                 lambda_mode: Optional[str] = None,
                 lambda_value: Optional[float] = None) -> CaseConfig:
    """Pinned experiment configurations.

    case1/case2: univariate Poisson count autoregression, order 10 / 20,
    intercept 0.5, lag coefficients (0.3, 0.2, 0.2, 0.2, 0, ...).
    case3/case4: block multivariate Poisson INAR(1) of dimension 100 / 200
    built from 4x4 blocks, first-row target.  ou: block OU drift-row fit.
    hawkes: binned support recovery for a 0.8 * 1_(0,1] kernel.  Any case
    is fixed-lambda when given a ``lambda_value`` and no ``lambda_mode``.
    """
    n_obs = _default(n, 2000)
    default_reps, default_mode = 100, "cv"
    theta_true, support_true, bin_delta = None, (0, 1, 2, 3), None
    if case_id in ("case1", "case2"):
        p = 10 if case_id == "case1" else 20
        model = InarSpec(mu_eps=0.5, alpha=_case_alphas(p))
        theta_true = np.concatenate([[0.5], _case_alphas(p)])
        default_reps = 200
    elif case_id in ("case3", "case4"):
        p = 100 if case_id == "case3" else 200
        a = _block_diagonal(_MINAR_BLOCK, p // 4)
        model = Minar1Spec(eta=np.full(p, 0.5), a_matrix=a)
        theta_true = np.concatenate([[0.5], a[0]])
    elif case_id == "ou":
        p = 16
        drift = _block_diagonal(_MINAR_BLOCK - np.eye(4), p // 4)
        model = OuSpec(a_matrix=drift, sigma_diag=np.ones(p), delta=0.05,
                       n_steps=n_obs, substeps=10)
        theta_true = drift[0].copy()
        default_mode = "rate"
    elif case_id == "hawkes":
        p, bin_delta, support_true = 20, 0.1, ()
        horizon = float(_default(n, 1000))
        model = HawkesSpec(eta=1.0, kernel_breakpoints=np.array([1.0]),
                           kernel_values=np.array([0.8]), horizon=horizon)
        n_obs = n_bins(horizon, bin_delta)
    else:
        raise ValueError(f"unknown case id {case_id!r}")
    return CaseConfig(
        case_id=case_id, model=model, n=n_obs, p=p, reps=_default(reps, default_reps),
        lambda_mode=lambda_mode or ("fixed" if lambda_value is not None else default_mode),
        lambda_value=lambda_value, tau=tau, base_seed=base_seed, theta_true=theta_true,
        support_true=support_true, hawkes_bin_delta=bin_delta)


def _draw_projection(config: CaseConfig) -> np.ndarray:
    """Unit direction over the lag coefficients, drawn from the base seed alone."""
    rng = make_rng(config.base_seed)
    u = rng.uniform(-1.0, 1.0, size=config.p)
    return u / np.linalg.norm(u)


def _fit_data(config: CaseConfig, sample: SeriesSample) -> FitData:
    """The replication's prepared design, built once for the choice of lambda and the fit.

    A diffusion path gives its ``DiffusionDesign``; a count series the
    ``CenteredDesign`` of its lags (order p for a univariate series, the
    previous state vector for a multivariate one) with the Poisson variance rule.
    """
    if isinstance(config.model, OuSpec):
        return diffusion_design(sample, config.target)
    order = config.p if sample.dim == 1 else 1
    return center_lags(sample, order, target=config.target, poisson=True)


def _choose_lambda(config: CaseConfig, data: FitData) -> float:
    """lambda by the configured mode; the rate mode scales with ``data.fisher``.

    ``data`` is the ``_fit_data`` of the replication; CV reads its
    ``CenteredDesign``.
    """
    if config.lambda_mode == "fixed":
        return config.lambda_value
    if config.lambda_mode == "rate":
        return config.rate_c * float(np.sqrt(np.log(config.p) / data.fisher))
    report = cross_validate_lambda(data, config.cv_grid, folds=config.cv_folds)
    return report.chosen_lambda


def simulate_series(model, n: int, seed: int) -> SeriesSample:
    """Simulate a count or diffusion spec; Hawkes specs give events, not a series."""
    if isinstance(model, InarSpec):
        return simulate_inar(model, n, seed)
    if isinstance(model, Minar1Spec):
        return simulate_minar1(model, n, seed)
    if isinstance(model, OuSpec):
        return simulate_ou(model, seed)
    raise TypeError(f"cannot simulate a series from {type(model).__name__}")


def _case_rep(config: CaseConfig, rep: int) -> dict:
    """One replication of a count-model (univariate or first-row) or OU case."""
    seed = derive_seed(config.base_seed, rep)
    sample = simulate_series(config.model, config.n, seed)
    record = {"rep": rep, "failed": False}
    data = _fit_data(config, sample)
    if isinstance(data, DiffusionDesign):
        record["sigma2_hat"] = data.sigma2
    offset = data.offset  # intercept columns leading the fit coordinates
    lam = _choose_lambda(config, data)
    fit = two_step_fit(data, lam, config.tau)

    truth = config.theta_true[offset:]
    err1 = selection_and_errors(fit.theta_first[offset:], truth, fit.support.indices,
                                config.support_true)
    err2 = selection_and_errors(fit.theta_tilde[offset:], truth, fit.support.indices,
                                config.support_true)
    u_fit = np.concatenate([np.zeros(offset), _draw_projection(config)])
    proj = project_statistic(fit, u_fit, config.theta_true, np.sqrt(data.fisher))
    # true-support restriction in fit coordinates (intercept + shifted lags for counts)
    t0 = list(range(offset)) + [j + offset for j in config.support_true]
    record.update({
        "lambda": lam,
        "linf1": err1["linf"], "l21": err1["l2"],
        "sel": err1["exact"],
        "linf2": err2["linf"], "l22": err2["l2"],
        "proj_stat": proj, "theta_t0": fit.theta_tilde[t0].tolist(),
        "cover_t0": None, "proj_var_pred": None,
    })
    supp = list(fit.fit_support)
    if err1["exact"] and not fit.empty_model and supp == sorted(t0):
        cov = fit.asymp_cov
        se = np.sqrt(np.diag(cov))
        est = fit.theta_tilde[supp]
        record["cover_t0"] = [bool(abs(e - t) <= 1.96 * s)
                              for e, t, s in zip(est, config.theta_true[supp], se)]
        u_supp = u_fit[supp]
        record["proj_var_pred"] = float(data.fisher * (u_supp @ cov @ u_supp))
    return record


# a replication that fails on one of these is recorded; anything else is a bug
_REP_FAILURES = (NumericError, np.linalg.LinAlgError)


def _rep_worker(task) -> dict:
    rep_fn, config, rep = task
    try:
        return rep_fn(config, rep)
    except _REP_FAILURES as exc:
        return {"rep": rep, "failed": True, "error": f"{type(exc).__name__}: {exc}"}


def _run_reps(rep_fn, config: CaseConfig, jobs: int) -> Tuple[list, list]:
    """All records of ``rep_fn(config, rep)`` sorted by rep, and the completed ones.

    numpy's BLAS runs on one thread meanwhile, in this process and in the
    ``jobs`` workers forked from it, so workers never compete for cores with
    BLAS threads; the caller's thread count is restored afterwards.
    """
    jobs = as_int(jobs, "jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(rep_fn, config, rep) for rep in range(1, config.reps + 1)]
    with one_blas_thread():
        if jobs > 1:
            # deferred: the process pool's modules cost about 20 ms at import
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_rep_worker, tasks, chunksize=1))
        else:
            results = [_rep_worker(t) for t in tasks]
    results.sort(key=lambda r: r["rep"])
    return results, [r for r in results if not r["failed"]]


@dataclass
class CaseReport:
    """Aggregated Monte Carlo metrics for one case."""

    case_id: str
    config: dict
    reps: int
    failures: int
    mean_linf_first: float
    mean_l2_first: float
    selection_proportion: float
    mean_linf_two: float
    mean_l2_two: float
    mean_linf_two_selected: float
    mean_l2_two_selected: float
    royston_p: float
    royston_p_selected: float
    coverage_t0: Optional[list]
    proj_var: float
    proj_var_selected: float
    proj_var_pred: float
    mean_lambda: float
    per_rep: list = field(default_factory=list)
    schema: int = SCHEMA_VERSION


def _nanmean(values) -> float:
    arr = np.array([v for v in values if v is not None], dtype=float)
    return float(arr.mean()) if arr.size else float("nan")


def run_case(config: CaseConfig, jobs: int = 1) -> CaseReport:
    """Execute all replications of a case and aggregate the table metrics.

    The projection direction for the per-rep statistic depends on the base
    seed alone, so every replication shares it; replication r then uses its
    own derived stream.  The report is independent of the worker count.
    """
    if isinstance(config.model, HawkesSpec):
        raise ValueError("use run_hawkes_support for the Hawkes case")
    results, ok = _run_reps(_case_rep, config, jobs)
    sel = [r for r in ok if r["sel"]]
    theta_mat = np.array([r["theta_t0"] for r in ok]) if ok else np.empty((0, 0))
    theta_mat_sel = np.array([r["theta_t0"] for r in sel]) if sel else np.empty((0, 0))

    def _royston(mat) -> float:
        if mat.shape[0] < 12 or mat.shape[1] < 2:
            return float("nan")
        try:
            return royston_test(mat).p_value
        except (ValueError, np.linalg.LinAlgError):
            return float("nan")

    coverage = None
    covers = [r["cover_t0"] for r in sel if r.get("cover_t0") is not None]
    if covers:
        coverage = np.array(covers, dtype=float).mean(axis=0).tolist()

    proj_all = np.array([r["proj_stat"] for r in ok], dtype=float)
    proj_sel = np.array([r["proj_stat"] for r in sel], dtype=float)
    report = CaseReport(
        case_id=config.case_id,
        config=config.to_dict(),
        reps=config.reps,
        failures=len(results) - len(ok),
        mean_linf_first=_nanmean([r["linf1"] for r in ok]),
        mean_l2_first=_nanmean([r["l21"] for r in ok]),
        selection_proportion=_nanmean([float(r["sel"]) for r in ok]),
        mean_linf_two=_nanmean([r["linf2"] for r in ok]),
        mean_l2_two=_nanmean([r["l22"] for r in ok]),
        mean_linf_two_selected=_nanmean([r["linf2"] for r in sel]),
        mean_l2_two_selected=_nanmean([r["l22"] for r in sel]),
        royston_p=_royston(theta_mat),
        royston_p_selected=_royston(theta_mat_sel),
        coverage_t0=coverage,
        proj_var=float(proj_all.var(ddof=1)) if proj_all.size > 1 else float("nan"),
        proj_var_selected=float(proj_sel.var(ddof=1)) if proj_sel.size > 1 else float("nan"),
        proj_var_pred=_nanmean([r.get("proj_var_pred") for r in sel]),
        mean_lambda=_nanmean([r["lambda"] for r in ok]),
        per_rep=results,
    )
    return report


def _hawkes_rep(config: CaseConfig, rep: int) -> dict:
    seed = derive_seed(config.base_seed, rep)
    spec = config.model
    delta = config.hawkes_bin_delta
    events = simulate_hawkes(spec, seed)
    data = _fit_data(config, bin_counts(events, delta, spec.horizon))
    lam = _choose_lambda(config, data)
    _, _, sel = first_step(data, lam, config.tau)
    lags = [j + 1 for j in sel.indices]
    s_hat = max(lags) if lags else 0
    return {"rep": rep, "failed": False, "lambda": lam, "n_events": int(len(events)),
            "s_hat": s_hat, "tau_hat": s_hat * delta, "selected_lags": lags}


@dataclass
class HawkesReport:
    """Aggregated support-recovery metrics for the binned Hawkes case."""

    case_id: str
    config: dict
    reps: int
    failures: int
    tau_true: float
    mean_s_hat: float
    mean_tau_hat: float
    frac_tau_within_30pct: float
    zero_support_fraction: float
    selected_lags_total: int
    per_rep: list = field(default_factory=list)
    schema: int = SCHEMA_VERSION


def run_hawkes_support(config: CaseConfig, jobs: int = 1) -> HawkesReport:
    """Support recovery for the binned Hawkes representation.

    Each replication bins the simulated events at the configured width,
    fits the count autoregression of order p, thresholds, and reports the
    largest selected lag s_hat and the implied kernel support s_hat * delta.
    """
    if not isinstance(config.model, HawkesSpec):
        raise ValueError("run_hawkes_support needs a Hawkes model config")
    results, ok = _run_reps(_hawkes_rep, config, jobs)
    live = np.flatnonzero(config.model.kernel_values)  # the support ends at the last live piece
    tau_true = float(config.model.kernel_breakpoints[live[-1]]) if live.size else 0.0
    tau_hats = np.array([r["tau_hat"] for r in ok], dtype=float)
    if tau_true > 0 and tau_hats.size:
        within = float(np.mean(np.abs(tau_hats - tau_true) <= 0.3 * tau_true))
    else:
        within = float("nan")
    all_lags = [lag for r in ok for lag in r["selected_lags"]]
    return HawkesReport(
        case_id=config.case_id,
        config=config.to_dict(),
        reps=config.reps,
        failures=len(results) - len(ok),
        tau_true=tau_true,
        mean_s_hat=_nanmean([r["s_hat"] for r in ok]),
        mean_tau_hat=float(tau_hats.mean()) if tau_hats.size else float("nan"),
        frac_tau_within_30pct=within,
        zero_support_fraction=_nanmean([float(r["s_hat"] == 0) for r in ok]),
        selected_lags_total=len(all_lags),
        per_rep=results,
    )


def report_to_json(report) -> str:
    """Any report or result as indented JSON with sorted keys (see ``to_jsonable``)."""
    return json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"


def write_per_rep_csv(report: CaseReport, path) -> None:
    """Stream per-rep records to CSV (columns fixed for table tooling)."""
    cols = ["rep", "linf1", "l21", "sel", "linf2", "l22", "proj_stat", "failed"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in report.per_rep:
            w.writerow([r.get(c, "") if not isinstance(r.get(c), bool)
                        else int(r[c]) for c in cols])


def check_bins(bins) -> int:
    """The histogram bin count ``emit_histogram`` takes: an integer >= 1."""
    bins = as_int(bins, "bins")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    return bins


def emit_histogram(statistics: Sequence[float], bins: int, path) -> None:
    """Write (bin_left, bin_right, count) rows; counts sum to the input length."""
    bins = check_bins(bins)
    stats = np.asarray(list(statistics), dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_left", "bin_right", "count"])
        if stats.size == 0:
            return
        counts, edges = np.histogram(stats, bins=bins)
        for i in range(bins):
            w.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(counts[i])])
