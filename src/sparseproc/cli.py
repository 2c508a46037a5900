"""Command-line front end.

Verbs: simulate, fit, cv, experiment, finfty, hawkes-support.
Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 report written but some replications failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter

import numpy as np

from . import harness
from .dantzig import cross_validate_lambda
from .diagnostics import estimate_f_infinity
from .errors import NumericError
from .scores import build_inar_score, center_lags, diffusion_design
from .simulate import (HawkesSpec, OuSpec, as_float, bin_counts, read_series_csv,
                       simulate_hawkes, spec_from_dict, write_series_csv)
from .twostep import two_step_fit, two_step_to_dict

CONFIG_ERROR = 2
NUMERIC_ERROR = 3
REPS_FAILED = 4


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_out(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _failure_status(per_rep) -> int:
    """Print one stderr line per error type of the failed replications.

    Returns REPS_FAILED when any replication failed, else 0.
    """
    counts = Counter(r["error"].split(":", 1)[0] for r in per_rep if r["failed"])
    for name, count in sorted(counts.items()):
        print(f"{count} of {len(per_rep)} replications failed with {name}",
              file=sys.stderr)
    return REPS_FAILED if counts else 0


def _cmd_simulate(args) -> int:
    spec = spec_from_dict(_load_json(args.config))
    if args.n is not None and isinstance(spec, (OuSpec, HawkesSpec)):
        raise ValueError("--n applies to count specs only; an OU spec sets n_steps "
                         "and a Hawkes spec its horizon")
    if args.bin_delta is not None and not isinstance(spec, HawkesSpec):
        raise ValueError("--bin-delta applies to Hawkes specs only")
    if isinstance(spec, HawkesSpec):
        events = simulate_hawkes(spec, args.seed)
        if args.bin_delta is None:
            _write_out("\n".join(repr(t) for t in events) + "\n", args.out)
            return 0
        sample = bin_counts(events, args.bin_delta, spec.horizon)
    else:
        sample = harness.simulate_series(spec, 1000 if args.n is None else args.n, args.seed)
    write_series_csv(sample, args.out)
    return 0


def _cmd_fit(args) -> int:
    if args.model == "diffusion":
        if args.order is not None:
            raise ValueError("--order applies to count fits only")
        data = diffusion_design(read_series_csv(args.series, kind="reals", delta=args.delta))
    elif args.delta is not None:
        raise ValueError("--delta applies to --model diffusion only")
    else:
        series = read_series_csv(args.series, kind="counts")
        data = center_lags(series, 10 if args.order is None else args.order)
    fit = two_step_fit(data, args.lam, args.tau)
    _write_out(harness.report_to_json(two_step_to_dict(fit)), args.out)
    return 0


def _parse_grid(text: str) -> np.ndarray:
    """``--grid lo,hi,num``: ``num`` >= 1 log-spaced values from ``lo`` up to ``hi``, both
    finite and > 0; any other text raises one ``ValueError`` that names the flag."""
    try:
        lo, hi, num = text.split(",")
        lo, hi = (as_float(float(v), "--grid", positive=True) for v in (lo, hi))
        num = int(num)
        if num < 1 or lo > hi:
            raise ValueError
    except ValueError:
        raise ValueError(f"--grid takes lo,hi,num: lo <= hi finite numbers > 0 and num an "
                         f"integer >= 1, got {text!r}") from None
    return np.geomspace(lo, hi, num)


def _cmd_cv(args) -> int:
    series = read_series_csv(args.series, kind="counts")
    data = center_lags(series, args.order)
    grid = None if args.grid is None else _parse_grid(args.grid)
    report = cross_validate_lambda(data, grid, folds=args.folds)
    _write_out(harness.report_to_json(report), args.out)
    return 0


def _load_case(args, case_id: str, **builtin_kwargs) -> harness.CaseConfig:
    """The ``--config`` JSON or the built-in case, with --reps and --seed applied.

    --n, --tau and --lambda shape a built-in case only: next to ``--config``
    they raise ``ValueError`` rather than being dropped.
    """
    shaping = {"--n": args.n, "--tau": args.tau, "--lambda": getattr(args, "lam", None)}
    if args.config:
        given = [flag for flag, value in shaping.items() if value is not None]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be combined with --config; "
                             "set the value in the config JSON")
        config = harness.CaseConfig.from_dict(_load_json(args.config))
    else:
        if args.tau is not None:
            builtin_kwargs["tau"] = args.tau
        config = harness.builtin_case(case_id, n=args.n, **builtin_kwargs)
    overrides = {"reps": args.reps, "base_seed": args.seed}
    # replace() validates the overridden config again
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_experiment(args) -> int:
    config = _load_case(args, args.case, lambda_value=args.lam)
    harness.check_bins(args.bins)  # before the run, so a bad --bins writes no report
    report = harness.run_case(config, jobs=args.jobs)
    _write_out(harness.report_to_json(report), args.out)
    if args.hist:
        stats = [r["proj_stat"] for r in report.per_rep if not r["failed"]]
        harness.emit_histogram(stats, args.bins, args.hist)
    if args.per_rep:
        harness.write_per_rep_csv(report, args.per_rep)
    return _failure_status(report.per_rep)


def _cmd_finfty(args) -> int:
    series = read_series_csv(args.series, kind="counts")
    gram = build_inar_score(series, args.order).gram
    support = [int(s) for s in args.support.split(",")]
    est = estimate_f_infinity(gram, support, args.samples, args.seed)
    _write_out(harness.report_to_json(est), args.out)
    return 0


def _cmd_hawkes_support(args) -> int:
    config = _load_case(args, "hawkes")
    report = harness.run_hawkes_support(config, jobs=args.jobs)
    _write_out(harness.report_to_json(report), args.out)
    return _failure_status(report.per_rep)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparseproc",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a model spec to a series CSV")
    p_sim.add_argument("--config", required=True, help="model spec JSON")
    p_sim.add_argument("--n", type=int, default=None, help="count series length (default 1000)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--bin-delta", type=float, default=None,
                       help="bin width for Hawkes event output")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="two-step fit of a series CSV")
    p_fit.add_argument("--series", required=True)
    p_fit.add_argument("--model", choices=["inar", "diffusion"], default="inar")
    p_fit.add_argument("--order", type=int, default=None,
                       help="lag order of a count fit (default 10)")
    p_fit.add_argument("--lambda", dest="lam", type=float, required=True)
    p_fit.add_argument("--tau", type=float, default=0.05)
    p_fit.add_argument("--delta", type=float, default=None,
                       help="sampling interval of a diffusion series")
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_cv = sub.add_parser("cv", help="cross-validate the constraint level")
    p_cv.add_argument("--series", required=True)
    p_cv.add_argument("--order", type=int, default=10)
    p_cv.add_argument("--grid", default=None, help="lo,hi,num (log-spaced)")
    p_cv.add_argument("--folds", type=int, default=5)
    p_cv.add_argument("--out", default=None)
    p_cv.set_defaults(func=_cmd_cv)

    common = argparse.ArgumentParser(add_help=False)  # experiment and hawkes-support flags
    common.add_argument("--config", default=None, help="CaseConfig JSON to run")
    common.add_argument("--reps", type=int, default=None)
    common.add_argument("--n", type=int, default=None, help="length (hawkes: horizon, time units)")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--tau", type=float, default=None, help="default 0.05")
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--out", default=None)

    p_exp = sub.add_parser("experiment", parents=[common], help="run a Monte Carlo case")
    p_exp.add_argument("--case", default="case1",
                       choices=["case1", "case2", "case3", "case4", "ou"])
    p_exp.add_argument("--lambda", dest="lam", type=float, default=None)
    p_exp.add_argument("--hist", default=None, help="histogram CSV of projected statistics")
    p_exp.add_argument("--bins", type=int, default=30)
    p_exp.add_argument("--per-rep", default=None, help="per-replication CSV")
    p_exp.set_defaults(func=_cmd_experiment)

    p_f = sub.add_parser("finfty", help="cone compatibility factor of a series design")
    p_f.add_argument("--series", required=True)
    p_f.add_argument("--order", type=int, default=10)
    p_f.add_argument("--support", required=True, help="comma-separated indices")
    p_f.add_argument("--samples", type=int, default=20000)
    p_f.add_argument("--seed", type=int, default=0)
    p_f.add_argument("--out", default=None)
    p_f.set_defaults(func=_cmd_finfty)

    p_h = sub.add_parser("hawkes-support", parents=[common], help="binned Hawkes support recovery")
    p_h.set_defaults(func=_cmd_hawkes_support)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    # StationarityError and json.JSONDecodeError are ValueErrors
    except (ValueError, KeyError, TypeError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
