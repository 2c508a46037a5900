"""Harness tests: pinned configs, determinism, report formats, CLI surface."""

import csv
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from oracles import reference_cross_validate, run_fresh

from sparseproc import _blas, cli, dantzig, errors, harness, scores, twostep
from sparseproc.cli import build_parser, main
from sparseproc.dantzig import CvReport
from sparseproc.diagnostics import FInftyEstimate, estimate_f_infinity
from sparseproc.errors import RankError
from sparseproc.harness import (CaseConfig, HawkesReport, builtin_case, emit_histogram,
                                run_case, run_hawkes_support, report_to_json,
                                write_per_rep_csv)
from sparseproc.scores import LinearScoreSystem, center_lags, diffusion_design
from sparseproc.simulate import (HawkesSpec, InarSpec, Minar1Spec, SeriesSample, derive_seed,
                                 read_series_csv, simulate_inar, simulate_minar1, spec_to_dict)
from sparseproc.twostep import two_step_fit


class TestBuiltinCases:
    def test_case1_pins(self):
        cfg = builtin_case("case1")
        assert cfg.n == 2000 and cfg.p == 10 and cfg.tau == 0.05
        assert_allclose(cfg.model.alpha[:4], [0.3, 0.2, 0.2, 0.2])
        assert np.all(cfg.model.alpha[4:] == 0)
        assert cfg.model.mu_eps == 0.5
        assert cfg.support_true == (0, 1, 2, 3)

    def test_case2_order(self):
        cfg = builtin_case("case2")
        assert cfg.p == 20 and cfg.model.alpha.size == 20

    def test_case3_block_matrix(self):
        cfg = builtin_case("case3")
        a = cfg.model.a_matrix
        assert a.shape == (100, 100)
        block = np.array([[0.3, 0.2, 0.2, 0.2],
                          [0.2, 0.3, 0.2, 0.2],
                          [0.0, 0.2, 0.3, 0.2],
                          [0.0, 0.0, 0.2, 0.3]])
        for b in range(25):
            assert_array_equal(a[4 * b: 4 * b + 4, 4 * b: 4 * b + 4], block)
        # nothing off the diagonal blocks
        assert a.sum() == pytest.approx(25 * block.sum())
        assert_array_equal(cfg.model.eta, np.full(100, 0.5))

    def test_case4_dimension(self):
        assert builtin_case("case4").p == 200

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            builtin_case("case9")

    def test_config_json_roundtrip(self):
        cfg = builtin_case("case3", reps=5)
        back = CaseConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back.case_id == "case3"
        assert_array_equal(back.model.a_matrix, cfg.model.a_matrix)
        assert back.support_true == cfg.support_true
        # the worker count is an argument of run_case, never part of a config
        d = cfg.to_dict()
        assert "jobs" not in d
        assert CaseConfig.from_dict(dict(d, jobs=4)).to_dict() == d

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -0.01])
    def test_non_finite_or_negative_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau"):
            builtin_case("case1", tau=tau)

    @pytest.mark.parametrize("case_id", ["case1", "case2", "case3", "case4", "ou", "hawkes"])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_lambda_value_makes_the_case_fixed(self, case_id, lam):
        cfg = builtin_case(case_id, lambda_value=lam)
        assert cfg.lambda_mode == "fixed" and cfg.lambda_value == lam

    def test_explicit_lambda_mode_wins(self):
        assert builtin_case("case4", lambda_mode="rate").lambda_mode == "rate"
        assert builtin_case("case1", lambda_mode="rate", lambda_value=0.1).lambda_mode == "rate"
        assert builtin_case("case1").lambda_mode == "cv"
        assert builtin_case("ou").lambda_mode == "rate"

    @pytest.mark.parametrize("case_id", ["case1", "case3", "ou", "hawkes"])
    @pytest.mark.parametrize("arg", ["n", "reps"])
    def test_zero_is_not_the_default(self, case_id, arg):
        # n=0 and reps=0 are rejected, never replaced by the pinned defaults
        with pytest.raises(ValueError):
            builtin_case(case_id, **{arg: 0})


class TestCaseConfigValidation:
    @pytest.mark.parametrize("case_id,changes,message", [
        ("case1", {"n": 0}, "n must be"),
        ("case1", {"lambda_mode": "fixed", "lambda_value": None},
         "lambda_value must be a finite number >= 0, got None"),
        ("case1", {"lambda_mode": "fixed", "lambda_value": float("nan")},
         "lambda_value must be a finite number >= 0, got nan"),
        ("case1", {"lambda_mode": "fixed", "lambda_value": float("inf")},
         "lambda_value must be a finite number >= 0, got inf"),
        ("case1", {"lambda_mode": "fixed", "lambda_value": -0.1},
         "lambda_value must be a finite number >= 0, got -0.1"),
        ("case1", {"lambda_mode": "rate", "rate_c": float("nan")},
         "rate_c must be a finite number >= 0, got nan"),
        ("case1", {"lambda_mode": "rate", "rate_c": -1.0},
         "rate_c must be a finite number >= 0, got -1.0"),
        ("ou", {"lambda_mode": "cv"}, "OU case"),
        ("case3", {"target": 500}, "target"),
        ("case3", {"target": -1}, "target"),
        ("case3", {"target": 100}, "target"),
        ("ou", {"target": 16}, "target"),
        ("case1", {"target": 1}, "target"),
        ("hawkes", {"target": 1}, "target"),
        ("hawkes", {"hawkes_bin_delta": None},
         "hawkes_bin_delta must be a finite number > 0, got None"),
        ("hawkes", {"hawkes_bin_delta": 0.0},
         "hawkes_bin_delta must be a finite number > 0, got 0.0"),
        ("hawkes", {"hawkes_bin_delta": -0.1},
         "hawkes_bin_delta must be a finite number > 0, got -0.1"),
        ("hawkes", {"hawkes_bin_delta": float("nan")},
         "hawkes_bin_delta must be a finite number > 0, got nan"),
        ("hawkes", {"hawkes_bin_delta": float("inf")},
         "hawkes_bin_delta must be a finite number > 0, got inf"),
        ("hawkes", {"hawkes_bin_delta": 50.0}, "horizon too short"),
        ("hawkes", {"p": 10000}, "horizon too short"),
        ("case1", {"cv_folds": 1}, "cv folds must be >= 2, got 1"),
        ("hawkes", {"cv_folds": 0}, "cv folds must be >= 2, got 0"),
        ("case1", {"reps": 0}, "reps must be >= 1"),
        ("case1", {"p": 0}, "p must be >= 1"),
        ("case1", {"support_true": (0, 50)}, r"support_true must lie in \[0, 10\)"),
        ("case3", {"support_true": (-1,)}, "support_true must lie"),
        ("ou", {"support_true": (16,)}, "support_true must lie"),
        ("case1", {"theta_true": np.zeros(10)}, "theta_true must hold the 11"),
        ("case3", {"theta_true": None}, "theta_true must hold the 101"),
        ("ou", {"theta_true": np.zeros(17)}, "theta_true must hold the 16"),
        ("case3", {"p": 50}, "p must equal the model dimension 100"),
        ("ou", {"p": 8}, "p must equal the model dimension 16"),
        # an INAR sample holds only the model's order of lag rows
        ("case1", {"model": InarSpec(mu_eps=0.5, alpha=[0.3, 0.2]), "p": 5,
                   "theta_true": np.zeros(6)},
         "p must be at most the INAR model's order 2, got 5"),
        ("case1", {"theta_true": [0.5, float("nan")] + [0.0] * 9}, "theta_true must be finite"),
        ("ou", {"theta_true": np.full(16, np.inf)}, "theta_true must be finite"),
        ("case1", {"support_true": (0, 0, 1, 2, 3)}, "support_true must not repeat an index"),
        # a CV split needs two fit rows per fold; a Hawkes series fits its n - p bins
        ("case1", {"cv_folds": 1001}, "1001 cv folds need at least 2002 fit rows, got 2000"),
        ("case3", {"n": 9}, "5 cv folds need at least 10 fit rows, got 9"),
        ("hawkes", {"cv_folds": 4991}, "4991 cv folds need at least 9982 fit rows, got 9980"),
        ("case1", {"cv_grid": []}, r"cv grid must be a nonempty vector, got shape \(0,\)"),
        ("case1", {"cv_grid": [[0.1, 0.2]]},
         r"cv grid must be a nonempty vector, got shape \(1, 2\)"),
        ("case1", {"cv_grid": [0.1, float("nan")]}, "lambda must be finite and nonnegative"),
        ("case1", {"cv_grid": [0.1, float("inf")]}, "lambda must be finite and nonnegative"),
        ("case1", {"cv_grid": [-0.1, 0.2]}, "lambda must be finite and nonnegative"),
        ("hawkes", {"cv_grid": [0.5, 0.1]}, "cv grid must be sorted ascending"),
        # an OU path runs n_steps steps, and a Hawkes series has a bin per delta of horizon
        ("ou", {"n": 1999}, "n must equal the OU model's n_steps 2000, got 1999"),
        ("ou", {"n": 4000}, "n must equal the OU model's n_steps 2000, got 4000"),
        ("hawkes", {"n": 1000}, "n must equal the 10000 bins of the horizon, got 1000"),
        ("hawkes", {"n": 10001}, "n must equal the 10000 bins of the horizon, got 10001"),
        # the integer fields take integers only, and a bool is not one
        ("case1", {"cv_folds": 2.5}, "cv_folds must be an integer, got 2.5"),
        ("case1", {"support_true": (0, 1.5, 2, 3)},
         "each support_true index must be an integer, got 1.5"),
        ("case1", {"support_true": (0, True)},
         "each support_true index must be an integer, got True"),
        # the model is one of the four spec types, which to_dict and the runners know
        ("case1", {"model": "foo"},
         "model must be an InarSpec, Minar1Spec, OuSpec or HawkesSpec, got str"),
        ("case1", {"model": None},
         "model must be an InarSpec, Minar1Spec, OuSpec or HawkesSpec, got NoneType"),
        ("case1", {"reps": True}, "reps must be an integer, got True"),
        ("case1", {"reps": 2.5}, "reps must be an integer, got 2.5"),
        ("case1", {"n": 300.5}, "n must be an integer, got 300.5"),
        ("case1", {"p": 10.0}, "p must be an integer, got 10.0"),
        ("case1", {"base_seed": 1.0}, "base_seed must be an integer, got 1.0"),
        # _draw_projection seeds make_rng with the base seed itself
        ("case1", {"base_seed": -1}, "base_seed must be >= 0, got -1"),
        ("hawkes", {"base_seed": -1}, "base_seed must be >= 0, got -1"),
        ("case1", {"lambda_mode": "bic"}, "lambda_mode must be 'cv', 'fixed', or 'rate'"),
        ("case1", {"target": 0.5}, "target must be an integer, got 0.5"),
        ("case3", {"target": np.float64(1.0)}, "target must be an integer"),
        # the real fields take finite numbers only, and a bool is not one; an optional
        # one is checked wherever it is given
        ("case1", {"tau": True}, "tau must be a finite number >= 0, got True"),
        ("case1", {"tau": float("nan")}, "tau must be a finite number >= 0, got nan"),
        ("case1", {"tau": "0.05"}, "tau must be a finite number >= 0, got '0.05'"),
        ("case1", {"lambda_mode": "rate", "rate_c": True},
         "rate_c must be a finite number >= 0, got True"),
        ("case1", {"lambda_mode": "fixed", "lambda_value": True},
         "lambda_value must be a finite number >= 0, got True"),
        ("case1", {"lambda_mode": "rate", "lambda_value": True},
         "lambda_value must be a finite number >= 0, got True"),
        ("hawkes", {"hawkes_bin_delta": True},
         "hawkes_bin_delta must be a finite number > 0, got True"),
        ("case1", {"hawkes_bin_delta": False},
         "hawkes_bin_delta must be a finite number > 0, got False"),
    ])
    def test_bad_config_rejected_at_construction(self, case_id, changes, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(builtin_case(case_id, reps=1), **changes)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: builtin_case("case1", base_seed=-1), ValueError,
         "^base_seed must be >= 0, got -1$"),
        (lambda: run_case(builtin_case("hawkes", n=50, reps=1)), ValueError,
         "^use run_hawkes_support for the Hawkes case$"),
        (lambda: harness.simulate_series(builtin_case("hawkes", n=50).model, 10, 0), TypeError,
         "^cannot simulate a series from HawkesSpec$"),
    ], ids=["negative_base_seed", "run_case_hawkes", "simulate_series_hawkes"])
    def test_entry_points_reject_what_they_cannot_run(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_short_horizon_rejected_at_construction(self):
        with pytest.raises(ValueError, match="horizon too short"):
            dataclasses.replace(builtin_case("hawkes", n=200, reps=1), p=5000)

    def test_last_target_and_short_folds_outside_cv_accepted(self):
        assert dataclasses.replace(builtin_case("case3", reps=1), target=99).target == 99
        assert dataclasses.replace(builtin_case("ou", reps=1), target=15).target == 15
        cfg = dataclasses.replace(builtin_case("case1", reps=1), lambda_mode="rate",
                                  cv_folds=1, cv_grid=[])
        assert cfg.cv_folds == 1

    def test_real_fields_held_as_float(self):
        cfg = dataclasses.replace(builtin_case("case1", reps=1), tau=0, rate_c=np.float32(2.0),
                                  lambda_mode="fixed", lambda_value=np.int64(1))
        assert (cfg.tau, cfg.rate_c, cfg.lambda_value) == (0.0, 2.0, 1.0)
        assert all(type(v) is float for v in (cfg.tau, cfg.rate_c, cfg.lambda_value))
        assert cfg.to_dict()["tau"] == 0.0

    def test_numpy_integer_fields_held_as_int(self):
        cfg = dataclasses.replace(builtin_case("case3", reps=1), reps=np.int64(2),
                                  cv_folds=np.int32(4), target=np.int64(7))
        assert (cfg.reps, cfg.cv_folds, cfg.target) == (2, 4, 7)
        assert all(type(v) is int for v in (cfg.reps, cfg.cv_folds, cfg.target))

    def test_folds_that_just_fill_the_fit_rows_accepted(self):
        assert dataclasses.replace(builtin_case("case1", reps=1), cv_folds=1000).cv_folds == 1000
        assert dataclasses.replace(builtin_case("hawkes", reps=1), cv_folds=4990).cv_folds == 4990

    @pytest.mark.parametrize("case_id, changes", [
        ("case3", {"target": 500}),
        ("hawkes", {"p": 5000}),
        ("case1", {"reps": 0}),
    ])
    def test_run_config_cannot_be_changed_after_construction(self, case_id, changes):
        cfg = builtin_case(case_id, n=200, reps=1)
        before = cfg.to_dict()
        for name, value in changes.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        assert cfg.to_dict() == before

    def test_fixed_zero_lambda_accepted(self):
        cfg = dataclasses.replace(builtin_case("case1", reps=1), lambda_mode="fixed",
                                  lambda_value=0.0)
        assert cfg.lambda_value == 0.0


class TestRunCase:
    def test_single_rep_aggregates(self):
        cfg = builtin_case("case1", n=600, reps=1)
        rep = run_case(cfg)
        record = rep.per_rep[0]
        assert rep.reps == 1 and rep.failures == 0
        assert rep.mean_linf_first == pytest.approx(record["linf1"])
        assert rep.mean_l2_two == pytest.approx(record["l22"])
        assert rep.selection_proportion == float(record["sel"])

    @pytest.mark.parametrize("error", [errors.NumericError, np.linalg.LinAlgError])
    def test_numeric_failure_is_recorded(self, monkeypatch, error):
        def failing(config, rep):
            raise error("synthetic")

        monkeypatch.setattr(harness, "_case_rep", failing)
        report = run_case(builtin_case("case1", n=300, reps=2))
        assert report.failures == 2
        assert [r["error"] for r in report.per_rep] == [f"{error.__name__}: synthetic"] * 2

    def test_constant_ou_path_is_a_recorded_failure(self, monkeypatch):
        # the design rejects the path when built, with the message the fit gave before
        cfg = builtin_case("ou", reps=2)
        flat = SeriesSample(np.ones((cfg.n + 1, cfg.p)), delta=cfg.model.delta,
                            kind="reals")
        monkeypatch.setattr(harness, "simulate_series", lambda model, n, seed: flat)
        report = run_case(cfg, jobs=1)
        assert report.failures == 2
        assert [r["error"] for r in report.per_rep] == [
            "DegenerateVarianceError: constant path: quadratic variation is zero"] * 2

    @pytest.mark.parametrize("case_id", ["case1", "case3"])
    def test_count_designs_use_the_poisson_rule(self, case_id):
        # simulated count series are conditionally Poisson: their variance is their mean
        cfg = builtin_case(case_id, n=300, reps=1)
        assert harness._fit_data(cfg, harness.simulate_series(cfg.model, cfg.n, 1)).poisson

    @pytest.mark.parametrize("error", [errors.StationarityError, ValueError, KeyError])
    def test_other_failure_is_raised(self, monkeypatch, error):
        # no replication can raise these, so one that does is a bug, not a failed rep
        def failing(config, rep):
            raise error("synthetic")

        monkeypatch.setattr(harness, "_case_rep", failing)
        with pytest.raises(error):
            run_case(builtin_case("case1", n=300, reps=2))

    def test_deterministic_reports(self):
        cfg = builtin_case("case1", n=500, reps=6)
        a = run_case(cfg, jobs=1)
        b = run_case(cfg, jobs=1)
        assert report_to_json(a) == report_to_json(b)

    def test_jobs_invariance(self):
        cfg = builtin_case("case1", n=500, reps=6)
        a = run_case(cfg, jobs=1)
        b = run_case(cfg, jobs=2)
        assert report_to_json(a) == report_to_json(b)

    def test_failure_accounting(self, monkeypatch):
        cfg = builtin_case("case1", n=500, reps=5)
        real = harness._case_rep

        def flaky(config, rep):
            if rep == 3:
                raise RankError("synthetic failure")
            return real(config, rep)

        monkeypatch.setattr(harness, "_case_rep", flaky)
        rep = run_case(cfg, jobs=1)
        assert rep.failures == 1
        assert len(rep.per_rep) == 5
        failed = [r for r in rep.per_rep if r["failed"]]
        assert len(failed) == 1 and "synthetic failure" in failed[0]["error"]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(config, rep):
            raise RuntimeError("bug in a replication")

        monkeypatch.setattr(harness, "_case_rep", broken)
        with pytest.raises(RuntimeError, match="bug in a replication"):
            run_case(builtin_case("case1", n=500, reps=2), jobs=1)

    def test_uncertified_first_step_counts_as_failure(self, monkeypatch):
        monkeypatch.setattr(dantzig, "_PIVOTS_PER_DIM", 0)  # every LP ends at the limit
        rep = run_case(builtin_case("case1", n=500, reps=2, lambda_mode="rate"), jobs=1)
        assert rep.failures == 2
        assert all(r["error"].startswith("UncertifiedFitError") for r in rep.per_rep)

    @pytest.mark.parametrize("case_id,run", [("case1", run_case),
                                             ("hawkes", run_hawkes_support)])
    def test_reports_match_reference_cv(self, monkeypatch, case_id, run):
        # per-block CV sums must choose every lambda exactly as the per-fold copies did
        cfg = builtin_case(case_id, reps=3)
        merged = report_to_json(run(cfg))

        def reference_on_raw_rows(data, grid=None, folds=5):
            design = np.column_stack([np.ones(data.n), data.lags])
            return reference_cross_validate(design, data.response, grid, folds)

        monkeypatch.setattr(harness, "cross_validate_lambda", reference_on_raw_rows)
        assert report_to_json(run(cfg)) == merged

    @pytest.mark.parametrize("case_id,rep_fn", [("case1", "_case_rep"),
                                                ("hawkes", "_hawkes_rep")])
    def test_one_centering_per_replication(self, monkeypatch, case_id, rep_fn):
        # CV and the first step share the replication's CenteredDesign
        real, calls = {name: getattr(scores, name) for name in ("center_design",
                                                                "center_lags")}, []

        def counting(name):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real[name](*args, **kwargs)
            return wrapped

        for module in list(sys.modules.values()):
            for name in real:
                if module.__name__.startswith("sparseproc") and hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name))
        cfg = builtin_case(case_id, n=500, reps=1)
        assert cfg.lambda_mode == "cv"
        record = getattr(harness, rep_fn)(cfg, 1)
        assert not record["failed"]
        assert calls == ["center_lags"]

    def test_selection_flag(self, monkeypatch):
        # a replication's "sel" is exact recovery of the true support by its fit,
        # and only such replications carry a coverage record
        fits = []
        real = harness.two_step_fit

        def recording(*args, **kwargs):
            fits.append(real(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(harness, "two_step_fit", recording)
        rep = run_case(builtin_case("case1", n=500, reps=8), jobs=1)
        sels = [r["sel"] for r in rep.per_rep]
        assert sels == [set(f.support.indices) == {0, 1, 2, 3} for f in fits]
        assert True in sels and False in sels
        assert all(r["cover_t0"] is None for r in rep.per_rep if not r["sel"])

    def test_rate_lambda_mode(self):
        cfg = dataclasses.replace(builtin_case("case1", n=500, reps=2, lambda_mode="rate"),
                                  rate_c=2.0)
        rep = run_case(cfg)
        expected = 2.0 * np.sqrt(np.log(10) / 500)
        assert rep.per_rep[0]["lambda"] == pytest.approx(expected)


def _blas_threads_rep(config, rep):
    return {"rep": rep, "failed": False, "threads": _blas.BLAS_THREADS[1]()}


WORKER_THREADS_SCRIPT = """
import json
from sparseproc import _blas, harness
from sparseproc.harness import builtin_case
if _blas.BLAS_THREADS is None:
    print(json.dumps(None))
    raise SystemExit
get_threads = _blas.BLAS_THREADS[1]
def rep_fn(config, rep):
    return {"rep": rep, "failed": False, "threads": get_threads()}
before = get_threads()
results, _ = harness._run_reps(rep_fn, builtin_case("case1", n=300, reps=4), 2)
print(json.dumps({"before": before, "workers": [r["threads"] for r in results],
                  "after": get_threads()}))
"""


class TestNoDenseDesign:
    """A replication and the CLI fit and cv verbs never write the n x (p + 1) design:
    with ``lagged_design`` refusing, they give the same records and outputs."""

    @staticmethod
    def refuse_dense_design(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense design was written")

        for module in list(sys.modules.values()):  # scores, and every importer of the name
            if module.__name__.startswith("sparseproc") and hasattr(module, "lagged_design"):
                monkeypatch.setattr(module, "lagged_design", refuse)
        assert harness.lagged_design is refuse and scores.lagged_design is refuse

    @pytest.mark.parametrize("case_id,rep_fn", [("hawkes", "_hawkes_rep"),
                                                ("case1", "_case_rep"),
                                                ("case3", "_case_rep"),
                                                ("ou", "_case_rep")])
    def test_replication(self, monkeypatch, case_id, rep_fn):
        cfg = builtin_case(case_id, reps=1)
        expected = json.dumps(getattr(harness, rep_fn)(cfg, 1), sort_keys=True)
        self.refuse_dense_design(monkeypatch)
        record = getattr(harness, rep_fn)(cfg, 1)
        assert not record["failed"]
        assert json.dumps(record, sort_keys=True) == expected

    def test_fit_and_cv_verbs(self, monkeypatch, tmp_path):
        spec_path, series = tmp_path / "spec.json", tmp_path / "series.csv"
        spec_path.write_text(json.dumps(spec_to_dict(builtin_case("case1").model)))
        assert main(["simulate", "--config", str(spec_path), "--n", "800", "--seed", "1",
                     "--out", str(series)]) == 0
        verbs = [["fit", "--series", str(series), "--lambda", "0.12"],
                 ["cv", "--series", str(series), "--folds", "4"]]

        def outputs(tag):
            for k, argv in enumerate(verbs):
                assert main(argv + ["--out", str(tmp_path / f"{tag}{k}")]) == 0
            return [(tmp_path / f"{tag}{k}").read_bytes() for k in range(len(verbs))]

        expected = outputs("dense")
        self.refuse_dense_design(monkeypatch)
        assert outputs("lags") == expected


class TestBlasThreads:
    def test_jobs_below_one_rejected(self):
        for jobs in (0, -5):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                harness._run_reps(harness._case_rep, builtin_case("case1", reps=2), jobs)

    def test_forked_workers_run_one_thread(self):
        # BLAS threads left at their default in a fresh interpreter
        out = run_fresh(WORKER_THREADS_SCRIPT, OPENBLAS_NUM_THREADS=None,
                        OMP_NUM_THREADS=None, GOTO_NUM_THREADS=None)
        if out is None:
            pytest.skip("numpy's BLAS exports no thread control")
        assert out["workers"] == [1, 1, 1, 1]
        assert out["after"] == out["before"]

    def test_caller_count_restored(self):
        if _blas.BLAS_THREADS is None:
            pytest.skip("numpy's BLAS exports no thread control")
        setter, getter = _blas.BLAS_THREADS
        before = getter()
        setter(2)
        caller = getter()
        cfg = builtin_case("case1", reps=2)
        try:
            results, _ = harness._run_reps(_blas_threads_rep, cfg, 1)
            assert [r["threads"] for r in results] == [1, 1]
            assert getter() == caller

            def broken(config, rep):
                raise RuntimeError("bug in a replication")
            with pytest.raises(RuntimeError, match="bug in a replication"):
                harness._run_reps(broken, cfg, 1)
            assert getter() == caller
        finally:
            setter(before)


class TestHawkesSupport:
    def test_zero_kernel_mostly_empty_support(self):
        spec = HawkesSpec(eta=1.0, kernel_breakpoints=np.array([1.0]),
                          kernel_values=np.array([0.0]), horizon=400.0)
        cfg = CaseConfig(case_id="hawkes", model=spec, n=4000, p=20, reps=20,
                         lambda_mode="cv", tau=0.05, base_seed=5,
                         hawkes_bin_delta=0.1)
        rep = run_hawkes_support(cfg, jobs=2)
        zero_frac = rep.zero_support_fraction
        assert zero_frac >= 0.9

    def test_halved_delta_stable_tau(self):
        spec = HawkesSpec(eta=1.0, kernel_breakpoints=np.array([1.0]),
                          kernel_values=np.array([0.8]), horizon=600.0)
        out = {}
        for delta, p in ((0.1, 20), (0.05, 40)):
            cfg = CaseConfig(case_id="hawkes", model=spec, n=int(600 / delta), p=p,
                             reps=10, lambda_mode="cv", tau=0.05, base_seed=11,
                             hawkes_bin_delta=delta)
            out[delta] = run_hawkes_support(cfg, jobs=2).mean_tau_hat
        # s_hat roughly doubles so tau_hat = s_hat * delta stays put
        assert abs(out[0.05] - out[0.1]) <= 0.3 * out[0.1]

    def test_uncertified_first_step_counts_as_failure(self, monkeypatch):
        monkeypatch.setattr(dantzig, "_PIVOTS_PER_DIM", 0)  # every LP ends at the limit
        # the rate lambda: no CV LP runs before the first step
        report = run_hawkes_support(builtin_case("hawkes", n=200, reps=2, lambda_mode="rate"),
                                    jobs=1)
        assert report.failures == 2
        assert all(r["error"].startswith("UncertifiedFitError") for r in report.per_rep)

    def test_wrong_model_rejected(self):
        cfg = builtin_case("case1", reps=1)
        with pytest.raises(ValueError):
            run_hawkes_support(cfg)

    def test_tau_true_ends_at_the_last_live_piece(self):
        # a zero last piece adds no excitation, so the support ends at the first breakpoint
        spec = HawkesSpec(eta=1.0, kernel_breakpoints=np.array([1.0, 2.0]),
                          kernel_values=np.array([0.8, 0.0]), horizon=300.0)
        cfg = CaseConfig(case_id="hawkes", model=spec, n=3000, p=20, reps=3,
                         lambda_mode="cv", tau=0.05, base_seed=11, hawkes_bin_delta=0.1)
        rep = run_hawkes_support(cfg, jobs=1)
        assert rep.tau_true == 1.0
        tau_hats = np.array([r["tau_hat"] for r in rep.per_rep])
        assert rep.frac_tau_within_30pct == np.mean(np.abs(tau_hats - 1.0) <= 0.3)


class TestOutputs:
    def test_histogram_empty(self, tmp_path):
        path = tmp_path / "h.csv"
        emit_histogram([], 5, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows == [["bin_left", "bin_right", "count"]]

    def test_histogram_constant_input(self, tmp_path):
        path = tmp_path / "h.csv"
        emit_histogram([2.0] * 7, 4, path)
        rows = list(csv.reader(path.read_text().splitlines()))[1:]
        counts = [int(r[2]) for r in rows]
        assert sum(counts) == 7
        assert sum(c > 0 for c in counts) == 1

    def test_histogram_counts_sum(self, tmp_path):
        rng = np.random.default_rng(0)
        stats = rng.standard_normal(257)
        path = tmp_path / "h.csv"
        emit_histogram(stats, 12, path)
        rows = list(csv.reader(path.read_text().splitlines()))[1:]
        assert sum(int(r[2]) for r in rows) == 257
        assert len(rows) == 12

    def test_per_rep_csv_columns(self, tmp_path):
        cfg = builtin_case("case1", n=500, reps=3)
        rep = run_case(cfg)
        path = tmp_path / "reps.csv"
        write_per_rep_csv(rep, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["rep", "linf1", "l21", "sel", "linf2", "l22",
                           "proj_stat", "failed"]
        assert len(rows) == 4

    def test_report_json_schema(self):
        cfg = builtin_case("case1", n=500, reps=2)
        report = run_case(cfg)
        doc = json.loads(report_to_json(report))
        assert doc["schema"] == 1
        assert doc["case_id"] == "case1"
        assert len(doc["per_rep"]) == 2
        assert set(doc) == {f.name for f in dataclasses.fields(report)}
        assert doc["config"] == json.loads(json.dumps(cfg.to_dict()))


IMPORT_GRAPH_SCRIPT = """
import json, sys
def any_scipy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import sparseproc
seen = {"import": "scipy.optimize" in sys.modules}
scipy_loaded = {"import": any_scipy()}
numpy_random = "numpy.random" in sys.modules
from sparseproc.harness import builtin_case, run_case, run_hawkes_support
failures = run_case(builtin_case("case1", n=300, reps=1, lambda_mode="rate"), jobs=1).failures
failures += run_case(builtin_case("ou", n=300, reps=1), jobs=1).failures
seen["count_and_ou"] = "scipy.optimize" in sys.modules
scipy_loaded["count_and_ou"] = any_scipy()
failures += run_hawkes_support(builtin_case("hawkes", n=200, reps=1), jobs=1).failures
seen["hawkes"] = "scipy.optimize" in sys.modules
scipy_loaded["hawkes"] = any_scipy()
pool = {"jobs1": "concurrent.futures.process" in sys.modules}
failures += run_case(builtin_case("case1", n=300, reps=2, lambda_mode="rate"), jobs=2).failures
pool["jobs2"] = "concurrent.futures.process" in sys.modules
from sparseproc.scores import center_design, lagged_design
from sparseproc.simulate import InarSpec, simulate_inar
z, y = lagged_design(simulate_inar(InarSpec(mu_eps=0.5, alpha=[0.3, 0.2]), 500, 3), 2)
fit = sparseproc.two_step_fit(center_design(z, y), 0.1, 0.05)
seen["residual"] = "scipy.optimize" in sys.modules
print(json.dumps({"seen": seen, "scipy_loaded": scipy_loaded, "pool": pool,
                  "numpy_random": numpy_random, "failures": failures,
                  "nuisance": fit.nuisance.kind}))
"""

NORMALITY_IMPORT_SCRIPT = """
import json, sys
import numpy as np
import sparseproc
before = "scipy.special" in sys.modules
sample = np.random.default_rng(0).standard_normal((40, 2))
getattr(sparseproc, sys.argv[1])(sample if sys.argv[1] == "royston_test" else sample[:, 0])
print(json.dumps({"before": before, "after": "scipy.special" in sys.modules}))
"""


@pytest.fixture(scope="class")
def import_graph():
    return run_fresh(IMPORT_GRAPH_SCRIPT)


class TestImportGraph:
    # fresh interpreters, so no earlier test has imported scipy
    def test_numpy_random_loads_with_the_package(self, import_graph):
        # numpy 2 imports np.random on first use, which would put its import (about
        # 10 ms) inside the first replication instead of the package import
        assert import_graph["numpy_random"]

    def test_scipy_optimize_loads_only_for_residual_nuisance(self, import_graph):
        out = import_graph
        assert out["seen"] == {"import": False, "count_and_ou": False, "hawkes": False,
                               "residual": True}
        assert out["failures"] == 0
        assert out["nuisance"] == "inar_linear_variance"
        assert out["scipy_loaded"] == {"import": [], "count_and_ou": [], "hawkes": []}

    def test_process_pool_loads_only_for_jobs_above_one(self, import_graph):
        assert import_graph["pool"] == {"jobs1": False, "jobs2": True}

    @pytest.mark.parametrize("test_name", ["shapiro_wilk", "royston_test"])
    def test_scipy_special_loads_only_for_normality_tests(self, test_name):
        assert run_fresh(NORMALITY_IMPORT_SCRIPT, test_name) == {"before": False,
                                                                  "after": True}


class TestBenchmarkNames:
    def test_traced_names_resolve(self):
        # perfbench/tracing.py wraps functions by (module, name) and perfbench/oracle.py
        # reads system.unpenalized; loaded by path, without installing the wrappers
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for mod_name, attr, _, _ in tracing._WRAPS:
            module = importlib.import_module(f"sparseproc.{mod_name}")
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
        sys1 = LinearScoreSystem(gram=np.eye(2), moment=np.ones(2))
        assert sys1.unpenalized == ()


class TestBenchmarkSmoke:
    # hawkes_cv runs the traced CV and first step alone; case3_cv also the two-step
    # fit, its output checks and the HiGHS check of a count first-step LP; case4_rate
    # the rate lambda, with no CV, on p = 200 first-step LPs
    @pytest.mark.parametrize("workload", ["hawkes_cv", "case3_cv", "case4_rate"])
    def test_traced_run(self, tmp_path, workload):
        # a copy of perfbench/ over this checkout's src, so the run writes only under tmp_path
        root = Path(__file__).resolve().parents[1]
        shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        (tmp_path / "src").symlink_to(root / "src")
        proc = subprocess.run(
            [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
             workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True,
            text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True, proc.stderr
        assert result["failed"] == 0
        assert (tmp_path / "perfbench" / "out" / f"trace-{workload}-seed0.json").is_file()


INAR_SPEC = {"model": "inar", "mu_eps": 0.5, "alpha": [0.3, 0.2], "burn_in": 50}
OU_SPEC = {"model": "ou", "a_matrix": [[-1.0]], "sigma_diag": [1.0], "delta": 0.05,
           "n_steps": 50, "substeps": 2}
HAWKES_SPEC = {"model": "hawkes", "eta": 1.0, "kernel_breakpoints": [1.0],
               "kernel_values": [0.5], "horizon": 20.0}


class TestCli:
    def test_simulate_fit_cv_pipeline(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"model": "inar", "mu_eps": 0.5,
                                         "alpha": [0.3, 0.2, 0.2, 0.2, 0, 0, 0, 0, 0, 0],
                                         "burn_in": 200}))
        series = tmp_path / "series.csv"
        assert main(["simulate", "--config", str(spec_path), "--n", "600",
                     "--seed", "3", "--out", str(series)]) == 0
        fit_path = tmp_path / "fit.json"
        assert main(["fit", "--series", str(series), "--order", "10",
                     "--lambda", "0.15", "--out", str(fit_path)]) == 0
        fit = json.loads(fit_path.read_text())
        assert "support" in fit and fit["first_step"]["status"] == "optimal"
        cv_path = tmp_path / "cv.json"
        assert main(["cv", "--series", str(series), "--order", "10",
                     "--folds", "4", "--out", str(cv_path)]) == 0
        cv = json.loads(cv_path.read_text())
        assert cv["chosen_lambda"] > 0
        assert set(cv) == {f.name for f in dataclasses.fields(CvReport)}

    def test_experiment_and_artifacts(self, tmp_path):
        out = tmp_path / "report.json"
        hist = tmp_path / "hist.csv"
        per = tmp_path / "reps.csv"
        rc = main(["experiment", "--case", "case1", "--reps", "3", "--n", "500",
                   "--seed", "7", "--out", str(out), "--hist", str(hist),
                   "--per-rep", str(per)])
        assert rc == 0
        assert json.loads(out.read_text())["reps"] == 3
        assert hist.read_text().startswith("bin_left")
        assert len(list(csv.reader(per.read_text().splitlines()))) == 4

    def test_hawkes_support_verb(self, tmp_path):
        out = tmp_path / "hk.json"
        rc = main(["hawkes-support", "--reps", "2", "--n", "200", "--seed", "1",
                   "--jobs", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["tau_true"] == 1.0
        assert set(doc) == {f.name for f in dataclasses.fields(HawkesReport)}

    @pytest.mark.parametrize("argv", [
        ["experiment", "--case", "case1", "--reps", "2", "--n", "300"],
        ["hawkes-support", "--reps", "2", "--n", "200"],
    ])
    def test_default_seed(self, tmp_path, argv):
        # omitting --seed runs at the package default base seed
        default, pinned = tmp_path / "default.json", tmp_path / "pinned.json"
        assert main(argv + ["--out", str(default)]) == 0
        assert main(argv + ["--seed", "20240801", "--out", str(pinned)]) == 0
        assert json.loads(default.read_text())["failures"] == 0
        assert default.read_bytes() == pinned.read_bytes()

    @pytest.mark.parametrize("verb,case_id,flags", [
        (["experiment"], "case1", [["--n", "5000"], ["--tau", "0.2"], ["--lambda", "0.1"]]),
        (["hawkes-support"], "hawkes", [["--n", "500"], ["--tau", "0.2"]]),
    ], ids=["experiment", "hawkes-support"])
    def test_case_flags_rejected_next_to_config(self, tmp_path, capsys, verb, case_id, flags):
        # the config JSON fixes n, tau and lambda; a flag that would be ignored is an error
        config = tmp_path / "case.json"
        config.write_text(json.dumps(builtin_case(case_id, n=300, reps=1).to_dict()))
        out = tmp_path / "report.json"
        for flag in flags:
            assert main(verb + ["--config", str(config), *flag, "--out", str(out)]) == 2
            assert f"{flag[0]} cannot be combined with --config" in capsys.readouterr().err
        assert not out.exists()
        assert main(verb + ["--config", str(config), "--reps", "1", "--out", str(out)]) == 0

    @pytest.mark.parametrize("verb", [["experiment", "--case", "case1"], ["hawkes-support"]])
    def test_tau_default_and_override(self, tmp_path, verb):
        taus = []
        for extra in ([], ["--tau", "0.2"]):
            out = tmp_path / "report.json"
            assert main(verb + ["--reps", "1", "--n", "300", *extra, "--out", str(out)]) == 0
            taus.append(json.loads(out.read_text())["config"]["tau"])
        assert taus == [0.05, 0.2]

    def test_diffusion_fit_matches_library(self, tmp_path):
        spec_path = tmp_path / "ou.json"
        spec_path.write_text(json.dumps({"model": "ou", "a_matrix": [[-0.8, 0.3], [0.0, -0.6]],
                                         "sigma_diag": [1.0, 1.0], "delta": 0.05, "n_steps": 1500,
                                         "substeps": 5}))
        series = tmp_path / "ou.csv"
        assert main(["simulate", "--config", str(spec_path), "--seed", "4",
                     "--out", str(series)]) == 0
        out = tmp_path / "fit.json"
        assert main(["fit", "--series", str(series), "--model", "diffusion",
                     "--delta", "0.05", "--lambda", "0.1", "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        path = read_series_csv(series, kind="reals", delta=0.05)
        fit = two_step_fit(diffusion_design(path), 0.1, 0.05)
        assert got["support"] == list(fit.support.indices)
        assert got["theta_tilde"] == [[j, v] for j, v in enumerate(fit.theta_tilde.tolist())
                                      if v != 0.0]
        assert got["support"] and "selection_flag" not in got

    def test_delta_rejected_for_count_fit(self, tmp_path, capsys):
        # --delta is the sampling interval of a diffusion; a count fit would ignore it
        series = tmp_path / "s.csv"
        series.write_text("t,x1\n" + "".join(f"{k},{k % 3}\n" for k in range(-4, 60)))
        out = tmp_path / "fit.json"
        assert main(["fit", "--series", str(series), "--order", "4", "--delta", "0.1",
                     "--lambda", "0.1", "--out", str(out)]) == 2
        assert "--delta applies to --model diffusion only" in capsys.readouterr().err
        assert not out.exists()
        assert main(["fit", "--series", str(series), "--order", "4", "--lambda", "0.1",
                     "--out", str(out)]) == 0

    def test_order_rejected_for_diffusion_fit(self, tmp_path, capsys):
        # a diffusion fit regresses on the whole previous state and has no lag order
        series = tmp_path / "ou.csv"
        series.write_text("t,x1,x2\n" + "".join(f"{k},{k % 3},{k % 5}\n" for k in range(40)))
        out = tmp_path / "fit.json"
        assert main(["fit", "--series", str(series), "--model", "diffusion", "--order", "3",
                     "--delta", "0.05", "--lambda", "0.1", "--out", str(out)]) == 2
        assert "--order applies to count fits only" in capsys.readouterr().err
        assert not out.exists()
        assert main(["fit", "--series", str(series), "--model", "diffusion",
                     "--delta", "0.05", "--lambda", "0.1", "--out", str(out)]) == 0

    @pytest.mark.parametrize("verb", [["experiment", "--case", "case1"], ["hawkes-support"]])
    def test_zero_reps_exit_code(self, tmp_path, capsys, verb):
        out = tmp_path / "report.json"
        assert main(verb + ["--reps", "0", "--n", "200", "--out", str(out)]) == 2
        assert "reps must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    @pytest.mark.parametrize("verb", [["experiment", "--case", "case1"], ["hawkes-support"]])
    def test_jobs_below_one_exit_code(self, tmp_path, capsys, verb, jobs):
        out = tmp_path / "report.json"
        assert main(verb + ["--reps", "2", "--n", "300", "--jobs", jobs,
                            "--out", str(out)]) == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_uncertified_fit_exit_code(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"model": "inar", "mu_eps": 0.5,
                                         "alpha": [0.3, 0.2, 0.2, 0.2, 0, 0, 0, 0, 0, 0],
                                         "burn_in": 200}))
        series = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(spec_path), "--n", "400",
                     "--seed", "2", "--out", str(series)]) == 0
        monkeypatch.setattr(dantzig, "_PIVOTS_PER_DIM", 0)  # every LP ends at the limit
        rc = main(["fit", "--series", str(series), "--order", "10", "--lambda", "0.01",
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 3

    @pytest.mark.parametrize("argv,rep_fn", [
        (["experiment", "--case", "case1", "--reps", "3", "--n", "500"], "_case_rep"),
        (["hawkes-support", "--reps", "3", "--n", "200"], "_hawkes_rep"),
    ])
    def test_failed_reps_exit_code(self, tmp_path, monkeypatch, capsys, argv, rep_fn):
        real = getattr(harness, rep_fn)

        def flaky(config, rep):
            if rep == 2:
                raise RankError("synthetic failure")
            return real(config, rep)

        monkeypatch.setattr(harness, rep_fn, flaky)
        out = tmp_path / "report.json"
        assert main(argv + ["--seed", "7", "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        assert report["failures"] == 1
        assert [r["failed"] for r in report["per_rep"]] == [False, True, False]
        assert capsys.readouterr().err == "1 of 3 replications failed with RankError\n"

    def test_finfty_verb(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"model": "inar", "mu_eps": 1.0, "alpha": [0.4, 0.2],
                                         "burn_in": 100}))
        series = tmp_path / "s.csv"
        main(["simulate", "--config", str(spec_path), "--n", "500",
              "--seed", "2", "--out", str(series)])
        out = tmp_path / "f.json"
        rc = main(["finfty", "--series", str(series), "--order", "2",
                   "--support", "0,1", "--samples", "500", "--out", str(out)])
        assert rc == 0
        est = json.loads(out.read_text())
        assert est["value"] > 0 and est["support"] == [0, 1]
        assert set(est) == {f.name for f in dataclasses.fields(FInftyEstimate)}

    def test_non_finite_lambda_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"model": "inar", "mu_eps": 0.5, "alpha": [0.4, 0.2],
                                         "burn_in": 100}))
        series = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(spec_path), "--n", "300",
                     "--seed", "2", "--out", str(series)]) == 0
        rc = main(["fit", "--series", str(series), "--order", "2", "--lambda", "nan",
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_tau_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"model": "inar", "mu_eps": 0.5, "alpha": [0.4, 0.2],
                                         "burn_in": 100}))
        series = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(spec_path), "--n", "300",
                     "--seed", "2", "--out", str(series)]) == 0
        out = tmp_path / "fit.json"
        rc = main(["fit", "--series", str(series), "--order", "2", "--lambda", "0.1",
                   "--tau", "nan", "--out", str(out)])
        assert rc == 2
        assert "tau" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,row,message", [
        (["--order", "2"], "2,inf", "series values and lag buffer must be finite"),
        (["--model", "diffusion", "--delta", "nan"], "2,1.5",
         "delta must be a finite number > 0, got nan"),
    ], ids=["inf_count", "nan_delta"])
    def test_non_finite_series_exit_code(self, tmp_path, capsys, argv, row, message):
        series = tmp_path / "s.csv"
        series.write_text("t,x1\n" + "".join(f"{k},{k % 3}\n" for k in range(-2, 40))
                          + row + "\n")
        out = tmp_path / "fit.json"
        rc = main(["fit", "--series", str(series), "--lambda", "0.1", *argv,
                   "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb,case_id,changes,message", [
        (["experiment"], "case3", {"target": 500}, "target must lie in [0, 100)"),
        (["experiment"], "ou", {"target": 16}, "target must lie in [0, 16)"),
        (["experiment"], "case1", {"support_true": [0, 50]}, "support_true must lie in [0, 10)"),
        (["experiment"], "case1", {"theta_true": [0.5, 0.3]}, "theta_true must hold the 11"),
        (["experiment"], "case1", {"cv_grid": [0.5, 0.1]}, "cv grid must be sorted ascending"),
        (["hawkes-support"], "hawkes", {"hawkes_bin_delta": None},
         "hawkes_bin_delta must be a finite number > 0, got None"),
        (["experiment"], "case1", {"tau": True}, "tau must be a finite number >= 0, got True"),
        (["hawkes-support"], "hawkes", {"cv_folds": 1}, "cv folds must be >= 2, got 1"),
    ])
    def test_bad_config_json_exit_code(self, tmp_path, capsys, monkeypatch, verb, case_id,
                                       changes, message):
        # the config is rejected before any replication runs
        def no_rep(config, rep):
            raise AssertionError("a replication ran")
        monkeypatch.setattr(harness, "_case_rep", no_rep)
        monkeypatch.setattr(harness, "_hawkes_rep", no_rep)
        config = tmp_path / "case.json"
        config.write_text(json.dumps(dict(builtin_case(case_id, n=300, reps=1).to_dict(),
                                          **changes)))
        out = tmp_path / "report.json"
        assert main(verb + ["--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["fit", "--lambda", "0.1"], ["cv"],
                                      ["finfty", "--support", "0"]])
    def test_empty_series_csv_exit_code(self, tmp_path, capsys, verb):
        series = tmp_path / "empty.csv"
        series.write_text("")
        assert main([verb[0], "--series", str(series), *verb[1:]]) == 2
        assert ("configuration error: series CSV must start with a 't' header column"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("support", ["-1", "0,0", "9"])
    def test_finfty_bad_support_exit_code(self, tmp_path, capsys, support):
        series = tmp_path / "s.csv"
        series.write_text("t,x1\n" + "".join(f"{k},{k % 3}\n" for k in range(-4, 60)))
        out = tmp_path / "f.json"
        assert main(["finfty", "--series", str(series), "--order", "4", "--support",
                     support, "--samples", "10", "--out", str(out)]) == 2
        assert "support must hold distinct indices in [0, 4)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.1,0.5", "0.1,0.5,2.5", "a,b,c", "0,1,5", "",
                                      "0.1,inf,5", "-0.5,-0.1,3", "0.1,0.5,0", "1,2,3,4",
                                      "0.5,0.01,5"])
    def test_cv_grid_that_does_not_parse_names_the_flag(self, tmp_path, capsys, grid):
        series = tmp_path / "s.csv"
        series.write_text("t,x1\n" + "".join(f"{k},{k % 3}\n" for k in range(-2, 40)))
        out = tmp_path / "cv.json"
        assert main(["cv", "--series", str(series), "--order", "2", f"--grid={grid}",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: --grid takes lo,hi,num: lo <= hi finite numbers > 0 and "
            f"num an integer >= 1, got {grid!r}\n")
        assert not out.exists()

    def test_cv_grid_that_parses_is_the_cv_grid(self, tmp_path):
        series = tmp_path / "s.csv"
        series.write_text("t,x1\n" + "".join(f"{k},{k % 3}\n" for k in range(-2, 40)))
        out = tmp_path / "cv.json"
        assert main(["cv", "--series", str(series), "--order", "2", "--grid", "0.01,0.5,4",
                     "--folds", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["grid"] == np.geomspace(0.01, 0.5, 4).tolist()

    def test_config_error_exit_code(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": "inar", "mu_eps": 0.5, "alpha": [0.9, 0.9]}))
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_numeric_error_exit_code(self, tmp_path):
        # constant diffusion path -> degenerate quadratic variation
        series = tmp_path / "flat.csv"
        with open(series, "w") as fh:
            fh.write("t,x1\n")
            for k in range(20):
                fh.write(f"{k * 0.1},1.0\n")
        rc = main(["fit", "--series", str(series), "--model", "diffusion",
                   "--delta", "0.1", "--lambda", "0.1"])
        assert rc == 3

    @pytest.mark.parametrize("error,rc", [
        (errors.NumericError, 3), (errors.DomainError, 3), (errors.NuisanceError, 3),
        (errors.RankError, 3), (errors.DegenerateVarianceError, 3),
        (errors.UncertifiedFitError, 3), (errors.StationarityError, 2),
    ])
    def test_error_class_picks_the_exit_code(self, tmp_path, monkeypatch, capsys, error, rc):
        series = tmp_path / "s.csv"
        series.write_text("t,x1\n" + "".join(f"{k},{k % 3}\n" for k in range(-4, 60)))

        def failing(*args, **kwargs):
            raise error("synthetic")

        monkeypatch.setattr(cli, "two_step_fit", failing)
        assert main(["fit", "--series", str(series), "--order", "4",
                     "--lambda", "0.1"]) == rc
        kind = "numeric failure" if rc == 3 else "configuration error"
        assert capsys.readouterr().err == f"{kind}: synthetic\n"

    @pytest.mark.parametrize("verb", [["fit", "--lambda", "0.1"], ["cv", "--folds", "4"],
                                      ["finfty", "--support", "0,1", "--samples", "50"]],
                             ids=["fit", "cv", "finfty"])
    def test_count_csv_without_lag_rows(self, tmp_path, verb):
        # with no negative-t rows, the first --order rows supply the lags: the output is
        # that of the same rows with those made lag rows
        counts = np.random.default_rng(3).poisson(2.0, size=80)
        plain, lagged = tmp_path / "plain.csv", tmp_path / "lagged.csv"
        plain.write_text("t,x1\n" + "".join(f"{k + 1},{x}\n" for k, x in enumerate(counts)))
        lagged.write_text("t,x1\n" + "".join(f"{k - 4 if k < 4 else k - 3},{x}\n"
                                             for k, x in enumerate(counts)))
        for series in (plain, lagged):
            assert main([verb[0], "--series", str(series), "--order", "4", *verb[1:],
                         "--out", str(series.with_suffix(".json"))]) == 0
        assert plain.with_suffix(".json").read_text() == lagged.with_suffix(".json").read_text()

    def test_binned_hawkes_csv_gives_the_replication_lambda(self, tmp_path):
        # simulate --bin-delta writes no lag rows; cv --order 20 on it chooses the lambda of
        # the hawkes replication drawn from the same seed, and fit and finfty take it too
        cfg = builtin_case("hawkes", reps=1)
        spec, series, out = tmp_path / "spec.json", tmp_path / "bins.csv", tmp_path / "o.json"
        spec.write_text(json.dumps(spec_to_dict(cfg.model)))
        assert main(["simulate", "--config", str(spec), "--seed",
                     str(derive_seed(20240801, 1)), "--bin-delta", "0.1",
                     "--out", str(series)]) == 0
        assert read_series_csv(series).lag_rows == 0
        assert main(["cv", "--series", str(series), "--order", "20", "--out", str(out)]) == 0
        lam = json.loads(out.read_text())["chosen_lambda"]
        assert lam == run_hawkes_support(cfg).per_rep[0]["lambda"]
        assert main(["fit", "--series", str(series), "--order", "20", "--lambda", repr(lam),
                     "--out", str(out)]) == 0
        assert main(["finfty", "--series", str(series), "--order", "20", "--support", "0,1",
                     "--samples", "20", "--out", str(out)]) == 0

    def test_fit_writes_the_two_step_document(self, tmp_path):
        series = tmp_path / "s.csv"
        series.write_text("t,x1\n" + "".join(f"{k},{k % 3}\n" for k in range(-4, 60)))
        out = tmp_path / "fit.json"
        assert main(["fit", "--series", str(series), "--order", "4", "--lambda", "0.1",
                     "--out", str(out)]) == 0
        fit = two_step_fit(center_lags(read_series_csv(series), 4), 0.1, 0.05)
        assert out.read_text() == report_to_json(twostep.two_step_to_dict(fit))

    def test_experiment_lambda_runs_fixed(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["experiment", "--case", "case1", "--reps", "2", "--n", "300",
                     "--lambda", "0.0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["lambda_mode"] == "fixed"
        assert [r["lambda"] for r in report["per_rep"]] == [0.0, 0.0]

    def test_case_flags_shared_by_both_verbs(self):
        parser = build_parser()
        shared = ["--config", "c.json", "--reps", "3", "--n", "400", "--seed", "5",
                  "--tau", "0.1", "--jobs", "2", "--out", "r.json"]
        expected = {"config": "c.json", "reps": 3, "n": 400, "seed": 5, "tau": 0.1,
                    "jobs": 2, "out": "r.json"}
        defaults = {"config": None, "reps": None, "n": None, "seed": None, "tau": None,
                    "jobs": 1, "out": None}
        for verb in ("experiment", "hawkes-support"):
            given = vars(parser.parse_args([verb, *shared]))
            unset = vars(parser.parse_args([verb]))
            assert {k: given[k] for k in expected} == expected
            assert {k: unset[k] for k in defaults} == defaults

    @pytest.mark.parametrize("spec,flag,message", [
        (OU_SPEC, ["--n", "5"], "--n applies to count specs only"),
        (HAWKES_SPEC, ["--n", "5"], "--n applies to count specs only"),
        (INAR_SPEC, ["--bin-delta", "0.5"], "--bin-delta applies to Hawkes specs only"),
        (OU_SPEC, ["--bin-delta", "0.5"], "--bin-delta applies to Hawkes specs only"),
        (HAWKES_SPEC, ["--bin-delta", "0"], "delta must be a finite number > 0, got 0.0"),
    ], ids=["ou-n", "hawkes-n", "inar-bin-delta", "ou-bin-delta", "hawkes-bin-delta-0"])
    def test_simulate_rejects_a_flag_the_spec_ignores(self, tmp_path, capsys, spec, flag,
                                                      message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(spec_path), *flag, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert main(["simulate", "--config", str(spec_path), "--out", str(out)]) == 0

    def test_simulate_lengths(self, tmp_path):
        spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec_path.write_text(json.dumps(INAR_SPEC))
        assert main(["simulate", "--config", str(spec_path), "--out", str(out)]) == 0
        assert read_series_csv(out).n == 1000  # the count default
        spec_path.write_text(json.dumps(OU_SPEC))
        assert main(["simulate", "--config", str(spec_path), "--out", str(out)]) == 0
        assert read_series_csv(out, kind="reals").n == OU_SPEC["n_steps"] + 1
        spec_path.write_text(json.dumps(HAWKES_SPEC))
        assert main(["simulate", "--config", str(spec_path), "--bin-delta", "0.5",
                     "--out", str(out)]) == 0
        assert read_series_csv(out).n == 40

    @pytest.mark.parametrize("spec,flags", [(INAR_SPEC, ["--n", "30"]), (OU_SPEC, []),
                                            (HAWKES_SPEC, ["--bin-delta", "0.5"])],
                             ids=["counts", "ou", "binned-hawkes"])
    def test_simulate_without_out_writes_stdout(self, tmp_path, capsysbinary, spec, flags):
        # a series CSV goes to stdout without --out, as Hawkes events do, byte for byte
        spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec_path.write_text(json.dumps(spec))
        argv = ["simulate", "--config", str(spec_path), "--seed", "4", *flags]
        assert main(argv + ["--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()
        assert out.read_bytes().startswith(b"t,x1")

    @pytest.mark.parametrize("spec,field,bound", [
        (INAR_SPEC, "mu_eps", ">="), (OU_SPEC, "delta", ">"), (HAWKES_SPEC, "eta", ">"),
        (HAWKES_SPEC, "horizon", ">"),
    ])
    def test_simulate_bool_spec_field_exit_code(self, tmp_path, capsys, spec, field, bound):
        spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec_path.write_text(json.dumps(dict(spec, **{field: True})))
        assert main(["simulate", "--config", str(spec_path), "--out", str(out)]) == 2
        assert (f"configuration error: {field} must be a finite number {bound} 0, got True"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bad_bins_rejected_before_the_run(self, tmp_path, capsys, monkeypatch, bins):
        def no_rep(config, rep):
            raise AssertionError("a replication ran")
        monkeypatch.setattr(harness, "_case_rep", no_rep)
        out, hist = tmp_path / "r.json", tmp_path / "h.csv"
        assert main(["experiment", "--case", "case1", "--reps", "20", "--out", str(out),
                     "--hist", str(hist), "--bins", bins]) == 2
        assert f"configuration error: bins must be >= 1, got {bins}" in capsys.readouterr().err
        assert not out.exists() and not hist.exists()


_COUNTS = SeriesSample(np.arange(12.0) % 3, lag_rows=2)
_PATH = SeriesSample(np.column_stack([np.sin(np.arange(8.0)), np.cos(np.arange(8.0))]),
                     delta=0.1, kind="reals")
# entry point: (integer argument, call with that argument and an output path)
INTEGER_ENTRY_POINTS = {
    "simulate_inar": ("n", lambda v, path: simulate_inar(InarSpec(0.5, [0.3]), v, 0)),
    "simulate_minar1": ("n", lambda v, path: simulate_minar1(Minar1Spec([0.5], [[0.3]]), v, 0)),
    "run_case": ("jobs", lambda v, path: run_case(builtin_case("case1", n=300, reps=1), v)),
    "run_hawkes_support": ("jobs", lambda v, path: run_hawkes_support(
        builtin_case("hawkes", n=50, reps=1), v)),
    "emit_histogram": ("bins", lambda v, path: emit_histogram([0.1, 0.2], v, path)),
    "center_lags-order": ("order", lambda v, path: center_lags(_COUNTS, v)),
    "center_lags-target": ("target", lambda v, path: center_lags(_COUNTS, 1, target=v)),
    "diffusion_design": ("target", lambda v, path: diffusion_design(_PATH, target=v)),
    "estimate_f_infinity": ("n_samples", lambda v, path: estimate_f_infinity(
        np.eye(2), [0], v, 0)),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
@pytest.mark.parametrize("value", [True, 2.5])
def test_integer_arguments_rejected(tmp_path, entry, value):
    # each takes its integer argument through as_int before its range check: True used
    # to run as 1 (or index a column) and 2.5 to fail inside numpy
    name, call = INTEGER_ENTRY_POINTS[entry]
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        call(value, path)
    assert not path.exists()


def test_readme_python_examples_run(capsys):
    # each ```python block of README.md runs as written, in a fresh namespace
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
