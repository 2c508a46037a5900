"""Diagnostics tests: compatibility factor, normality tests, metric records."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from sparseproc import diagnostics
from sparseproc.diagnostics import (estimate_f_infinity, royston_test,
                                    selection_and_errors, shapiro_wilk)
from sparseproc.errors import DegenerateVarianceError
from sparseproc.scores import build_inar_score
from sparseproc.simulate import InarSpec, simulate_inar

CASE1_ALPHA = np.array([0.3, 0.2, 0.2, 0.2, 0, 0, 0, 0, 0, 0])


class TestFInfinity:
    def test_zero_matrix(self):
        est = estimate_f_infinity(np.zeros((3, 3)), [0, 1], 200, seed=0)
        assert est.value == 0.0

    def test_identity_p2_matches_grid(self):
        samp = estimate_f_infinity(np.eye(2), [0], 3000, seed=1)
        grid = estimate_f_infinity(np.eye(2), [0], 1, seed=1, method="grid_oracle")
        assert abs(grid.value - 1.0) < 1e-6
        assert abs(samp.value - 1.0) < 0.02

    def test_sampling_upper_bounds_grid_p3(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 3))
        gram = m.T @ m / 5
        grid = estimate_f_infinity(gram, [0, 2], 1, seed=0, method="grid_oracle")
        samp = estimate_f_infinity(gram, [0, 2], 5000, seed=5)
        # both are upper bounds on the true infimum; the polished sample may
        # undercut the finite-resolution grid by its discretization error
        assert samp.value >= grid.value * (1 - 1e-3)
        assert samp.value < grid.value * 1.3 + 1e-6

    def test_case1_gram_positive_and_seed_stable(self):
        spec = InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA)
        sample = simulate_inar(spec, 20_000, seed=3)
        sys = build_inar_score(sample, order=10)
        vals = [estimate_f_infinity(sys.gram, [0, 1, 2, 3], 4000, seed=s).value
                for s in range(4)]
        vals = np.array(vals)
        assert np.all(vals > 0)
        assert vals.max() - vals.min() < 0.1 * vals.mean()

    def test_running_minimum_monotone(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_REFINE_ROUNDS", 0)
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 4))
        gram = m.T @ m / 6
        vals = [estimate_f_infinity(gram, [0, 1], n, seed=9).value
                for n in (10, 100, 1000, 5000)]
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 4))
        gram = m.T @ m / 6
        base = estimate_f_infinity(gram, [0, 3], 500, seed=11).value
        scaled = estimate_f_infinity(2.5 * gram, [0, 3], 500, seed=11).value
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_grid_oracle_dimension_limit(self):
        with pytest.raises(ValueError, match="p <= 3"):
            estimate_f_infinity(np.eye(4), [0], 1, seed=0, method="grid_oracle")

    @pytest.mark.parametrize("support", [[-1], [0, 0], [4], [1, 4], []])
    @pytest.mark.parametrize("method", ["cone_sampling", "grid_oracle"])
    def test_bad_support_rejected(self, support, method):
        # -1 would put coordinate 3 in both T and its complement; 0,0 counts 0 twice
        with pytest.raises(ValueError, match="support"):
            estimate_f_infinity(np.eye(4), support, 10, seed=0, method=method)

    @pytest.mark.parametrize("m, message", [
        ([[np.nan, 0.0], [0.0, 1.0]], "m must be finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "m must be finite"),
        (np.ones((2, 3)), "m must be a square matrix"),
        (np.ones(4), "m must be a square matrix"),
    ])
    @pytest.mark.parametrize("method", ["cone_sampling", "grid_oracle"])
    def test_matrix_it_cannot_bound_rejected(self, m, message, method):
        with pytest.raises(ValueError, match=message):
            estimate_f_infinity(np.array(m), [0], 50, seed=0, method=method)


class TestShapiroWilk:
    def test_normal_scores_high_w(self):
        q = stats.norm.ppf((np.arange(1, 51) - 0.5) / 50)
        rep = shapiro_wilk(3.0 * q + 1.0)
        assert rep.statistic >= 0.99

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(8)
        for n in (3, 6, 11, 12, 40, 300, 2000):
            x = rng.standard_normal(n)
            ours = shapiro_wilk(x)
            ref = stats.shapiro(x)
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-6)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-5)

    def test_null_calibration(self):
        rejections = 0
        reps = 400
        for r in range(reps):
            x = np.random.default_rng(r).standard_normal(500)
            if shapiro_wilk(x).p_value < 0.05:
                rejections += 1
        assert 0.02 <= rejections / reps <= 0.09

    def test_exponential_power(self):
        rejections = sum(
            shapiro_wilk(np.random.default_rng(r).exponential(size=500)).p_value < 0.05
            for r in range(100))
        assert rejections >= 95

    def test_pvalues_uniform_under_null(self):
        ps = np.array([shapiro_wilk(np.random.default_rng(10_000 + r).standard_normal(200)).p_value
                       for r in range(1000)])
        d = stats.kstest(ps, "uniform").statistic
        assert d <= 0.08

    def test_range_and_degeneracy(self):
        with pytest.raises(ValueError):
            shapiro_wilk(np.ones(2))
        with pytest.raises(ValueError):
            shapiro_wilk(np.zeros(5001))
        with pytest.raises(DegenerateVarianceError):
            shapiro_wilk(np.full(10, 3.14))


class TestRoyston:
    def test_null_calibration(self):
        rejections = 0
        reps = 300
        for r in range(reps):
            x = np.random.default_rng(r).standard_normal((500, 4))
            if royston_test(x).p_value < 0.05:
                rejections += 1
        assert 0.02 <= rejections / reps <= 0.09

    def test_exponential_power(self):
        rejections = sum(
            royston_test(np.random.default_rng(r).exponential(size=(500, 4))).p_value < 0.05
            for r in range(60))
        assert rejections >= 54  # >= 0.9 power

    def test_correlated_normals_still_calibrated(self):
        cov = 0.6 * np.ones((3, 3)) + 0.4 * np.eye(3)
        chol = np.linalg.cholesky(cov)
        rejections = 0
        for r in range(200):
            z = np.random.default_rng(r).standard_normal((400, 3)) @ chol.T
            if royston_test(z).p_value < 0.05:
                rejections += 1
        assert rejections / 200 <= 0.1

    def test_perfect_correlation_rejected(self):
        x = np.random.default_rng(0).standard_normal(100)
        with pytest.raises(DegenerateVarianceError):
            royston_test(np.column_stack([x, 2 * x]))

    def test_dimension_requirements(self):
        with pytest.raises(ValueError):
            royston_test(np.random.default_rng(0).standard_normal(50))
        with pytest.raises(ValueError):
            royston_test(np.random.default_rng(0).standard_normal((3, 2)))


class TestSelectionAndErrors:
    def test_exact_match(self):
        rec = selection_and_errors(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                                   [0, 1], [0, 1])
        assert rec == {"linf": 0.0, "l2": 0.0, "exact": True}

    def test_single_coordinate_offset(self):
        est = np.array([0.0, 0.1, 0.0])
        rec = selection_and_errors(est, np.zeros(3), [1], [1])
        assert rec["linf"] == pytest.approx(0.1)
        assert rec["l2"] == pytest.approx(0.1)
        assert rec["exact"] is True

    def test_support_mismatch_flag(self):
        rec = selection_and_errors(np.zeros(3), np.zeros(3), [0], [0, 1])
        assert rec["exact"] is False

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        est, tru = rng.standard_normal(6), rng.standard_normal(6)
        perm = rng.permutation(6)
        a = selection_and_errors(est, tru, [], [])
        b = selection_and_errors(est[perm], tru[perm], [], [])
        assert a["linf"] == pytest.approx(b["linf"])
        assert a["l2"] == pytest.approx(b["l2"])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            selection_and_errors(np.zeros(3), np.zeros(4), [], [])
