"""LP solver tests: exactness against a vertex-enumeration oracle, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from oracles import bruteforce_l1min, highs_l1min

from sparseproc import dantzig, harness
from sparseproc.dantzig import (cross_validate_lambda, default_lambda_grid,
                                solve_dantzig, threshold_support)
from sparseproc.errors import UncertifiedFitError
from sparseproc.scores import LinearScoreSystem, build_regression_score
from sparseproc.simulate import InarSpec, simulate_inar
from sparseproc.scores import lagged_design


def random_system(rng, p):
    m = rng.standard_normal((p + 2, p))
    gram = m.T @ m / (p + 2)
    return LinearScoreSystem(gram=gram, moment=rng.standard_normal(p), n_eff=10)


class TestSolveDantzig:
    def test_origin_feasible_gives_zero(self):
        sys = LinearScoreSystem(gram=np.eye(3), moment=np.array([0.5, -0.2, 0.1]),
                                n_eff=5)
        fit = solve_dantzig(sys, lam=0.5)
        assert fit.status == "optimal"
        assert_array_equal(fit.theta_hat, np.zeros(3))
        assert fit.l1_objective == 0.0
        assert fit.iterations == 0

    def test_zero_lambda_unique_point(self):
        sys = LinearScoreSystem(gram=np.eye(2), moment=np.array([1.0, -2.0]), n_eff=5)
        fit = solve_dantzig(sys, lam=0.0)
        assert fit.status == "optimal"
        assert_allclose(fit.theta_hat, [1.0, -2.0], atol=1e-9)
        assert fit.feasibility_slack >= -1e-8

    def test_p2_example_against_oracle(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, 1.0])
        sys = LinearScoreSystem(gram=a, moment=b, n_eff=5)
        fit = solve_dantzig(sys, lam=0.25)
        oracle, _ = bruteforce_l1min(a, b, 0.25)
        assert abs(fit.l1_objective - oracle) < 1e-6

    def test_oracle_equivalence_random_instances(self):
        # 100 random instances with p <= 4: objective matches enumeration
        rng = np.random.default_rng(20240810)
        for trial in range(100):
            p = int(rng.integers(1, 5))
            sys = random_system(rng, p)
            lam = float(rng.uniform(0.0, 1.2) * np.abs(sys.moment).max())
            fit = solve_dantzig(sys, lam)
            oracle, feasible = bruteforce_l1min(sys.gram, sys.moment, lam)
            assert feasible and fit.status == "optimal"
            assert abs(fit.l1_objective - oracle) < 1e-6, f"trial {trial}"
            assert fit.feasibility_slack >= -1e-8

    def test_free_coordinate_oracle_equivalence(self):
        # one coordinate carries no l1 cost: objective matches enumeration
        rng = np.random.default_rng(20240811)
        cheaper = 0
        for trial in range(100):
            p = int(rng.integers(1, 5))
            base = random_system(rng, p)
            free = (int(rng.integers(0, p)),)
            sys = LinearScoreSystem(gram=base.gram, moment=base.moment, n_eff=10,
                                    unpenalized=free)
            lam = float(rng.uniform(0.0, 1.2) * np.abs(sys.moment).max())
            fit = solve_dantzig(sys, lam)
            oracle, feasible = bruteforce_l1min(sys.gram, sys.moment, lam, free)
            assert feasible and fit.status == "optimal"
            assert abs(fit.l1_objective - oracle) < 1e-6, f"trial {trial}"
            assert fit.feasibility_slack >= -1e-8
            cheaper += oracle < bruteforce_l1min(sys.gram, sys.moment, lam)[0] - 1e-6
        assert cheaper > 0  # freeing a coordinate matters on some instances

    def test_infeasible_detected(self):
        # singular gram with moment outside its range
        sys = LinearScoreSystem(gram=np.array([[1.0, 0.0], [0.0, 0.0]]),
                                moment=np.array([0.0, 1.0]), n_eff=5)
        fit = solve_dantzig(sys, lam=0.5)
        assert fit.status == "infeasible"

    def test_iteration_limit(self):
        rng = np.random.default_rng(3)
        sys = random_system(rng, 6)
        fit = solve_dantzig(sys, lam=0.01 * np.abs(sys.moment).max(), max_iter=1)
        assert fit.status == "iteration_limit"

    def test_negative_lambda_rejected(self):
        sys = LinearScoreSystem(gram=np.eye(2), moment=np.ones(2), n_eff=5)
        with pytest.raises(ValueError):
            solve_dantzig(sys, -0.1)

    def test_minimality_against_feasible_points(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = int(rng.integers(2, 6))
            sys = random_system(rng, p)
            lam = float(rng.uniform(0.2, 1.0) * np.abs(sys.moment).max())
            fit = solve_dantzig(sys, lam)
            # least-squares point is feasible (residual zero)
            ls = np.linalg.solve(sys.gram, sys.moment)
            if np.abs(sys.moment - sys.gram @ ls).max() <= lam:
                assert fit.l1_objective <= np.abs(ls).sum() + 1e-8
            # random perturbations of the fit that stay feasible
            for _ in range(10):
                cand = fit.theta_hat + 0.1 * rng.standard_normal(p)
                if np.abs(sys.moment - sys.gram @ cand).max() <= lam:
                    assert fit.l1_objective <= np.abs(cand).sum() + 1e-8

    def test_l1_monotone_in_lambda(self):
        rng = np.random.default_rng(13)
        sys = random_system(rng, 5)
        lams = np.linspace(0.0, np.abs(sys.moment).max(), 12)
        objs = [solve_dantzig(sys, lam).l1_objective for lam in lams]
        assert all(objs[i] >= objs[i + 1] - 1e-9 for i in range(len(objs) - 1))

    def test_deterministic_vertex(self):
        rng = np.random.default_rng(17)
        sys = random_system(rng, 8)
        lam = 0.3 * np.abs(sys.moment).max()
        a = solve_dantzig(sys, lam)
        b = solve_dantzig(sys, lam)
        assert_array_equal(a.theta_hat, b.theta_hat)
        assert a.iterations == b.iterations

    def test_objective_equals_l1_of_theta(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            sys = random_system(rng, 4)
            fit = solve_dantzig(sys, 0.2 * np.abs(sys.moment).max())
            assert abs(fit.l1_objective - np.abs(fit.theta_hat).sum()) < 1e-10


@pytest.fixture(scope="module", params=["case3", "case4"])
def experiment_systems(request):
    """Centered and raw first-step systems of one case3 (p=100) or case4 (p=200) series."""
    cfg = harness.builtin_case(request.param, reps=1, lambda_mode="rate")
    sample = harness.simulate_series(cfg.model, cfg.n,
                                     harness.derive_seed(cfg.base_seed, 0))
    design, response = lagged_design(sample, 1, cfg.target)
    zc = design[:, 1:] - design[:, 1:].mean(axis=0)
    centered = build_regression_score(zc, response - response.mean())
    raw = build_regression_score(design, response)
    rate = cfg.rate_c * float(np.sqrt(np.log(cfg.p) / response.size))
    return centered, raw, rate


class TestHighsOracleAtExperimentDimensions:
    """Objective and feasibility against HiGHS on the systems the experiments solve."""

    @staticmethod
    def check(sys, lam):
        fit = solve_dantzig(sys, lam)
        scale = max(1.0, float(np.abs(sys.gram).max()), float(np.abs(sys.moment).max()))
        oracle = highs_l1min(sys.gram, sys.moment, lam, sys.unpenalized)
        assert fit.status == "optimal"
        assert fit.feasibility_slack >= -1e-8 * scale
        assert abs(fit.l1_objective - oracle) <= 1e-6 * max(1.0, oracle)

    @pytest.mark.parametrize("where", ["smallest", "middle", "largest", "rate"])
    def test_centered_system(self, experiment_systems, where):
        centered, _, rate = experiment_systems
        grid = default_lambda_grid(centered.moment)
        lam = {"smallest": grid[0], "middle": grid[grid.size // 2],
               "largest": grid[-1], "rate": rate}[where]
        self.check(centered, lam)

    def test_raw_system_free_intercept(self, experiment_systems):
        _, raw, rate = experiment_systems
        assert raw.unpenalized == (0,)
        self.check(raw, rate)


class TestThresholdSupport:
    def test_zero_vector_empty(self):
        fit = solve_dantzig(LinearScoreSystem(gram=np.eye(2), moment=np.zeros(2),
                                              n_eff=2), 1.0)
        assert threshold_support(fit, 0.05).indices == ()

    def test_strict_inequality(self):
        from sparseproc.dantzig import DantzigFit
        fit = DantzigFit(theta_hat=np.array([0.3, 0.05, -0.2]), lam=0.1,
                         l1_objective=0.55, feasibility_slack=0.0,
                         iterations=0, status="optimal")
        assert threshold_support(fit, 0.05).indices == (0, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=8),
           st.floats(0, 0.5))
    def test_membership_characterization(self, theta, tau):
        from sparseproc.dantzig import DantzigFit
        theta = np.array(theta)
        fit = DantzigFit(theta_hat=theta, lam=0.1, l1_objective=float(np.abs(theta).sum()),
                         feasibility_slack=0.0, iterations=0, status="optimal")
        sel = set(threshold_support(fit, tau).indices)
        for j in range(theta.size):
            assert (j in sel) == (abs(theta[j]) > tau)


class TestRawPipelineSelection:
    def test_raw_fit_recovers_intercept_and_lags(self):
        # uncentered design: the true support is {0,..,4} (intercept + 4 lags)
        spec = InarSpec(mu_eps=0.5,
                        alpha=np.array([0.3, 0.2, 0.2, 0.2] + [0.0] * 6))
        hits = 0
        reps = 20
        for r in range(reps):
            sample = simulate_inar(spec, 2000, seed=3300 + r)
            sys = build_regression_score(*lagged_design(sample, 10))
            fit = solve_dantzig(sys, 0.12)
            if set(threshold_support(fit, 0.05).indices) == {0, 1, 2, 3, 4}:
                hits += 1
        assert hits >= 0.7 * reps


class TestCrossValidation:
    def test_single_grid_element(self):
        rng = np.random.default_rng(23)
        z = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
        y = rng.standard_normal(60)
        report = cross_validate_lambda(z, y, [0.37], folds=3)
        assert report.chosen_lambda == 0.37
        assert report.cv_loss.shape == (1,)

    def test_grid_validation(self):
        z = np.ones((30, 2))
        y = np.zeros(30)
        with pytest.raises(ValueError, match="empty"):
            cross_validate_lambda(z, y, [], folds=2)
        with pytest.raises(ValueError, match="ascending"):
            cross_validate_lambda(z, y, [0.5, 0.1], folds=2)
        with pytest.raises(ValueError, match="folds"):
            cross_validate_lambda(z, y, [0.1], folds=1)
        with pytest.raises(ValueError, match="short"):
            cross_validate_lambda(np.ones((6, 2)), np.zeros(6), [0.1], folds=5)

    def test_pure_noise_prefers_large_lambda(self):
        # under the null the sparsest model predicts best
        hits = 0
        reps = 100
        for r in range(reps):
            rng = np.random.default_rng(900 + r)
            z = np.column_stack([np.ones(240), rng.standard_normal((240, 8))])
            y = rng.standard_normal(240)
            zc = z[:, 1:] - z[:, 1:].mean(axis=0)
            grid = default_lambda_grid(zc.T @ (y - y.mean()) / y.size)
            report = cross_validate_lambda(z, y, grid, folds=5)
            if report.chosen_lambda >= grid[-5]:
                hits += 1
        assert hits >= 0.8 * reps

    def test_chosen_attains_minimum_tie_to_largest(self):
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.4]))
        sample = simulate_inar(spec, 400, seed=2)
        design, response = lagged_design(sample, 1)
        grid = np.geomspace(0.01, 2.0, 10)
        report = cross_validate_lambda(design, response, grid, folds=4)
        winners = report.grid[report.cv_loss <= report.cv_loss.min()]
        assert report.chosen_lambda == winners.max()


    def test_default_grid_from_centered_moment(self):
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.3, 0.2]))
        design, response = lagged_design(simulate_inar(spec, 300, seed=4), 2)
        zc = design[:, 1:] - design[:, 1:].mean(axis=0)
        grid = default_lambda_grid(zc.T @ (response - response.mean()) / response.size)
        assert_array_equal(cross_validate_lambda(design, response, folds=3).grid, grid)

    def test_uncertified_cv_lp_raises(self, monkeypatch):
        real = dantzig.solve_dantzig
        monkeypatch.setattr(dantzig, "solve_dantzig",
                            lambda sys, lam: real(sys, lam, max_iter=2))
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.3, 0.2, 0.2, 0.2] + [0.0] * 6))
        design, response = lagged_design(simulate_inar(spec, 1000, seed=83), 10)
        with pytest.raises(UncertifiedFitError, match="iteration_limit"):
            cross_validate_lambda(design, response, [0.001], folds=3)


class TestDefaultGrid:
    def test_spans_moment_norm(self):
        grid = default_lambda_grid(np.array([2.0, -4.0]), num=20)
        assert grid.shape == (20,)
        assert_allclose(grid[0], 0.04)
        assert_allclose(grid[-1], 4.0)

    def test_zero_moment(self):
        assert_array_equal(default_lambda_grid(np.zeros(3)), [0.0])
