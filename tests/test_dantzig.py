"""LP solver tests: exactness against a vertex-enumeration oracle, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from oracles import bruteforce_l1min, highs_l1min, reference_cross_validate

from sparseproc import dantzig, harness
from sparseproc.dantzig import (cross_validate_lambda, default_lambda_grid,
                                solve_dantzig, solve_dantzig_path, threshold_support)
from sparseproc.errors import UncertifiedFitError
from sparseproc.scores import LinearScoreSystem, build_regression_score
from sparseproc.simulate import (InarSpec, SeriesSample, bin_counts, simulate_hawkes,
                                 simulate_inar)
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

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        # without the check, NaN and inf right-hand sides end "optimal" at theta = 0
        sys = LinearScoreSystem(gram=np.eye(3), moment=np.array([1.0, 0.2, 0.5]), n_eff=10)
        with pytest.raises(ValueError, match="finite"):
            solve_dantzig(sys, lam)
        with pytest.raises(ValueError, match="finite"):
            solve_dantzig_path(sys, [0.5, lam, 0.1])

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
    """Centered first-step system of one case3 (p=100) or case4 (p=200) series."""
    cfg = harness.builtin_case(request.param, reps=1, lambda_mode="rate")
    sample = harness.simulate_series(cfg.model, cfg.n,
                                     harness.derive_seed(cfg.base_seed, 0))
    design, response = lagged_design(sample, 1, cfg.target)
    zc = design[:, 1:] - design[:, 1:].mean(axis=0)
    centered = build_regression_score(zc, response - response.mean())
    rate = cfg.rate_c * float(np.sqrt(np.log(cfg.p) / response.size))
    return centered, rate


class TestHighsOracleAtExperimentDimensions:
    """Objective and feasibility against HiGHS on the systems the experiments solve."""

    @staticmethod
    def check(sys, lam):
        fit = solve_dantzig(sys, lam)
        scale = max(1.0, float(np.abs(sys.gram).max()), float(np.abs(sys.moment).max()))
        oracle = highs_l1min(sys.gram, sys.moment, lam)
        assert fit.status == "optimal"
        assert fit.feasibility_slack >= -1e-8 * scale
        assert abs(fit.l1_objective - oracle) <= 1e-6 * max(1.0, oracle)

    @pytest.mark.parametrize("where", ["smallest", "middle", "largest", "rate"])
    def test_centered_system(self, experiment_systems, where):
        centered, rate = experiment_systems
        grid = default_lambda_grid(centered.moment)
        lam = {"smallest": grid[0], "middle": grid[grid.size // 2],
               "largest": grid[-1], "rate": rate}[where]
        self.check(centered, lam)


def cv_fold_system(design, response, fold=0, folds=5):
    """The training-block system that ``cross_validate_lambda`` builds for one fold,
    and the default grid it solves it over."""
    z, y = design[:, 1:], response
    n = y.size
    val = np.array_split(np.arange(n), folds)[fold]
    train = np.setdiff1d(np.arange(n), val, assume_unique=True)
    z_bar, y_bar = z[train].mean(axis=0), y[train].mean()
    grid = default_lambda_grid((z - z.mean(axis=0)).T @ (y - y.mean()) / n)
    return build_regression_score(z[train] - z_bar, y[train] - y_bar), grid


def case_design(case_id):
    """(design, response) of replication 1 of a built-in case at its default seed."""
    cfg = harness.builtin_case(case_id, reps=1)
    seed = harness.derive_seed(cfg.base_seed, 1)
    if case_id == "hawkes":
        events = simulate_hawkes(cfg.model, seed)
        binned = bin_counts(events, cfg.hawkes_bin_delta, cfg.model.horizon)
        series = SeriesSample(values=binned.values[cfg.p:], lag_buffer=binned.values[:cfg.p])
        return lagged_design(series, cfg.p)
    sample = harness.simulate_series(cfg.model, cfg.n, seed)
    return lagged_design(sample, cfg.p if sample.dim == 1 else 1, cfg.target)


def case3_fold():
    return cv_fold_system(*case_design("case3"), fold=2)


def hawkes_fold():
    return cv_fold_system(*case_design("hawkes"), fold=4)


class TestSolveDantzigPath:
    """The warm-started path against HiGHS and against one-value solves."""

    @pytest.mark.parametrize("fold_system", [case3_fold, hawkes_fold],
                             ids=["case3_p100", "hawkes_p20"])
    def test_cv_fold_grid_against_highs(self, fold_system):
        sys, grid = fold_system()
        assert grid.size == 20
        scale = max(1.0, float(np.abs(sys.gram).max()), float(np.abs(sys.moment).max()))
        fits = solve_dantzig_path(sys, grid)
        assert [fit.lam for fit in fits] == list(grid)
        for fit in fits:
            oracle = highs_l1min(sys.gram, sys.moment, fit.lam)
            assert fit.status == "optimal"
            assert fit.feasibility_slack >= -1e-8 * scale
            assert abs(fit.l1_objective - oracle) <= 1e-6 * max(1.0, oracle), fit.lam
        # warm starts: far fewer pivots than the cold solves of the same grid
        assert sum(f.iterations for f in fits) < sum(
            solve_dantzig(sys, lam).iterations for lam in grid[::4])

    def test_unsorted_lambdas_in_input_order(self):
        rng = np.random.default_rng(29)
        sys = random_system(rng, 6)
        lams = list(np.abs(sys.moment).max() * np.array([0.3, 0.05, 0.9, 0.05, 0.0, 0.6]))
        fits = solve_dantzig_path(sys, lams)
        assert [fit.lam for fit in fits] == lams
        for lam, fit in zip(lams, fits):
            single = solve_dantzig(sys, lam)
            assert fit.status == single.status == "optimal"
            assert abs(fit.l1_objective - single.l1_objective) < 1e-9
            assert fit.feasibility_slack >= -1e-8

    def test_singular_gram_infeasible_below_attainable_norm(self):
        # b - A theta = (3 - theta_0, 1): its sup norm is at least 1
        sys = LinearScoreSystem(gram=np.array([[1.0, 0.0], [0.0, 0.0]]),
                                moment=np.array([3.0, 1.0]), n_eff=5)
        lams = [0.5, 1.5, 0.2, 2.0, 0.99]
        fits = solve_dantzig_path(sys, lams)
        assert [fit.status for fit in fits] == ["infeasible", "optimal", "infeasible",
                                                "optimal", "infeasible"]
        assert_allclose([fits[1].l1_objective, fits[3].l1_objective], [1.5, 1.0], atol=1e-12)

    def test_iteration_limit_per_lambda(self):
        rng = np.random.default_rng(31)
        sys = random_system(rng, 8)
        lams = np.geomspace(0.01, 1.0, 6) * np.abs(sys.moment).max()
        fits = solve_dantzig_path(sys, lams, max_iter=3)
        assert all(fit.iterations <= 3 for fit in fits)
        assert any(fit.status == "iteration_limit" for fit in fits)
        for fit in fits:
            assert (fit.status == "iteration_limit") == (fit.iterations == 3)

    def test_negative_lambda_and_empty_list(self):
        sys = LinearScoreSystem(gram=np.eye(2), moment=np.ones(2), n_eff=5)
        with pytest.raises(ValueError):
            solve_dantzig_path(sys, [0.5, -0.1, 0.2])
        assert solve_dantzig_path(sys, []) == []


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

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -0.1])
    def test_non_finite_or_negative_tau_rejected(self, tau):
        fit = solve_dantzig(LinearScoreSystem(gram=np.eye(2), moment=np.ones(2),
                                              n_eff=2), 0.1)
        with pytest.raises(ValueError, match="tau"):
            threshold_support(fit, tau)


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
        with pytest.raises(ValueError, match="finite"):
            cross_validate_lambda(z, y, [0.1, np.nan, 0.5], folds=2)

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
        real = dantzig.solve_dantzig_path
        monkeypatch.setattr(dantzig, "solve_dantzig_path",
                            lambda sys, lams: real(sys, lams, max_iter=2))
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.3, 0.2, 0.2, 0.2] + [0.0] * 6))
        design, response = lagged_design(simulate_inar(spec, 1000, seed=83), 10)
        with pytest.raises(UncertifiedFitError, match="iteration_limit"):
            cross_validate_lambda(design, response, [0.001], folds=3)


class TestCrossValidationAgainstReference:
    """The merged block sums against the per-fold copies of ``reference_cross_validate``."""

    @pytest.mark.parametrize("case_id", ["case1", "case3", "hawkes"])
    def test_same_choice_and_losses(self, case_id):
        design, response = case_design(case_id)
        new = cross_validate_lambda(design, response)
        ref = reference_cross_validate(design, response)
        assert_array_equal(new.grid, ref.grid)
        assert new.chosen_lambda == ref.chosen_lambda
        assert_allclose(new.cv_loss, ref.cv_loss, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case_id", ["case1", "case3", "hawkes"])
    def test_fold_systems(self, case_id, monkeypatch):
        design, response = case_design(case_id)
        systems = []
        real = dantzig.solve_dantzig_path

        def recording(sys, lams):
            systems.append(sys)
            return real(sys, lams)

        monkeypatch.setattr(dantzig, "solve_dantzig_path", recording)
        cross_validate_lambda(design, response)
        assert len(systems) == 5
        for fold, sys in enumerate(systems):
            ref, _ = cv_fold_system(design, response, fold=fold)
            assert sys.n_eff == ref.n_eff
            scale = max(float(np.abs(ref.gram).max()), float(np.abs(ref.moment).max()))
            assert_allclose(sys.gram, ref.gram, rtol=0, atol=1e-12 * scale)
            assert_allclose(sys.moment, ref.moment, rtol=0, atol=1e-12 * scale)

    def test_large_offset_no_cancellation(self):
        # a location of 1e6 on the lags and the response: sums about the series mean
        # keep the fold systems exact, raw sums downdated per fold would not
        design, response = case_design("case1")
        design = design.copy()
        design[:, 1:] += 1e6
        response = response + 1e6
        new = cross_validate_lambda(design, response)
        ref = reference_cross_validate(design, response)
        assert new.chosen_lambda == ref.chosen_lambda
        assert_allclose(new.cv_loss, ref.cv_loss, rtol=1e-9, atol=0)


class TestDefaultGrid:
    def test_spans_moment_norm(self):
        grid = default_lambda_grid(np.array([2.0, -4.0]), num=20)
        assert grid.shape == (20,)
        assert_allclose(grid[0], 0.04)
        assert_allclose(grid[-1], 4.0)

    def test_zero_moment(self):
        assert_array_equal(default_lambda_grid(np.zeros(3)), [0.0])
