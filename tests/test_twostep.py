"""Second-step tests: nuisance oracles, weighted solves, pipeline behavior."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from oracles import reference_covariance, reference_diffusion_score, reference_solve_weighted

from sparseproc import dantzig, harness, twostep
from sparseproc.errors import DegenerateVarianceError, RankError, UncertifiedFitError
from sparseproc.dantzig import (cross_validate_lambda, fit_to_dict, solve_dantzig,
                                threshold_support)
from sparseproc.scores import (DiffusionDesign, LinearScoreSystem, build_regression_score,
                               build_weighted_system, center_design, center_lags,
                               diffusion_design, estimate_inar_nuisance, lagged_design)
from sparseproc.simulate import InarSpec, OuSpec, SeriesSample, simulate_inar, simulate_ou
from sparseproc.twostep import (estimate_diffusion_sigma2, first_step, project_statistic,
                                solve_weighted, two_step_fit)

CASE1_ALPHA = np.array([0.3, 0.2, 0.2, 0.2, 0, 0, 0, 0, 0, 0])


def gaussian_elimination(a, b):
    """Slow row-reduction oracle for SPD solves."""
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    n = b.size
    for i in range(n):
        piv = np.argmax(np.abs(a[i:, i])) + i
        a[[i, piv]] = a[[piv, i]]
        b[[i, piv]] = b[[piv, i]]
        for j in range(i + 1, n):
            f = a[j, i] / a[i, i]
            a[j] -= f * a[i]
            b[j] -= f * b[i]
    x = np.zeros(n)
    for i in reversed(range(n)):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


class TestInarNuisance:
    def test_intercept_only_mean_squared_residuals(self):
        z = np.column_stack([np.ones(6), np.arange(6.0)])
        y = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0])
        theta = np.array([2.0, 0.0])
        est = estimate_inar_nuisance(z[:, [0]], y, [0], theta[[0]])
        resid = y - 2.0
        assert_allclose(est.values, [np.mean(resid ** 2)], atol=1e-12)

    def test_hand_solved_normal_equations(self):
        # the normal-equations solution is interior, so the nonnegative fit equals it
        z = np.column_stack([np.ones(5), np.array([1.0, 2.0, 0.0, 3.0, 1.0])])
        y = np.array([3.5, 0.0, 2.0, 5.5, 3.0])
        theta = np.array([1.0, 0.5])
        resid = y - z[:, [0, 1]] @ theta[[0, 1]]
        gram = z.T @ z / 5
        target = z.T @ (resid ** 2) / 5
        expected = np.linalg.solve(gram, target)
        assert np.all(expected > 0)
        est = estimate_inar_nuisance(z, y, [0, 1], theta)
        assert_allclose(est.values, expected, atol=1e-10)
        assert est.support == (0, 1)

    def test_boundary_solution_satisfies_kkt(self):
        # the normal equations give a negative slope here; the fit sits on h_1 = 0
        z = np.column_stack([np.ones(5), np.array([1.0, 2.0, 0.0, 3.0, 1.0])])
        y = np.array([2.0, 1.0, 4.0, 0.0, 3.0])
        theta = np.array([1.0, 0.5])
        r2 = (y - z @ theta) ** 2
        assert np.linalg.solve(z.T @ z, z.T @ r2)[1] < 0
        h = estimate_inar_nuisance(z, y, [0, 1], theta).values
        grad = z.T @ (z @ h - r2)
        assert np.all(h >= 0)
        assert np.all(grad >= -1e-10)
        assert np.all(np.abs(grad[h > 0]) <= 1e-10)
        assert h[1] == 0.0

    def test_poisson_mean_equals_variance(self):
        # fitted variance coefficients approach the mean coefficients
        spec = InarSpec(mu_eps=1.0, alpha=np.array([0.4, 0.3]))
        theta0 = np.array([1.0, 0.4, 0.3])
        hs = []
        for r in range(12):
            sample = simulate_inar(spec, 10_000, seed=21 + r)
            z, y = lagged_design(sample, 2)
            hs.append(estimate_inar_nuisance(z, y, [0, 1, 2], theta0).values)
        hs = np.array(hs)
        se = hs.std(axis=0, ddof=1) / np.sqrt(len(hs))
        assert np.all(np.abs(hs.mean(axis=0) - theta0) < 4 * se)

    def test_nonneg_projection(self):
        rng = np.random.default_rng(2)
        z = np.column_stack([np.ones(50), rng.poisson(3, size=(50, 2)).astype(float)])
        y = rng.poisson(3, size=50).astype(float)
        est = estimate_inar_nuisance(z, y, [0, 1, 2], np.zeros(3))
        assert np.all(est.values >= 0)
        assert np.all(z[:, [0, 1, 2]] @ est.values >= 0)


class TestDiffusionSigma2:
    def test_alternating_increments_exact(self):
        delta = 0.04
        x = np.concatenate([[0.0], np.cumsum([np.sqrt(delta), -np.sqrt(delta)] * 10)])
        path = SeriesSample(x, delta=delta, kind="reals")
        est = estimate_diffusion_sigma2(path)
        assert float(est.values) == pytest.approx(1.0, abs=1e-12)

    def test_ou_quadratic_variation(self):
        spec = OuSpec(a_matrix=np.array([[-1.0]]), sigma_diag=np.array([1.0]),
                      delta=0.01, n_steps=10_000, substeps=5)
        path = simulate_ou(spec, seed=31)
        est = estimate_diffusion_sigma2(path)
        assert abs(float(est.values) - 1.0) < 0.05

    def test_sigma_two_scaling(self):
        spec = OuSpec(a_matrix=np.array([[-1.0]]), sigma_diag=np.array([2.0]),
                      delta=0.01, n_steps=10_000, substeps=5)
        est = estimate_diffusion_sigma2(simulate_ou(spec, seed=33))
        assert abs(float(est.values) - 4.0) < 0.2

    def test_constant_path_degenerate(self):
        path = SeriesSample(np.ones(50), delta=0.1, kind="reals")
        with pytest.raises(DegenerateVarianceError):
            estimate_diffusion_sigma2(path)


class TestSolveWeighted:
    def test_unit_weights_equal_ols(self):
        rng = np.random.default_rng(41)
        z = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        y = rng.standard_normal(30)
        w = build_weighted_system(z, y, np.ones(30))
        theta, _ = solve_weighted(w)
        ols, *_ = np.linalg.lstsq(z, y, rcond=None)
        assert_allclose(theta, ols, atol=1e-10)

    def test_diagonal_coordinatewise(self):
        w = LinearScoreSystem(gram=np.diag([2.0, 4.0]), moment=np.array([1.0, 1.0]))
        theta, inv = solve_weighted(w)
        assert_allclose(theta, [0.5, 0.25], atol=1e-14)
        assert_allclose(inv, np.diag([0.5, 0.25]), atol=1e-14)

    def test_matches_elimination_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            m = rng.standard_normal((k + 3, k))
            gram = m.T @ m / (k + 3) + 0.1 * np.eye(k)
            mom = rng.standard_normal(k)
            w = LinearScoreSystem(gram=gram, moment=mom)
            assert_allclose(solve_weighted(w)[0], gaussian_elimination(gram, mom), atol=1e-9)

    def test_residual_certificate(self):
        rng = np.random.default_rng(47)
        m = rng.standard_normal((10, 4))
        gram = m.T @ m / 10 + 0.05 * np.eye(4)
        mom = rng.standard_normal(4)
        w = LinearScoreSystem(gram=gram, moment=mom)
        theta, _ = solve_weighted(w)
        assert np.abs(gram @ theta - mom).max() <= 1e-8 * (1 + np.abs(mom).max())

    @staticmethod
    def assert_rank_error(gram):
        w = LinearScoreSystem(gram=np.array(gram), moment=np.ones(2))
        for solve in (solve_weighted, reference_solve_weighted):
            with pytest.raises(RankError):
                solve(w)

    def test_indefinite_raises(self):
        self.assert_rank_error([[1.0, 2.0], [2.0, 1.0]])

    def test_singular_raises(self):
        self.assert_rank_error([[1.0, 1.0], [1.0, 1.0]])


def captured_weighted_systems(case_id, monkeypatch, reps=2):
    """The weighted systems the first ``reps`` replications of a built-in case solve."""
    systems = []
    real = twostep.build_weighted_system

    def recording(*args, **kwargs):
        systems.append(real(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(twostep, "build_weighted_system", recording)
    report = harness.run_case(harness.builtin_case(case_id, reps=reps), jobs=1)
    assert report.failures == 0 and len(systems) == reps
    return systems


class TestSecondStepAgainstCholeskyReference:
    """numpy's inverse Cholesky factor against scipy's Cholesky solves on experiment systems."""

    @pytest.mark.parametrize("case_id", ["case1", "case3", "ou"])
    def test_case_systems(self, case_id, monkeypatch):
        for wsys in captured_weighted_systems(case_id, monkeypatch):
            theta, inv = solve_weighted(wsys)
            for new, ref in ((theta, reference_solve_weighted(wsys)),
                             (inv, reference_covariance(wsys))):
                assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("model", ["count", "ou"])
    def test_asymp_cov_scale(self, model):
        # asymp_cov is gram^{-1} / n for a count fit and gram^{-1} / (n delta) for a diffusion
        if model == "ou":
            path = simulate_ou(harness.builtin_case("ou").model, seed=2)
            data = diffusion_design(path)
            fit = two_step_fit(data, 0.05, 0.05)
            z, dx = data.design, data.increments
            response, scale = dx / path.delta, dx.size * path.delta
        else:
            sample = simulate_inar(InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA), 2000, seed=5)
            z, response = lagged_design(sample, 10)
            fit = two_step_fit(center_design(z, response), 0.12, 0.05)
            scale = response.size
        assert len(fit.fit_support) >= 2 and not fit.empty_model
        wsys = build_weighted_system(z[:, list(fit.fit_support)], response,
                                     fit.nuisance.variance)
        ref = reference_covariance(wsys) / scale
        assert np.abs(fit.asymp_cov - ref).max() <= 1e-12 * np.abs(ref).max()


class TestTwoStepFit:
    def test_noiseless_regression_recovers_truth(self):
        rng = np.random.default_rng(51)
        z = np.column_stack([np.ones(80), rng.standard_normal((80, 5))])
        theta0 = np.array([0.7, 1.0, 0.0, -2.0, 0.0, 0.0])
        y = z @ theta0
        for poisson in (False, True):
            fit = two_step_fit(center_design(z, y, poisson=poisson), lam=1e-10, tau=0.05)
            assert_allclose(fit.theta_tilde, theta0, atol=1e-6)

    def test_oracle_vs_estimated_nuisance_agree(self):
        spec = InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA)
        theta0 = np.concatenate([[0.5], CASE1_ALPHA])
        diffs = []
        for r in range(10):
            sample = simulate_inar(spec, 20_000, seed=61 + r)
            z, y = lagged_design(sample, 10)
            f_est = two_step_fit(center_design(z, y), 0.05, 0.05)
            # the oracle weights by the true Poisson variance, on the same support
            sup = list(f_est.fit_support)
            theta_orc, _ = solve_weighted(build_weighted_system(z[:, sup], y, z @ theta0))
            if set(sup) == {0, 1, 2, 3, 4}:
                diffs.append(np.abs(f_est.theta_tilde[sup] - theta_orc).max())
        assert len(diffs) >= 8
        assert np.median(diffs) < 0.02

    def test_dict_is_the_whole_fit_document(self):
        sample = simulate_inar(InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA), 1000, seed=5)
        fit = two_step_fit(center_lags(sample, 10), 0.12, 0.05)
        out = twostep.two_step_to_dict(fit)
        assert set(out) == {"support", "tau", "theta_tilde", "nuisance", "cov",
                            "empty_model", "first_step", "theta_first"}
        assert out["first_step"] == fit_to_dict(fit.first_step)
        assert out["theta_first"] == fit.theta_first.tolist()

    def test_empty_support_flagged(self):
        rng = np.random.default_rng(71)
        z = rng.standard_normal((50, 3))
        dx = 0.01 * rng.standard_normal(50)
        fit = two_step_fit(DiffusionDesign(design=z, increments=dx, delta=0.1), lam=100.0,
                           tau=0.05)
        assert fit.empty_model
        assert_array_equal(fit.theta_tilde, np.zeros(3))
        assert fit.asymp_cov.shape == (0, 0)
        # the empty model still reports its sigma^2 nuisance
        assert fit.nuisance.kind == "diffusion_constant_sigma2"
        assert float(fit.nuisance.values) == float(dx @ dx / (50 * 0.1))
        out = twostep.two_step_to_dict(fit)
        assert out["nuisance"] == {"kind": "diffusion_constant_sigma2",
                                   "values": [float(fit.nuisance.values)], "support": []}

    def test_uncertified_first_step_raises(self, monkeypatch):
        monkeypatch.setattr(dantzig, "_PIVOTS_PER_DIM", 0)  # every LP ends at the limit
        sample = simulate_inar(InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA), 1000, seed=83)
        z, y = lagged_design(sample, 10)
        with pytest.raises(UncertifiedFitError, match="iteration_limit"):
            two_step_fit(center_design(z, y), 0.01, 0.05)

    def test_diffusion_design_makes_a_diffusion_fit(self):
        # the first step solves the drift score of the rows as given
        spec = OuSpec(a_matrix=np.array([[-0.8, 0.3], [0.0, -0.6]]), sigma_diag=np.ones(2),
                      delta=0.05, n_steps=2000, substeps=5)
        path = simulate_ou(spec, seed=87)
        fit = two_step_fit(diffusion_design(path), 0.1, 0.05)
        z, dx = path.values[:-1], np.diff(path.values[:, 0])
        ref = solve_dantzig(reference_diffusion_score(z, dx, path.delta), 0.1)
        assert_array_equal(fit.first_step.theta_hat, ref.theta_hat)
        assert_array_equal(fit.theta_first, ref.theta_hat)
        assert fit.support == threshold_support(ref, 0.05)
        assert fit.fit_support == fit.support.indices

    def test_diffusion_fit_estimates_sigma2_of_its_increments(self):
        spec = OuSpec(a_matrix=np.array([[-0.8, 0.3], [0.0, -0.6]]), sigma_diag=np.ones(2),
                      delta=0.05, n_steps=2000, substeps=5)
        path = simulate_ou(spec, seed=88)
        for target in (0, 1):
            fit = two_step_fit(diffusion_design(path, target), 0.1, 0.05)
            ref = estimate_diffusion_sigma2(path, target=target)
            assert fit.nuisance.kind == ref.kind == "diffusion_constant_sigma2"
            assert fit.nuisance.values.tobytes() == ref.values.tobytes()
            assert fit.nuisance.variance.tobytes() == ref.variance.tobytes()
            assert_array_equal(fit.nuisance.variance, np.full(path.n - 1, float(ref.values)))

    def test_constant_path_raises_before_any_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP ran")
        monkeypatch.setattr(twostep, "solve_dantzig", no_lp)
        path = SeriesSample(np.ones((50, 2)), delta=0.1, kind="reals")
        with pytest.raises(DegenerateVarianceError):
            two_step_fit(diffusion_design(path), 0.1, 0.05)

    def test_first_step_count_intercept(self):
        sample = simulate_inar(InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA), 1000, seed=89)
        z, y = lagged_design(sample, 10)
        data = center_design(z, y)
        fit, theta_first, sel = first_step(data, 0.1, 0.05)
        ref = solve_dantzig(build_regression_score(data.zc, data.yc), 0.1)
        assert_array_equal(fit.theta_hat, ref.theta_hat)
        assert theta_first[0] == data.y_bar - ref.theta_hat @ data.z_bar
        assert_array_equal(theta_first[1:], ref.theta_hat)
        assert sel == threshold_support(ref, 0.05)

    def test_intercept_always_kept(self):
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.45]))
        sample = simulate_inar(spec, 3000, seed=81)
        z, y = lagged_design(sample, 1)
        fit = two_step_fit(center_design(z, y), 0.1, 0.05)
        assert 0 in fit.fit_support

    def test_exact_zero_off_support(self):
        spec = InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA)
        sample = simulate_inar(spec, 2000, seed=91)
        z, y = lagged_design(sample, 10)
        fit = two_step_fit(center_design(z, y), 0.12, 0.05)
        off = np.setdiff1d(np.arange(11), list(fit.fit_support))
        assert np.all(fit.theta_tilde[off] == 0.0)

    def test_efficiency_ordering_heteroskedastic(self):
        # trace of weighted estimator covariance <= unweighted, within MC error
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.4, 0.25]))
        theta0 = np.array([0.5, 0.4, 0.25])
        sup = [0, 1, 2]
        w_est, u_est = [], []
        for r in range(300):
            sample = simulate_inar(spec, 1500, seed=2025_000 + r)
            z, y = lagged_design(sample, 2)
            w_theta, _ = solve_weighted(build_weighted_system(z[:, sup], y, z[:, sup] @ theta0))
            u_theta, _ = solve_weighted(build_weighted_system(z[:, sup], y, np.ones(y.size)))
            w_est.append(w_theta)
            u_est.append(u_theta)
        w_cov = np.cov(np.array(w_est).T)
        u_cov = np.cov(np.array(u_est).T)
        tr_w, tr_u = np.trace(w_cov), np.trace(u_cov)
        # 3 MC standard errors on the trace difference via a crude bootstrap scale
        mc_se = tr_u * np.sqrt(2.0 / 299)
        assert tr_w <= tr_u + 3 * mc_se


class TestVarianceRule:
    """A ``CenteredDesign``'s ``poisson`` flag picks the variance of step two, and nothing else."""

    @staticmethod
    def _sample():
        return simulate_inar(InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA), 1000, seed=5)

    def test_flag_leaves_step_one_and_cv_alone(self):
        sample = self._sample()
        plain, poisson = center_lags(sample, 10), center_lags(sample, 10, poisson=True)
        (fit_a, theta_a, sel_a), (fit_b, theta_b, sel_b) = (first_step(data, 0.12, 0.05)
                                                            for data in (plain, poisson))
        assert harness.report_to_json(fit_to_dict(fit_a)) == harness.report_to_json(
            fit_to_dict(fit_b))
        assert theta_a.tobytes() == theta_b.tobytes()
        assert sel_a == sel_b
        assert (harness.report_to_json(cross_validate_lambda(plain))
                == harness.report_to_json(cross_validate_lambda(poisson)))

    @pytest.mark.parametrize("poisson", [False, True])
    def test_fit_equals_hand_built_reference(self, poisson):
        sample = self._sample()
        data = center_lags(sample, 10, poisson=poisson)
        fit = two_step_fit(data, 0.12, 0.05)
        _, theta_first, sel = first_step(data, 0.12, 0.05)
        t = [0] + [j + 1 for j in sel.indices]
        design, y = lagged_design(sample, 10)
        z = design[:, t]
        if poisson:  # conditionally Poisson: the variance is the first-step mean
            h = np.maximum(theta_first[t], 0.0)
        else:
            h = estimate_inar_nuisance(z, y, t, theta_first[t]).values
        theta_t, inv = solve_weighted(build_weighted_system(z, y, z @ h))
        assert fit.nuisance.kind == "inar_linear_variance" and fit.nuisance.support == tuple(t)
        assert fit.nuisance.values.tobytes() == h.tobytes()
        assert fit.nuisance.variance.tobytes() == (z @ h).tobytes()
        assert fit.theta_tilde[t].tobytes() == theta_t.tobytes()
        assert fit.asymp_cov.tobytes() == (inv / y.size).tobytes()


class TestProjectStatistic:
    def _fit(self):
        spec = InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA)
        sample = simulate_inar(spec, 2000, seed=101)
        z, y = lagged_design(sample, 10)
        return two_step_fit(center_design(z, y), 0.12, 0.05)

    def test_truth_gives_zero(self):
        fit = self._fit()
        u = np.zeros(11)
        u[1] = 1.0
        assert project_statistic(fit, u, fit.theta_tilde, np.sqrt(2000)) == 0.0

    def test_coordinate_off_both_supports(self):
        fit = self._fit()
        theta_true = np.concatenate([[0.5], CASE1_ALPHA])
        j = 9  # a zero coordinate that selection should not pick here
        if j + 1 not in fit.fit_support:
            u = np.zeros(11)
            u[j + 1] = 1.0
            assert project_statistic(fit, u, theta_true, np.sqrt(2000)) == 0.0

    def test_non_unit_direction_rejected(self):
        fit = self._fit()
        with pytest.raises(ValueError, match="unit"):
            project_statistic(fit, np.full(11, 0.5), np.zeros(11), 1.0)
