"""LP solver tests: exactness against a vertex-enumeration oracle, invariants."""

import ctypes
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
import reference_loops
from oracles import (bruteforce_l1min, highs_l1min, reference_cross_validate,
                     reference_solve_dantzig_path)
from reference_loops import ReferenceKernel

from sparseproc import _blas, _countsim, dantzig, harness
from sparseproc.dantzig import (cross_validate_lambda, default_lambda_grid,
                                solve_dantzig, solve_dantzig_path, threshold_support)
from sparseproc.errors import UncertifiedFitError
from sparseproc.scores import LinearScoreSystem, build_regression_score, center_design
from sparseproc.twostep import first_step
from sparseproc.simulate import InarSpec, bin_counts, simulate_hawkes, simulate_inar
from sparseproc.scores import lagged_design


def random_system(rng, p):
    m = rng.standard_normal((p + 2, p))
    gram = m.T @ m / (p + 2)
    return LinearScoreSystem(gram=gram, moment=rng.standard_normal(p))


@pytest.fixture(scope="module", params=["compiled", "python"])
def lp_path(request):
    """Which pivot loop ``solve_dantzig_path`` runs: the compiled one or the numpy
    reference loop of ``reference_loops``."""
    return request.param


def kernel_class(lp_path):
    """The class whose loops ``lp_path`` runs."""
    return ReferenceKernel if lp_path == "python" else _countsim.CountKernel


@pytest.fixture
def on_lp_path(lp_path, monkeypatch):
    """Run the test on ``lp_path``: for "python", with ``ReferenceKernel`` loaded."""
    if lp_path == "python":
        monkeypatch.setattr(_countsim, "load", ReferenceKernel)
    return lp_path


@pytest.fixture
def pivot_budget(on_lp_path, monkeypatch):
    """``pivot_budget(k)`` allows each lambda ``k`` pivots in the LP loop of ``on_lp_path``."""
    owner = kernel_class(on_lp_path)
    real = owner.dantzig_path

    def bound(k):
        monkeypatch.setattr(owner, "dantzig_path", lambda *args: real(*args[:-1], k))
    return bound


@pytest.mark.usefixtures("on_lp_path")
class TestSolveDantzig:
    def test_origin_feasible_gives_zero(self):
        sys = LinearScoreSystem(gram=np.eye(3), moment=np.array([0.5, -0.2, 0.1]))
        fit = solve_dantzig(sys, lam=0.5)
        assert fit.status == "optimal"
        assert_array_equal(fit.theta_hat, np.zeros(3))
        assert fit.l1_objective == 0.0
        assert fit.iterations == 0

    def test_zero_lambda_unique_point(self):
        sys = LinearScoreSystem(gram=np.eye(2), moment=np.array([1.0, -2.0]))
        fit = solve_dantzig(sys, lam=0.0)
        assert fit.status == "optimal"
        assert_allclose(fit.theta_hat, [1.0, -2.0], atol=1e-9)
        assert fit.feasibility_slack >= -1e-8

    def test_p2_example_against_oracle(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, 1.0])
        sys = LinearScoreSystem(gram=a, moment=b)
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
                                moment=np.array([0.0, 1.0]))
        fit = solve_dantzig(sys, lam=0.5)
        assert fit.status == "infeasible"

    def test_iteration_limit(self, pivot_budget):
        rng = np.random.default_rng(3)
        sys = random_system(rng, 6)
        pivot_budget(1)
        fit = solve_dantzig(sys, lam=0.01 * np.abs(sys.moment).max())
        assert (fit.status, fit.iterations) == ("iteration_limit", 1)

    def test_optimal_slack_basis_within_zero_pivots(self, pivot_budget):
        # b = (0.5, -0.2) lies inside the box of lambda = 1, so the slack basis is optimal
        sys = LinearScoreSystem(gram=np.eye(2), moment=np.array([0.5, -0.2]))
        pivot_budget(0)
        fit = solve_dantzig(sys, lam=1.0)
        assert (fit.status, fit.iterations) == ("optimal", 0)
        assert fit.feasibility_slack == 0.5
        assert_array_equal(fit.theta_hat, np.zeros(2))

    def test_optimal_at_the_last_allowed_pivot(self, pivot_budget):
        # two pivots reach the optimum: a budget of two is enough, a budget of one is not
        sys = LinearScoreSystem(gram=np.array([[2.0, 0.5], [0.5, 1.0]]),
                                moment=np.array([1.0, 0.6]))
        unbounded = solve_dantzig(sys, lam=0.01)
        assert (unbounded.status, unbounded.iterations) == ("optimal", 2)
        pivot_budget(2)
        fit = solve_dantzig(sys, lam=0.01)
        assert (fit.status, fit.iterations) == ("optimal", 2)
        assert fit.theta_hat.tobytes() == unbounded.theta_hat.tobytes()
        pivot_budget(1)
        short = solve_dantzig(sys, lam=0.01)
        assert (short.status, short.iterations) == ("iteration_limit", 1)

    def test_negative_lambda_rejected(self):
        sys = LinearScoreSystem(gram=np.eye(2), moment=np.ones(2))
        with pytest.raises(ValueError):
            solve_dantzig(sys, -0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        # without the check, NaN and inf right-hand sides end "optimal" at theta = 0
        sys = LinearScoreSystem(gram=np.eye(3), moment=np.array([1.0, 0.2, 0.5]))
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


@pytest.mark.usefixtures("on_lp_path")
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


def case_design(case_id, rep=1):
    """(design, response) of replication ``rep`` of a built-in case at its default seed."""
    cfg = harness.builtin_case(case_id, reps=1)
    seed = harness.derive_seed(cfg.base_seed, rep)
    if case_id == "hawkes":
        events = simulate_hawkes(cfg.model, seed)
        return lagged_design(bin_counts(events, cfg.hawkes_bin_delta, cfg.model.horizon), cfg.p)
    sample = harness.simulate_series(cfg.model, cfg.n, seed)
    return lagged_design(sample, cfg.p if sample.dim == 1 else 1, cfg.target)


def case3_fold():
    return cv_fold_system(*case_design("case3"), fold=2)


def hawkes_fold():
    return cv_fold_system(*case_design("hawkes"), fold=4)


@pytest.mark.usefixtures("on_lp_path")
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
                                moment=np.array([3.0, 1.0]))
        lams = [0.5, 1.5, 0.2, 2.0, 0.99]
        fits = solve_dantzig_path(sys, lams)
        assert [fit.status for fit in fits] == ["infeasible", "optimal", "infeasible",
                                                "optimal", "infeasible"]
        assert_allclose([fits[1].l1_objective, fits[3].l1_objective], [1.5, 1.0], atol=1e-12)

    def test_iteration_limit_per_lambda(self, pivot_budget):
        rng = np.random.default_rng(31)
        sys = random_system(rng, 8)
        lams = np.geomspace(0.01, 1.0, 6) * np.abs(sys.moment).max()
        unbounded = solve_dantzig_path(sys, lams)
        pivot_budget(3)
        fits = solve_dantzig_path(sys, lams)
        assert all(fit.iterations <= 3 for fit in fits)
        assert any(fit.status == "iteration_limit" for fit in fits)
        for fit in fits:
            assert fit.status != "iteration_limit" or fit.iterations == 3
        # the second-largest value takes four pivots from its warm start: a budget of
        # exactly four ends it optimal, at the unbounded path's vertex
        pivot_budget(4)
        fits = solve_dantzig_path(sys, lams)
        assert (fits[4].status, fits[4].iterations) == ("optimal", 4)
        assert all(fit.status == "optimal" for fit in fits)
        for fit, ref in zip(fits, unbounded):
            assert fit.theta_hat.tobytes() == ref.theta_hat.tobytes()

    def test_negative_lambda_and_empty_list(self):
        sys = LinearScoreSystem(gram=np.eye(2), moment=np.ones(2))
        with pytest.raises(ValueError):
            solve_dantzig_path(sys, [0.5, -0.1, 0.2])
        assert solve_dantzig_path(sys, []) == []

    def test_gram_layout_does_not_move_the_fits(self):
        # both loops read a C-order copy, so a Fortran-order or strided gram gives the
        # C-order gram's fits, slacks included
        z = np.random.default_rng(3).standard_normal((200, 6))
        gram = z.T @ z / 200
        moment = z.sum(axis=1) @ z / 200
        lams = [1.0, 0.1, 0.05, 0.01]
        strided = np.zeros((7, 12))
        strided[:6, ::2], strided[6, ::2] = gram, moment
        expected = solve_dantzig_path(LinearScoreSystem(gram=gram, moment=moment), lams)
        for layout in (np.asfortranarray(gram), strided[:6, ::2]):
            sys = LinearScoreSystem(gram=layout, moment=strided[6, ::2])
            for fit, ref in zip(solve_dantzig_path(sys, lams), expected, strict=True):
                assert fit.theta_hat.tobytes() == ref.theta_hat.tobytes()
                assert (fit.iterations, fit.status) == (ref.iterations, ref.status)
                assert fit.feasibility_slack.hex() == ref.feasibility_slack.hex()

    def test_empty_system_named(self):
        sys = LinearScoreSystem(gram=np.zeros((0, 0)), moment=np.zeros(0))
        with pytest.raises(ValueError, match="no coordinate to select"):
            solve_dantzig_path(sys, [0.5])
        rng = np.random.default_rng(8)
        data = center_design(np.ones((30, 1)), rng.poisson(2.0, 30).astype(float))
        with pytest.raises(ValueError, match="no coordinate to select"):
            first_step(data, 0.05, 0.05)


def experiment_path(experiment_systems):
    """The centered system with its default grid and rate lambda, as one path."""
    centered, rate = experiment_systems
    return centered, [*default_lambda_grid(centered.moment), rate]


@pytest.mark.usefixtures("on_lp_path")
class TestAgainstMirroredReference:
    """The ranged-row tableau against the mirrored-row solver it replaced."""

    @staticmethod
    def check(sys, lams):
        new = solve_dantzig_path(sys, lams)
        ref = reference_solve_dantzig_path(sys, lams)
        scale = max(1.0, float(np.abs(sys.gram).max()), float(np.abs(sys.moment).max()))
        assert [f.status for f in new] == [f.status for f in ref]
        for fit, old in zip(new, ref):
            assert fit.lam == old.lam
            assert fit.feasibility_slack >= -1e-8 * scale
            assert abs(fit.l1_objective - old.l1_objective) <= 1e-9 * max(1.0, old.l1_objective)
        return new, ref

    def test_experiment_paths(self, experiment_systems):
        self.check(*experiment_path(experiment_systems))

    def test_no_more_pivots_than_mirrored(self, experiment_systems):
        new, ref = self.check(*experiment_path(experiment_systems))
        assert sum(f.iterations for f in new) <= sum(f.iterations for f in ref)

    @pytest.mark.parametrize("fold_system", [case3_fold, hawkes_fold],
                             ids=["case3_p100", "hawkes_p20"])
    def test_cv_fold_paths(self, fold_system):
        self.check(*fold_system())

    def test_basic_theta_changes_sign_along_path(self):
        # theta_1 is basic and negative at lambda = 0.184; restarted at 0 its value is
        # positive, so it leaves its negative piece and re-enters on the positive one
        a = np.array([[0.63, 0.07, 0.1, 0.69], [0.07, 0.78, 0.4, 0.04],
                      [0.1, 0.4, 0.44, -0.04], [0.69, 0.04, -0.04, 1.22]])
        b = np.array([0.09, -0.74, -0.92, -0.46])
        lams = [0.92, 0.736, 0.552, 0.368, 0.184, 0.0]
        new, _ = self.check(LinearScoreSystem(gram=a, moment=b), lams)
        assert new[4].theta_hat[1] < -0.3 and new[5].theta_hat[1] > 0.8
        for lam, fit in zip(lams, new):
            oracle, feasible = bruteforce_l1min(a, b, lam)
            assert feasible and fit.status == "optimal"
            assert abs(fit.l1_objective - oracle) < 1e-9 * max(1.0, oracle)


def python_loop_path(sys, lams):
    """``solve_dantzig_path`` on the numpy reference loop."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_countsim, "load", ReferenceKernel)
        return solve_dantzig_path(sys, lams)


@pytest.fixture
def lp_kernel():
    return _countsim.load()


class TestCompiledLpLoop:
    """The compiled pivot loop of ``_countsim`` against its numpy reference loop."""

    @staticmethod
    def assert_same_fits(sys, lams):
        compiled = solve_dantzig_path(sys, lams)
        python = python_loop_path(sys, lams)
        assert len(compiled) == len(python) == len(lams)
        for fit, ref in zip(compiled, python):
            assert fit.theta_hat.tobytes() == ref.theta_hat.tobytes()
            assert (fit.iterations, fit.status) == (ref.iterations, ref.status)
            assert float(fit.feasibility_slack).hex() == float(ref.feasibility_slack).hex()
            assert fit.lam == ref.lam
        return compiled

    @staticmethod
    def assert_same_loops(kernel, gram, moment, lams, max_iter):
        """Both loops on one system and pivot budget, byte for byte; returns the statuses."""
        compiled = kernel.dantzig_path(gram, moment, lams, max_iter)
        python = ReferenceKernel().dantzig_path(gram, moment, lams, max_iter)
        assert compiled[0].tobytes() == python[0].tobytes()
        assert compiled[1:3] == python[1:3]
        assert compiled[3].tobytes() == python[3].tobytes()
        return python[2]

    def test_experiment_systems(self, lp_kernel, experiment_systems):
        fits = self.assert_same_fits(*experiment_path(experiment_systems))
        assert sum(f.iterations for f in fits) > 0

    @pytest.mark.parametrize("case_id", ["case3", "hawkes"])
    def test_cv_fold_grids(self, lp_kernel, case_id):
        design, response = case_design(case_id)
        for fold in range(5):
            self.assert_same_fits(*cv_fold_system(design, response, fold=fold))

    def test_random_small_systems(self, lp_kernel):
        # a third of the grams are singular, so low lambdas are infeasible; every fourth
        # system cuts each lambda off after 0 to 4 pivots; lambdas repeat and include 0
        rng = np.random.default_rng(2025)
        statuses = set()
        for i in range(320):
            p = 1 + i % 13
            rows = max(1, p // 2) if i % 3 == 0 else p + 2
            m = rng.standard_normal((rows, p))
            sys = LinearScoreSystem(gram=m.T @ m / rows, moment=rng.standard_normal(p))
            lams = list(rng.uniform(0.0, 1.2, 5) * np.abs(sys.moment).max())
            lams += [0.0, lams[1]]
            if i % 4 == 3:
                statuses.update(self.assert_same_loops(lp_kernel, sys.gram, sys.moment,
                                                       sorted(lams, reverse=True), (i // 4) % 5))
            else:
                statuses.update(f.status for f in self.assert_same_fits(sys, lams))
        assert statuses == {"optimal", "infeasible", "iteration_limit"}

    def test_p1_and_empty_path(self, lp_kernel):
        for gram, moment in [(2.0, 1.0), (0.5, -3.0), (0.0, 1.0), (1e-12, 0.7)]:
            sys = LinearScoreSystem(gram=np.array([[gram]]), moment=np.array([moment]))
            self.assert_same_fits(sys, [0.0, 0.3, 2.0, 0.3, 5.0])
        assert solve_dantzig_path(random_system(np.random.default_rng(5), 4), []) == []

    @pytest.mark.parametrize("gram, moment", [
        # a pivot meets a NaN ratio: numpy's min is NaN, so column 0 enters
        ([[-1e308, 0.5, -np.inf], [1.0, 0.0, -1e308], [np.inf, 2.0, 1e308]], [-1.0, 0.0, 1.0]),
        ([[1e308, 1e308], [1e308, 1e308]], [1e308, -1e308]),
        ([[np.inf]], [np.inf]),
        ([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]], [1.0, -2.0, 0.5]),
    ], ids=["nan_ratio", "overflow", "inf_p1", "finite"])
    def test_entry_matches_the_numpy_loop(self, lp_kernel, gram, moment):
        # solve_dantzig_path rejects non-finite systems, so only a direct call on the
        # loops reaches the overflow and NaN cases
        with np.errstate(all="ignore"):
            self.assert_same_loops(lp_kernel, np.array(gram), np.array(moment),
                                   [2.0, 0.5, 0.1, 0.0], 6)

    @pytest.mark.parametrize("missing", ["dger", "dgemm", "dgemm_width"])
    def test_without_one_blas_function_nothing_loads(self, monkeypatch, missing):
        sys, grid = hawkes_fold()  # simulated while the compiled loops still load
        data = center_design(*case_design("case1"))
        real = _blas.cblas

        def cblas(name):
            if name != missing.split("_")[0]:
                return real(name)
            if missing == "dgemm_width":  # a dgemm of the other integer width
                fn, int_t = real(name)
                return fn, ctypes.c_int32 if int_t is ctypes.c_int64 else ctypes.c_int64
            return None

        monkeypatch.setattr(_blas, "cblas", cblas)
        monkeypatch.setattr(_countsim, "_kernel", _countsim._UNSET)
        bits = 8 * ctypes.sizeof(real("ddot")[1])
        other = 32 if bits == 64 else 64
        named = (f"CBLAS dgemm with {other}-bit integers and ddot with {bits}-bit ones$"
                 if missing == "dgemm_width" else f"exports no CBLAS {missing}$")
        with pytest.raises(RuntimeError, match=named) as raised:
            _countsim.load()
        assert isinstance(raised.value.__cause__, OSError)
        # the LP, CV and the simulators have no other loop to run
        for run in (lambda: solve_dantzig_path(sys, grid),
                    lambda: cross_validate_lambda(data),
                    lambda: simulate_inar(InarSpec(mu_eps=0.5, alpha=[0.3]), 10, 0),
                    lambda: simulate_hawkes(harness.builtin_case("hawkes").model, 0)):
            with pytest.raises(RuntimeError, match=named):
                run()


def fold_loop_args(data, grid, folds):
    """The arguments that ``cross_validate_lambda`` passes its fold loop."""
    calls = []
    real = _countsim.CountKernel.cv_folds
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_countsim.CountKernel, "cv_folds",
                  lambda self, *args: calls.append(args) or real(self, *args))
        cross_validate_lambda(data, grid, folds)
    return calls[0]


class TestCompiledCv:
    """The compiled fold loop of ``_countsim`` against its numpy reference loop: the
    same bytes in every loss, pivot count, status and slack."""

    @staticmethod
    def assert_same_loops(kernel, args):
        compiled, python = kernel.cv_folds(*args), ReferenceKernel().cv_folds(*args)
        for ours, ref in zip(compiled, python, strict=True):
            if isinstance(ref, list):  # the statuses
                assert ours == ref
            else:
                assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()
        return python

    def assert_same(self, kernel, data, grid=None, folds=5):
        self.assert_same_loops(kernel, fold_loop_args(data, grid, folds))
        report = cross_validate_lambda(data, grid, folds)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_countsim, "load", ReferenceKernel)
            ref = cross_validate_lambda(data, grid, folds)
        assert report.cv_loss.tobytes() == ref.cv_loss.tobytes()
        assert report.chosen_lambda == ref.chosen_lambda
        return report

    @pytest.mark.parametrize("case_id", ["case1", "case2", "case3", "hawkes"])
    def test_default_grids(self, lp_kernel, case_id):
        for rep in range(4 if case_id == "case3" else 6):
            data = center_design(*case_design(case_id, rep))
            assert self.assert_same(lp_kernel, data).grid.size == 20

    @pytest.mark.parametrize("folds", [2, 7, 9])
    def test_unequal_blocks(self, lp_kernel, folds):
        design, response = case_design("case1")
        n = response.size - 3  # 497 rows: the first blocks hold one more row
        assert n % folds
        self.assert_same(lp_kernel, center_design(design[:n], response[:n]), folds=folds)

    def test_one_value_grid(self, lp_kernel):
        # numpy forms z_dev @ thetas for one column by dgemv, not dgemm
        for case_id in ("case1", "hawkes"):
            data = center_design(*case_design(case_id))
            grid = default_lambda_grid(data.moment)
            for lam in (grid[0], grid[10], grid[-1]):
                self.assert_same(lp_kernel, data, [lam])

    def test_repeated_values_and_zero(self, lp_kernel):
        data = center_design(*case_design("case1"))
        grid = default_lambda_grid(data.moment)
        self.assert_same(lp_kernel, data, [*grid[:4], grid[4], grid[4], *grid[5:]])
        self.assert_same(lp_kernel, data, [0.0, 0.0, *grid[::4]])
        self.assert_same(lp_kernel, data, [0.0])

    def test_p1(self, lp_kernel):
        # one lag column: each block sum is one contiguous run, which numpy sums
        # pairwise, with eight accumulators from eight training blocks (folds = 9) up
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.4]))
        for seed in range(3):
            design, response = lagged_design(simulate_inar(spec, 600, seed=seed), 1)
            data = center_design(design, response)
            grid = default_lambda_grid(data.moment)
            for folds in (2, 5, 9, 12):
                self.assert_same(lp_kernel, data, folds=folds)
                self.assert_same(lp_kernel, data, grid[7:8], folds=folds)
            # more folds than rows in a block
            short = center_design(design[:41], response[:41])
            self.assert_same(lp_kernel, short, folds=20)

    def test_iteration_limits(self, lp_kernel):
        # a few pivots per lambda: some fits end at the limit, and both loops stop there
        *args, max_iter = fold_loop_args(center_design(*case_design("hawkes")), None, 5)
        seen = set()
        for max_iter in range(6):
            statuses = self.assert_same_loops(lp_kernel, (*args, max_iter))[2]
            assert "iteration_limit" in statuses[-1]
            seen.update(status for row in statuses for status in row)
        assert seen == {"optimal", "iteration_limit"}


@pytest.fixture
def corrupt_pivots(on_lp_path, monkeypatch):
    """``corrupt()`` makes every later pivot on ``on_lp_path`` add one to the new basic
    variable's value: to the pivot row, after the rank-1 update and before the row is
    written into the tableau."""
    callbacks = []  # the compiled loop holds only the callback's address

    def corrupt():
        if on_lp_path == "python":
            real = reference_loops.rank1_updater

            def updater(a, x, y):
                update = real(a, x, y)

                def corrupted():
                    update()
                    y[-1] += 1.0
                return corrupted

            monkeypatch.setattr(reference_loops, "rank1_updater", updater)
            return
        kernel = _countsim.load()
        int_t = _blas.cblas("dger")[1]
        vec = ctypes.POINTER(ctypes.c_double)
        dger_type = ctypes.CFUNCTYPE(None, ctypes.c_int, int_t, int_t, ctypes.c_double,
                                     vec, int_t, vec, int_t, vec, int_t)
        real_dger = dger_type(kernel._dger)

        def dger(order, m, n, alpha, x, incx, y, incy, a, lda):
            real_dger(order, m, n, alpha, x, incx, y, incy, a, lda)
            y[n - 1] += 1.0

        callbacks.append(dger_type(dger))
        monkeypatch.setattr(kernel, "_dger", ctypes.cast(callbacks[-1], ctypes.c_void_p).value)
    return corrupt


class TestSlackCertification:
    """A fit is "optimal" only when its recomputed slack certifies it."""

    def test_corrupted_tableau_is_inaccurate(self, corrupt_pivots):
        sys = LinearScoreSystem(gram=np.array([[2.0]]), moment=np.array([1.0]))
        assert solve_dantzig(sys, 0.5).status == "optimal"
        corrupt_pivots()
        fit = solve_dantzig(sys, 0.5)
        # theta = 1.25 instead of 0.25 passes every bound in the tableau
        assert fit.status == "inaccurate" and fit.iterations == 1
        assert fit.feasibility_slack == pytest.approx(-1.0)

    def test_first_step_and_cv_raise(self, corrupt_pivots):
        design, response = case_design("case1")
        corrupt_pivots()
        with pytest.raises(UncertifiedFitError, match="inaccurate"):
            first_step(center_design(design, response), 0.05, 0.05)
        with pytest.raises(UncertifiedFitError, match="inaccurate"):
            cross_validate_lambda(center_design(design, response))

    def test_run_case_counts_failed_reps(self, corrupt_pivots):
        corrupt_pivots()
        report = harness.run_case(harness.builtin_case("case1", n=500, reps=2), jobs=1)
        assert report.failures == 2
        assert all(r["error"].startswith("UncertifiedFitError") for r in report.per_rep)


def per_fit_certificate(sys, fit):
    """(slack, l1 objective, status) of ``fit`` by the formula, one fit at a time."""
    a, b = sys.gram, sys.moment
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    slack = fit.lam - float(np.maximum.reduce(np.abs(b - a @ fit.theta_hat)))
    status = fit.status
    if status in ("optimal", "inaccurate"):  # the pivots ended; the slack decides
        status = "inaccurate" if slack < -1e-8 * scale else "optimal"
    return slack, float(np.add.reduce(np.abs(fit.theta_hat))), status


class TestPathCertificate:
    """Every fit's certificate, taken for the whole path at once, equals the per-fit
    formula bit for bit, on the compiled loop and on the numpy loop."""

    @staticmethod
    def assert_per_fit(sys, lams):
        fits = solve_dantzig_path(sys, lams)
        for fit in fits:
            slack, l1, status = per_fit_certificate(sys, fit)
            assert type(fit.feasibility_slack) is float and type(fit.l1_objective) is float
            assert fit.feasibility_slack.hex() == slack.hex()
            assert fit.l1_objective.hex() == l1.hex()
            assert fit.status == status
        return [fit.status for fit in fits]

    @pytest.mark.parametrize("p", [1, 2, 3, 20, 100, 200])
    def test_random_systems(self, on_lp_path, p):
        rng = np.random.default_rng(300 + p)
        for _ in range(3):
            m = rng.standard_normal((3 * p + 2, p))
            sys = LinearScoreSystem(gram=m.T @ m / (3 * p + 2), moment=rng.standard_normal(p))
            lams = list(rng.uniform(0.0, 1.0, 8) * np.abs(sys.moment).max()) + [0.0]
            assert "optimal" in self.assert_per_fit(sys, lams)

    def test_experiment_systems(self, on_lp_path, experiment_systems):
        assert set(self.assert_per_fit(*experiment_path(experiment_systems))) == {"optimal"}

    def test_infeasible_and_iteration_limit(self, pivot_budget):
        sys = LinearScoreSystem(gram=np.array([[1.0, 0.0], [0.0, 0.0]]),
                                moment=np.array([3.0, 1.0]))
        assert "infeasible" in self.assert_per_fit(sys, [0.5, 1.5, 0.2, 2.0])
        sys = random_system(np.random.default_rng(37), 20)
        lams = np.geomspace(0.01, 1.0, 6) * np.abs(sys.moment).max()
        pivot_budget(2)
        assert "iteration_limit" in self.assert_per_fit(sys, lams)

    def test_inaccurate(self, corrupt_pivots):
        sys = random_system(np.random.default_rng(41), 20)
        corrupt_pivots()
        lams = np.geomspace(0.05, 1.0, 5) * np.abs(sys.moment).max()
        assert "inaccurate" in self.assert_per_fit(sys, lams)


class TestRank1Binding:
    """The CBLAS dger of numpy's own BLAS, bound for the numpy reference LP loop."""

    @pytest.mark.parametrize("shape", [(41, 81), (201, 401), (401, 801)])
    def test_bit_equal_to_scipy_dger(self, shape):
        from scipy.linalg.blas import dger

        rng = np.random.default_rng(shape[0])
        a = np.asfortranarray(rng.standard_normal(shape))
        ref = a.copy(order="F")
        x, y = np.empty(shape[0]), np.empty(shape[1])
        update = reference_loops.rank1_updater(a, x, y)
        for _ in range(50):  # refilled in place, as the simplex refills its buffers
            x[:] = rng.standard_normal(shape[0])
            y[:] = rng.standard_normal(shape[1])
            update()
            ref = dger(-1.0, x, y, a=ref, overwrite_a=1)
        assert_array_equal(a, ref)

    def test_invalid_buffers_rejected(self):
        a = np.zeros((3, 4), order="F")
        x, y = np.zeros(3), np.zeros(4)
        raw = np.zeros(3 * 4 * 8 + 1, dtype=np.uint8)[1:].view(np.float64)  # off by one byte
        bad = [
            (np.zeros((3, 4)), x, y),                        # C order
            (a.astype(np.float32, order="F"), x, y),         # float32 tableau
            (a, x.astype(np.float32), y),                    # float32 vector
            (raw.reshape(4, 3).T, x, y),                     # misaligned tableau
            (a, raw[:3], y),                                 # misaligned vector
            (a, np.zeros(6)[::2], y),                        # strided vector
            (a, x, np.zeros(5)),                             # wrong length
        ]
        assert not raw.flags.aligned
        for args in bad:
            with pytest.raises(ValueError):
                reference_loops.rank1_updater(*args)


class TestThresholdSupport:
    def test_zero_vector_empty(self):
        fit = solve_dantzig(LinearScoreSystem(gram=np.eye(2), moment=np.zeros(2)), 1.0)
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

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -0.1, True, None])
    def test_non_finite_or_negative_tau_rejected(self, tau):
        fit = solve_dantzig(LinearScoreSystem(gram=np.eye(2), moment=np.ones(2)), 0.1)
        with pytest.raises(ValueError,
                           match=re.escape(f"tau must be a finite number >= 0, got {tau!r}")):
            threshold_support(fit, tau)


@pytest.fixture
def cv_results(on_lp_path, monkeypatch):
    """The result of each call of the fold loop that ``on_lp_path`` runs, in order."""
    results = []
    owner = kernel_class(on_lp_path)
    real = owner.cv_folds

    def recording(self, *args):
        results.append(real(self, *args))
        return results[-1]
    monkeypatch.setattr(owner, "cv_folds", recording)
    return results


@pytest.fixture
def fold_systems(on_lp_path, monkeypatch):
    """The (gram, moment) of each CV training system that ``on_lp_path`` solves, in order.

    The numpy loop hands each to its LP loop ``dantzig_path``.  The compiled loop
    passes them only to numpy's BLAS, so its ``dgemv`` is wrapped: each lambda
    of a fold makes one row-major call, which resets the basic values, and
    then one square column-major call, which certifies its fit against the
    gram.  The first lambda of a fold starts at the slack basis, where the
    basic values are B^-1 b = I b, so its reset's vector is the moment; the
    default grid has ``_GRID_NUM`` lambdas, so a fold starts every
    ``_GRID_NUM`` certificates.
    """
    systems = []
    if on_lp_path == "python":
        real = ReferenceKernel.dantzig_path

        def recording(self, gram, moment, lams, max_iter):
            systems.append((gram.copy(), moment.copy()))
            return real(self, gram, moment, lams, max_iter)
        monkeypatch.setattr(ReferenceKernel, "dantzig_path", recording)
        yield systems
        return
    kernel = _countsim.load()
    int_t = _blas.cblas("dgemv")[1]
    vec = ctypes.POINTER(ctypes.c_double)
    dgemv_type = ctypes.CFUNCTYPE(None, ctypes.c_int, ctypes.c_int, int_t, int_t,
                                  ctypes.c_double, vec, int_t, vec, int_t, ctypes.c_double,
                                  vec, int_t)
    real_dgemv = dgemv_type(kernel._dgemv)
    resets, certificates = [], []

    def dgemv(order, trans, m, n, alpha, a, lda, x, incx, beta, y, incy):
        real_dgemv(order, trans, m, n, alpha, a, lda, x, incx, beta, y, incy)
        if order == 101:  # row-major, on the tableau
            resets.append(np.ctypeslib.as_array(x, (m,)).copy())
        elif order == 102 and m == n == lda:
            certificates.append(len(resets))
            if (len(certificates) - 1) % dantzig._GRID_NUM == 0:  # a fold's first lambda
                gram = np.ctypeslib.as_array(a, (m, m)).copy()  # C order: row i is gram[i]
                systems.append((gram, resets[-1]))

    callback = dgemv_type(dgemv)
    monkeypatch.setattr(kernel, "_dgemv", ctypes.cast(callback, ctypes.c_void_p).value)
    monkeypatch.setattr(kernel, "_recording_dgemv", callback, raising=False)  # keep it alive
    yield systems
    # one reset, then one certificate, per lambda of each fold run
    assert certificates == list(range(1, len(resets) + 1))
    assert len(certificates) == dantzig._GRID_NUM * len(systems)


@pytest.mark.usefixtures("on_lp_path")
class TestCrossValidation:
    def test_single_grid_element(self):
        rng = np.random.default_rng(23)
        z = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
        y = rng.standard_normal(60)
        report = cross_validate_lambda(center_design(z, y), [0.37], folds=3)
        assert report.chosen_lambda == 0.37
        assert report.cv_loss.shape == (1,)

    def test_grid_validation(self):
        z = np.ones((30, 2))
        y = np.zeros(30)
        with pytest.raises(ValueError,
                           match=r"cv grid must be a nonempty vector, got shape \(0,\)"):
            cross_validate_lambda(center_design(z, y), [], folds=2)
        # one message on both fold loops: the compiled one would name its own shapes
        with pytest.raises(ValueError,
                           match=r"cv grid must be a nonempty vector, got shape \(2, 2\)"):
            cross_validate_lambda(center_design(z, y), [[0.1, 0.2], [0.3, 0.4]], folds=2)
        with pytest.raises(ValueError, match="cv grid must be sorted ascending"):
            cross_validate_lambda(center_design(z, y), [0.5, 0.1], folds=2)
        with pytest.raises(ValueError, match="cv folds must be >= 2, got 1"):
            cross_validate_lambda(center_design(z, y), [0.1], folds=1)
        for folds in (2.5, np.float64(3.0), True):
            with pytest.raises(ValueError,
                               match=re.escape(f"cv folds must be an integer, got {folds!r}")):
                cross_validate_lambda(center_design(z, y), [0.1], folds=folds)
        assert type(cross_validate_lambda(center_design(z, y), [0.1], np.int64(3)).folds) is int
        with pytest.raises(ValueError, match="5 cv folds need at least 10 fit rows, got 6"):
            cross_validate_lambda(center_design(np.ones((6, 2)), np.zeros(6)), [0.1],
                                  folds=5)
        for bad in ([0.1, np.nan, 0.5], [0.1, 0.5, np.inf], [-0.1, 0.5]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                cross_validate_lambda(center_design(z, y), bad, folds=2)
        with pytest.raises(ValueError, match="no lag column"):
            cross_validate_lambda(center_design(z[:, :1], y), [0.1], folds=2)

    def test_non_finite_fold_system_raises(self, cv_results):
        # block 2's cross-products overflow, so every fold that trains on it has an
        # infinite gram: fold 0 is the first, before any LP
        rng = np.random.default_rng(5)
        z = np.column_stack([np.ones(50), rng.standard_normal((50, 3))])
        z[22, 1] = 1e200
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="gram and moment must be finite"):
            cross_validate_lambda(center_design(z, rng.standard_normal(50)), [0.1], folds=5)
        assert cv_results == []  # the compiled loop raises as the numpy loop does

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
            report = cross_validate_lambda(center_design(z, y), grid, folds=5)
            if report.chosen_lambda >= grid[-5]:
                hits += 1
        assert hits >= 0.8 * reps

    def test_chosen_attains_minimum_tie_to_largest(self):
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.4]))
        sample = simulate_inar(spec, 400, seed=2)
        design, response = lagged_design(sample, 1)
        grid = np.geomspace(0.01, 2.0, 10)
        report = cross_validate_lambda(center_design(design, response), grid, folds=4)
        winners = report.grid[report.cv_loss <= report.cv_loss.min()]
        assert report.chosen_lambda == winners.max()


    def test_default_grid_from_centered_moment(self):
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.3, 0.2]))
        design, response = lagged_design(simulate_inar(spec, 300, seed=4), 2)
        zc = design[:, 1:] - design[:, 1:].mean(axis=0)
        grid = default_lambda_grid(zc.T @ (response - response.mean()) / response.size)
        report = cross_validate_lambda(center_design(design, response), folds=3)
        assert_array_equal(report.grid, grid)

    def test_uncertified_cv_lp_raises(self, monkeypatch, cv_results):
        monkeypatch.setattr(dantzig, "_PIVOTS_PER_DIM", 0)  # every LP ends at the limit
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.3, 0.2, 0.2, 0.2] + [0.0] * 6))
        design, response = lagged_design(simulate_inar(spec, 1000, seed=83), 10)
        with pytest.raises(UncertifiedFitError) as raised:
            cross_validate_lambda(center_design(design, response), [0.001], folds=3)
        assert str(raised.value) == ("CV LP of fold 0 at lambda=0.001 ended with status "
                                     "'iteration_limit'")
        (_, pivots, statuses, _), = cv_results
        assert statuses == [["iteration_limit"]]  # the fold loop stops at fold 0
        assert not pivots.any()

    def test_uncertified_fold_and_lambda_named(self, corrupt_pivots, cv_results):
        # every pivot is corrupted, so a fit is optimal only where it needs none: where
        # lambda is at least its fold's |b|_inf.  lam is fold 0's norm, so the first fold
        # whose norm exceeds it is the one named, at lam and not at 2 * top
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.3, 0.2, 0.2, 0.2] + [0.0] * 6))
        design, response = lagged_design(simulate_inar(spec, 1000, seed=83), 10)
        norms = [float(np.abs(cv_fold_system(design, response, fold, 3)[0].moment).max())
                 for fold in range(3)]
        lam, top = norms[0], max(norms)
        fold = next(k for k, norm in enumerate(norms) if norm > lam * (1 + 1e-6))
        assert fold > 0
        corrupt_pivots()
        with pytest.raises(UncertifiedFitError) as raised:
            cross_validate_lambda(center_design(design, response), [lam, 2 * top], folds=3)
        assert str(raised.value) == (f"CV LP of fold {fold} at lambda={lam:.6g} ended with "
                                     "status 'inaccurate'")
        (_, pivots, statuses, _), = cv_results
        # the fold loop stops at that fold
        assert statuses == [["optimal", "optimal"]] * fold + [["inaccurate", "optimal"]]
        assert not pivots[:fold].any() and pivots[fold, 0] > 0


class TestCrossValidationAgainstReference:
    """The merged block sums against the per-fold copies of ``reference_cross_validate``."""

    @pytest.mark.parametrize("case_id", ["case1", "case3", "hawkes"])
    def test_same_choice_and_losses(self, case_id):
        design, response = case_design(case_id)
        new = cross_validate_lambda(center_design(design, response))
        ref = reference_cross_validate(design, response)
        assert_array_equal(new.grid, ref.grid)
        assert new.chosen_lambda == ref.chosen_lambda
        assert_allclose(new.cv_loss, ref.cv_loss, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case_id", ["case1", "case3", "hawkes"])
    def test_fold_systems(self, case_id, fold_systems):
        design, response = case_design(case_id)
        cross_validate_lambda(center_design(design, response))
        assert len(fold_systems) == 5
        for fold, (gram, moment) in enumerate(fold_systems):
            ref, _ = cv_fold_system(design, response, fold=fold)
            scale = max(float(np.abs(ref.gram).max()), float(np.abs(ref.moment).max()))
            assert_allclose(gram, ref.gram, rtol=0, atol=1e-12 * scale)
            assert_allclose(moment, ref.moment, rtol=0, atol=1e-12 * scale)

    def test_large_offset_no_cancellation(self):
        # a location of 1e6 on the lags and the response: sums about the series mean
        # keep the fold systems exact, raw sums downdated per fold would not
        design, response = case_design("case1")
        design = design.copy()
        design[:, 1:] += 1e6
        response = response + 1e6
        new = cross_validate_lambda(center_design(design, response))
        ref = reference_cross_validate(design, response)
        assert new.chosen_lambda == ref.chosen_lambda
        assert_allclose(new.cv_loss, ref.cv_loss, rtol=1e-9, atol=0)


class TestDefaultGrid:
    def test_spans_moment_norm(self):
        grid = default_lambda_grid(np.array([2.0, -4.0]))
        assert grid.shape == (20,)
        assert_allclose(grid[0], 0.04)
        assert_allclose(grid[-1], 4.0)

    def test_zero_moment(self):
        assert_array_equal(default_lambda_grid(np.zeros(3)), [0.0])
