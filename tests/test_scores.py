"""Score-system tests: builder oracles, linear identities, weighted systems."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from oracles import reference_diffusion_score, reference_lagged_design

from sparseproc.errors import DegenerateVarianceError, NuisanceError
from sparseproc.harness import builtin_case, simulate_series
from sparseproc.scores import (VARIANCE_FLOOR, CenteredDesign, DiffusionDesign,
                               LinearScoreSystem, build_inar_score, build_regression_score,
                               build_weighted_system, center_design, center_lags,
                               diffusion_design, lagged_design)
from sparseproc.simulate import (InarSpec, OuSpec, SeriesSample, bin_counts, read_series_csv,
                                 simulate_hawkes, simulate_inar, simulate_minar1, simulate_ou,
                                 write_series_csv)

CASE1_ALPHA = np.array([0.3, 0.2, 0.2, 0.2, 0, 0, 0, 0, 0, 0])


class TestRegressionScore:
    def test_single_row(self):
        sys = build_regression_score(np.array([[1.0, 0.0]]), np.array([2.0]))
        assert_array_equal(sys.gram, [[1.0, 0.0], [0.0, 0.0]])
        assert_array_equal(sys.moment, [2.0, 0.0])

    def test_orthonormal_design_product_oracle(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        y = rng.standard_normal(6)
        sys = build_regression_score(q, y)
        assert_allclose(sys.gram, q.T @ q / 6, atol=1e-14)
        assert_allclose(sys.gram, np.eye(6) / 6, atol=1e-12)
        assert_allclose(sys.moment, q.T @ y / 6, atol=1e-14)

    def test_noiseless_truth_is_root(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((40, 5))
        theta0 = np.array([1.0, 0.0, -2.0, 0.5, 0.0])
        sys = build_regression_score(z, z @ theta0)
        assert np.abs(sys.moment - sys.gram @ theta0).max() < 1e-12

    def test_center_design_recovers_intercept(self):
        # noiseless y = 0.5 + Z theta: the centered system has theta as its root,
        # and y_bar - theta' z_bar is the intercept
        rng = np.random.default_rng(3)
        z = np.column_stack([np.ones(30), rng.poisson(2.0, size=(30, 3)).astype(float)])
        theta = np.array([0.3, 0.0, 0.2])
        y = 0.5 + z[:, 1:] @ theta
        data = center_design(z, y)
        assert data.zc.shape == (30, 3) and data.n == 30
        assert_array_equal(data.lags, z[:, 1:])
        assert_array_equal(data.columns(range(4)), z)
        assert_array_equal(data.response, y)
        assert_allclose(data.zc.mean(axis=0), 0.0, atol=1e-14)
        assert_allclose(data.z_bar, z[:, 1:].mean(axis=0), rtol=0, atol=0)
        ref = build_regression_score(data.zc, data.yc)
        assert np.abs(ref.moment - ref.gram @ theta).max() < 1e-12
        assert data.y_bar - theta @ data.z_bar == pytest.approx(0.5, abs=1e-12)
        # the moment and the score are those of the centered columns, bit for bit
        assert data.moment.tobytes() == ref.moment.tobytes()
        assert data.score().gram.tobytes() == ref.gram.tobytes()
        assert data.score().moment.tobytes() == ref.moment.tobytes()
        # a first-step solution gains the intercept as its leading (offset) coordinate
        assert data.offset == 1 and data.fisher == 30
        assert_allclose(data.fit_coordinates(theta), [0.5, *theta], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_regression_score(np.ones((3, 2)), np.ones(4))


class TestInarScore:
    def test_constant_series_direct_summation(self):
        c = 3.0
        sample = SeriesSample(values=np.full(20, c), lag_buffer=np.full(2, c))
        design, response = lagged_design(sample, 2)
        sys = build_regression_score(design, response)  # the raw score, intercept included
        assert_allclose(sys.gram, design.T @ design / 20, atol=1e-14)
        assert_allclose(sys.moment, design.T @ response / 20, atol=1e-14)
        assert_allclose(sys.moment, [c, c * c, c * c], atol=1e-12)

    def test_zero_series(self):
        sample = SeriesSample(values=np.zeros(15), lag_buffer=np.zeros(3))
        sys = build_regression_score(*lagged_design(sample, 3))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert_array_equal(sys.gram, expected)
        assert_array_equal(sys.moment, np.zeros(4))

    def test_insufficient_lag_buffer(self):
        sample = SeriesSample(values=np.ones(10), lag_buffer=np.ones(2))
        with pytest.raises(ValueError, match="lag buffer"):
            build_inar_score(sample, order=5)

    def test_reals_rejected(self):
        sample = SeriesSample(values=np.ones(10), lag_buffer=np.ones(2), kind="reals")
        with pytest.raises(ValueError, match="counts"):
            build_inar_score(sample, order=1)

    def test_is_the_centered_system(self):
        sample = simulate_inar(InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA), 300, seed=9)
        data = center_design(*lagged_design(sample, 10))
        sys = build_inar_score(sample, order=10)
        ref = build_regression_score(data.zc, data.yc)
        assert_array_equal(sys.gram, ref.gram)
        assert_array_equal(sys.moment, ref.moment)

    def test_score_at_truth_decays(self):
        # ||psi(theta0)||_inf of the raw score should shrink roughly like sqrt(log p / n)
        spec = InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA)
        theta0 = np.concatenate([[0.5], CASE1_ALPHA])
        meds = []
        for n in (500, 2000, 8000):
            norms = []
            for r in range(20):
                sample = simulate_inar(spec, n, seed=1000 * n + r)
                sys = build_regression_score(*lagged_design(sample, 10))
                norms.append(np.abs(sys.moment - sys.gram @ theta0).max())
            meds.append(np.median(norms))
        assert meds[0] > meds[1] > meds[2]
        # two quadruplings of n should halve the norm each time, roughly
        assert meds[2] < 0.45 * meds[0]


class TestLaggedDesign:
    """The one-allocation design against the column-by-column reference, byte for byte."""

    @pytest.mark.parametrize("n_buffer, order, dim, target", [
        (15, 10, 1, 0),   # a univariate buffer longer than the order
        (10, 10, 1, 0),   # order equal to the buffer rows
        (1, 1, 1, 0),
        (3, 1, 4, 2),     # multivariate, target != 0
    ])
    def test_matches_reference(self, n_buffer, order, dim, target):
        rng = np.random.default_rng(17 + n_buffer + dim)
        sample = SeriesSample(values=rng.poisson(3.0, size=(200, dim)),
                              lag_buffer=rng.poisson(3.0, size=(n_buffer, dim)))
        design, response = lagged_design(sample, order, target)
        ref_design, ref_response = reference_lagged_design(sample, order, target)
        assert design.shape == ref_design.shape and design.dtype == ref_design.dtype
        assert design.tobytes() == ref_design.tobytes()
        assert response.tobytes() == ref_response.tobytes()

    @pytest.mark.parametrize("dim, target", [(2, -1), (2, 2), (1, 1)])
    def test_target_out_of_range_rejected(self, dim, target):
        sample = SeriesSample(values=np.ones((10, dim)), lag_buffer=np.ones((1, dim)))
        with pytest.raises(ValueError, match=rf"target must lie in \[0, {dim}\)"):
            lagged_design(sample, 1, target)


def hawkes_bins(seed):
    """The binned series of a ``hawkes`` replication, order p lags in its buffer."""
    cfg = builtin_case("hawkes")
    binned = bin_counts(simulate_hawkes(cfg.model, seed), cfg.hawkes_bin_delta,
                        cfg.model.horizon)
    return SeriesSample(values=binned.values[cfg.p:], lag_buffer=binned.values[:cfg.p])


def case_series(case_id, seed):
    cfg = builtin_case(case_id)
    return simulate_series(cfg.model, cfg.n, seed)


# (series, order, target): univariate orders 1, 10 and 20, a buffer longer than the
# order, the binned Hawkes counts, and the multivariate case3 at two targets
LAG_SERIES = {
    "order1": lambda: (simulate_inar(InarSpec(mu_eps=0.5, alpha=[0.4]), 700, seed=2), 1, 0),
    "order10": lambda: (case_series("case1", 3), 10, 0),
    "order20": lambda: (case_series("case2", 4), 20, 0),
    "long-buffer": lambda: (SeriesSample(
        values=np.random.default_rng(5).poisson(3.0, size=(300, 1)),
        lag_buffer=np.random.default_rng(6).poisson(3.0, size=(15, 1))), 10, 0),
    "hawkes": lambda: (hawkes_bins(7), 20, 0),
    "case3-target0": lambda: (case_series("case3", 8), 1, 0),
    "case3-target5": lambda: (case_series("case3", 8), 1, 5),
}


@pytest.fixture(scope="module", params=list(LAG_SERIES))
def lag_series(request):
    return LAG_SERIES[request.param]()


class TestCenterLags:
    """``center_lags`` prepares, without writing the design, the bytes that
    ``center_design(*lagged_design(...))`` prepares from it."""

    def test_every_field_byte_equal(self, lag_series):
        for poisson in (False, True):
            data = center_lags(*lag_series, poisson=poisson)
            ref = center_design(*lagged_design(*lag_series), poisson=poisson)
            assert data.poisson is ref.poisson is poisson
            for f in dataclasses.fields(CenteredDesign):
                new, old = np.asarray(getattr(data, f.name)), np.asarray(getattr(ref, f.name))
                assert (new.shape, new.dtype) == (old.shape, old.dtype), f.name
                assert new.tobytes() == old.tobytes(), f.name
            # the layout that the BLAS calls on the centered columns follow
            assert data.zc.strides == ref.zc.strides
            assert data.score().gram.tobytes() == ref.score().gram.tobytes()

    def test_simulated_minar_lags_are_a_view(self):
        # a simulated sample's lag row and values are consecutive rows of one array, so
        # its lags are those rows; a copied sample's are concatenated
        sample = simulate_minar1(builtin_case("case3").model, 300, seed=2)
        copied = SeriesSample(values=sample.values.copy(), lag_buffer=sample.lag_buffer.copy())
        for target in (0, 7):
            data, ref = center_lags(sample, 1, target), center_lags(copied, 1, target)
            for f in dataclasses.fields(CenteredDesign):
                new, old = np.asarray(getattr(data, f.name)), np.asarray(getattr(ref, f.name))
                assert (new.shape, new.dtype, new.tobytes()) == (old.shape, old.dtype,
                                                                 old.tobytes()), f.name
            assert np.shares_memory(data.lags, sample.values)
            assert not np.shares_memory(ref.lags, copied.values)
        # a lag row of the same array that does not directly precede the values
        rows = np.vstack([sample.lag_buffer, sample.values])
        apart = SeriesSample(values=rows[2:], lag_buffer=rows[:1])
        ref = center_lags(SeriesSample(values=rows[2:].copy(), lag_buffer=rows[:1].copy()), 1)
        assert center_lags(apart, 1).lags.tobytes() == ref.lags.tobytes()

    @pytest.mark.parametrize("kind", ["inar", "hawkes", "csv"])
    def test_univariate_count_lags_are_a_view(self, kind, tmp_path):
        # a simulated INAR sample, a binned Hawkes one sliced as a replication slices it,
        # and one read from CSV each hold their lag rows and values in one array
        if kind == "csv":
            write_series_csv(case_series("case1", 5), tmp_path / "series.csv")
            sample = read_series_csv(tmp_path / "series.csv")
        else:
            sample = case_series("case1", 5) if kind == "inar" else hawkes_bins(5)
        order = sample.lag_buffer.shape[0]
        copied = SeriesSample(values=sample.values.copy(), lag_buffer=sample.lag_buffer.copy())
        for poisson in (False, True):
            data = center_lags(sample, order, poisson=poisson)
            ref = center_lags(copied, order, poisson=poisson)
            for f in dataclasses.fields(CenteredDesign):
                new, old = np.asarray(getattr(data, f.name)), np.asarray(getattr(ref, f.name))
                assert (new.shape, new.dtype, new.strides, new.tobytes()) == (
                    old.shape, old.dtype, old.strides, old.tobytes()), f.name
            assert np.shares_memory(data.lags, sample.values)
            assert not np.shares_memory(ref.lags, copied.values)

    @pytest.mark.parametrize("kind", ["intercept", "sparse", "full"])
    def test_columns_are_the_design_columns(self, lag_series, kind):
        design, response = lagged_design(*lag_series)
        width = design.shape[1]
        support = {"intercept": [0], "sparse": [0, 1, width // 2, width - 1],
                   "full": list(range(width))}[kind]
        columns = center_lags(*lag_series).columns(support)
        ref = design[:, support]
        assert (columns.shape, columns.dtype) == (ref.shape, ref.dtype)
        assert columns.tobytes() == ref.tobytes()
        assert columns.flags.f_contiguous and ref.flags.f_contiguous
        assert columns.strides == ref.strides
        # the second step reads them through BLAS, which rounds by layout
        variance = 1.0 + response
        assert (build_weighted_system(columns, response, variance).gram.tobytes()
                == build_weighted_system(ref, response, variance).gram.tobytes())

    @pytest.mark.parametrize("column", [-1, 11])
    def test_columns_outside_the_design_rejected(self, column):
        # a negative index would otherwise read a lag column other than design[:, -1]
        data = center_lags(*LAG_SERIES["order10"]())
        with pytest.raises(IndexError, match=r"outside \[0, 11\)"):
            data.columns([0, column])

    @pytest.mark.parametrize("support", [[0], [0, 2], [0, 1, 2]])
    def test_diffusion_columns(self, support):
        spec = OuSpec(a_matrix=np.array([[-1.0, 0.2, 0.0], [0.0, -0.8, 0.1], [0.0, 0.0, -0.5]]),
                      sigma_diag=np.ones(3), delta=0.05, n_steps=400, substeps=2)
        data = diffusion_design(simulate_ou(spec, seed=9), target=1)
        columns, ref = data.columns(support), data.design[:, support]
        assert columns.tobytes() == ref.tobytes()
        assert columns.flags.f_contiguous and columns.strides == ref.strides


class TestDiffusionScore:
    def test_constant_path_rejected_when_built(self):
        # its sigma^2 is zero, so no fit could weight it
        path = SeriesSample(values=np.ones((11, 1)), delta=0.1, kind="reals")
        with pytest.raises(DegenerateVarianceError,
                           match="^constant path: quadratic variation is zero$"):
            diffusion_design(path)

    def test_sigma2_is_the_quadratic_variation(self):
        spec = OuSpec(a_matrix=np.array([[-1.0, 0.2], [0.0, -0.8]]), sigma_diag=np.ones(2),
                      delta=0.05, n_steps=400, substeps=2)
        path = simulate_ou(spec, seed=9)
        for target in (0, 1):
            data = diffusion_design(path, target)
            dx = np.diff(path.values[:, target])
            ref = float(dx @ dx / (dx.size * path.delta))
            assert type(data.sigma2) is float
            assert np.float64(data.sigma2).tobytes() == np.float64(ref).tobytes()
            nui = data.nuisance(data.columns([0]), [0], np.zeros(1))
            assert nui.variance.tobytes() == np.full(dx.size, ref).tobytes()

    @pytest.mark.parametrize("name", ["design", "increments"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, name, bad):
        arrays = {"design": np.ones((4, 2)), "increments": np.array([0.1, -0.2, 0.3, 0.1])}
        arrays[name][1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            DiffusionDesign(delta=0.1, **arrays)
        # the delta and alignment checks come first and keep their messages
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            DiffusionDesign(delta=0.0, **arrays)
        with pytest.raises(ValueError, match="align"):
            DiffusionDesign(design=arrays["design"], increments=arrays["increments"][:3],
                            delta=0.1)

    def test_linear_path_telescoping(self):
        t = np.arange(11) * 0.1
        path = SeriesSample(values=t, delta=0.1, kind="reals")
        dx = diffusion_design(path).increments
        sys = DiffusionDesign(design=np.ones((10, 1)), increments=dx, delta=path.delta).score()
        assert_allclose(sys.moment, [1.0], atol=1e-12)

    def test_score_matches_per_row_sums(self):
        # gram = (1/n) sum Y_k Y_k', moment = (1/(n delta)) sum Y_k (X_{k+1} - X_k)
        rng = np.random.default_rng(17)
        values = rng.standard_normal((9, 3))
        data = diffusion_design(SeriesSample(values=values, delta=0.2, kind="reals"), target=2)
        sys = data.score()
        rows = [(values[k], values[k + 1, 2] - values[k, 2]) for k in range(8)]
        assert_allclose(sys.gram, sum(np.outer(y, y) for y, _ in rows) / 8, rtol=1e-13)
        assert_allclose(sys.moment, sum(y * dx for y, dx in rows) / (8 * 0.2), rtol=1e-13)
        ref = reference_diffusion_score(values[:-1], np.diff(values[:, 2]), 0.2)
        assert sys.gram.tobytes() == ref.gram.tobytes()
        assert sys.moment.tobytes() == ref.moment.tobytes()

    def test_fit_members(self):
        # every coordinate is selected, the Fisher scale is the observed time n delta,
        # and step two regresses the increments divided by delta
        values = np.array([[1.0, 10.0], [2.0, 30.0], [4.0, 60.0]])
        data = diffusion_design(SeriesSample(values=values, delta=0.5, kind="reals"), 1)
        assert data.offset == 0
        assert data.fisher == 2 * 0.5
        assert_array_equal(data.response, [40.0, 60.0])
        theta = np.array([0.3, -0.2])
        assert data.fit_coordinates(theta) is theta

    def test_missing_delta(self):
        path = SeriesSample(values=np.ones(5), kind="reals")
        with pytest.raises(ValueError, match="delta"):
            diffusion_design(path)

    def test_single_point_rejected(self):
        path = SeriesSample(values=np.ones((1, 2)), delta=0.1, kind="reals")
        with pytest.raises(ValueError, match="two points"):
            diffusion_design(path)

    @pytest.mark.parametrize("target", [-1, 2])
    def test_target_out_of_range_rejected(self, target):
        path = SeriesSample(values=np.ones((5, 2)), delta=0.1, kind="reals")
        with pytest.raises(ValueError, match=r"target must lie in \[0, 2\)"):
            diffusion_design(path, target)

    def test_layout_left_endpoints_and_target_increments(self):
        values = np.array([[1.0, 10.0], [2.0, 30.0], [4.0, 60.0]])
        path = SeriesSample(values=values, delta=0.5, kind="reals")
        data = diffusion_design(path, target=1)
        assert_array_equal(data.design, values[:2])
        assert_array_equal(data.increments, [20.0, 30.0])
        assert data.delta == 0.5

    @pytest.mark.parametrize("delta", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_delta_rejected(self, delta):
        # a diffusion fit reads delta from its design, so a bad one never reaches a fit
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            DiffusionDesign(design=np.ones((3, 1)), increments=np.ones(3), delta=delta)

    @pytest.mark.parametrize("design,increments", [
        (np.ones((3, 1)), np.ones(4)),
        (np.ones(3), np.ones(3)),
        (np.ones((3, 1)), np.ones((3, 1))),
    ], ids=["short", "flat-design", "column-increments"])
    def test_misaligned_rows_rejected(self, design, increments):
        with pytest.raises(ValueError, match="align"):
            DiffusionDesign(design=design, increments=increments, delta=0.1)

    def test_ou_score_at_truth_decays(self):
        a = np.array([[-0.8, 0.3], [0.0, -0.6]])
        norms = []
        for n in (500, 2000, 8000):
            spec = OuSpec(a_matrix=a, sigma_diag=np.ones(2), delta=0.05,
                          n_steps=n, substeps=8)
            vals = []
            for r in range(8):
                path = simulate_ou(spec, seed=7 * n + r)
                sys = diffusion_design(path).score()
                vals.append(np.abs(sys.moment - sys.gram @ a[0]).max())
            norms.append(np.median(vals))
        assert norms[0] > norms[2]
        assert norms[2] < 0.6 * norms[0]


class TestEvalScore:
    """The score psi(theta) = moment - gram @ theta of the built systems."""

    def test_matches_per_observation_summation(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        theta = rng.standard_normal(4)
        sys = build_regression_score(z, y)
        direct = np.mean([z[t] * (y[t] - theta @ z[t]) for t in range(30)], axis=0)
        assert_allclose(sys.moment - sys.gram @ theta, direct, atol=1e-12)

    def test_gram_reorder_invariance(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((25, 3))
        y = rng.standard_normal(25)
        perm = rng.permutation(25)
        a = build_regression_score(z, y)
        b = build_regression_score(z[perm], y[perm])
        assert_allclose(a.gram, b.gram, atol=1e-12)
        assert_allclose(a.moment, b.moment, atol=1e-12)

    def test_score_at_truth_mean_zero(self):
        # martingale-difference analog: average score over 200 sims near 0
        spec = InarSpec(mu_eps=1.0, alpha=np.array([0.4, 0.2]), burn_in=200)
        theta0 = np.array([1.0, 0.4, 0.2])
        systems = [build_regression_score(*lagged_design(simulate_inar(spec, 300, seed=r), 2))
                   for r in range(200)]
        scores = np.array([sys.moment - sys.gram @ theta0 for sys in systems])
        se = scores.std(axis=0, ddof=1) / np.sqrt(200)
        assert np.all(np.abs(scores.mean(axis=0)) < 4 * se)


class TestWeightedSystem:
    def test_unit_variance_equals_unweighted(self):
        rng = np.random.default_rng(7)
        z = np.abs(rng.standard_normal((20, 3)))
        z[:, 0] = 1.0
        y = rng.standard_normal(20)
        w = build_weighted_system(z[:, [0, 2]], y, z[:, [0, 2]] @ np.array([1.0, 0.0]))
        zt = z[:, [0, 2]]
        assert_allclose(w.gram, zt.T @ zt / 20, atol=1e-12)
        assert_allclose(w.moment, zt.T @ y / 20, atol=1e-12)

    def test_constant_design_hand_computation(self):
        z = np.column_stack([np.ones(4), np.full(4, 2.0)])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        w = build_weighted_system(z, y, z @ np.array([0.5, 0.25]))
        # sigma^2 = 0.5 + 0.25*2 = 1 per row -> weights 1
        assert_allclose(w.gram, [[1.0, 2.0], [2.0, 4.0]], atol=1e-12)
        assert_allclose(w.moment, [2.5, 5.0], atol=1e-12)

    def test_floor_caps_weights(self):
        z = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0])
        w = build_weighted_system(z, y, np.array([0.0, 1.0]))  # first row floored
        # row weights 1/VARIANCE_FLOOR and 1 over rows (1, 0) and (1, 1), n = 2
        big = 1.0 / VARIANCE_FLOOR
        assert_allclose(w.gram, [[(big + 1) / 2, 0.5], [0.5, 0.5]], rtol=1e-15)
        assert_allclose(w.moment, [0.5, 0.5], rtol=1e-15)

    def test_diffusion_constant_weights(self):
        z = np.arange(8.0).reshape(4, 2)
        resp = np.array([1.0, -1.0, 2.0, 0.0])
        w = build_weighted_system(z, resp, np.full(4, 4.0))
        assert_allclose(w.gram, z.T @ z / 4 / 4.0, atol=1e-12)

    @pytest.mark.parametrize("variance", [np.ones(3), np.ones(5), np.ones((4, 1)),
                                          np.array(1.0)],
                             ids=["short", "long", "column", "scalar"])
    def test_one_variance_per_row_required(self, variance):
        z = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(ValueError, match="one value per row"):
            build_weighted_system(z, np.ones(4), variance)


class TestNonFiniteInput:
    def test_nan_moment_rejected(self):
        # would otherwise solve as "optimal" with a NaN feasibility slack
        with pytest.raises(ValueError, match="finite"):
            LinearScoreSystem(gram=np.eye(3), moment=np.array([1.0, np.nan, 0.5]))

    def test_inf_gram_rejected(self):
        gram = np.eye(2)
        gram[0, 1] = gram[1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            LinearScoreSystem(gram=gram, moment=np.zeros(2))

    def test_nan_variance_raises(self):
        z = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(NuisanceError):
            build_weighted_system(z, np.ones(4), z @ np.array([np.nan, 1.0]))
