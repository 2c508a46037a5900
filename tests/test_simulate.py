"""Simulator tests: degenerate cases, long-run identities, determinism."""

import dataclasses
import json
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from oracles import hawkes_reference_events, run_fresh

from sparseproc import _countsim
from sparseproc.errors import DomainError, StationarityError
from sparseproc.harness import builtin_case
from sparseproc.rng import make_rng
from sparseproc.simulate import (HawkesSpec, InarSpec, Minar1Spec, OuSpec,
                                 SeriesSample, bin_counts, lyapunov_covariance,
                                 read_series_csv, simulate_hawkes, simulate_inar,
                                 simulate_minar1, simulate_ou, spec_from_dict,
                                 spec_to_dict, to_jsonable, write_series_csv)

CASE1_ALPHA = np.array([0.3, 0.2, 0.2, 0.2, 0, 0, 0, 0, 0, 0])

# (eta, breakpoints, values, horizon) of the kernels the simulator must
# reproduce byte for byte against the reference loop
HAWKES_KERNELS = {
    # the built-in case: more than 4,096 draws, so blocks are refilled
    "case": (1.0, [1.0], [0.8], 1000.0),
    "two_piece": (1.0, [0.5, 1.0], [1.0, 0.4], 200.0),
    "zero_interior": (1.0, [0.5, 1.0, 2.0], [0.6, 0.0, 0.3], 200.0),
    # narrow pieces: proposals often cross a breakpoint (the nextafter step)
    "narrow_long_tail": (1.5, [0.01, 0.02, 0.03, 0.04, 6.0],
                         [6.0, 3.0, 6.0, 3.0, 0.05], 150.0),
    "horizon_inside_tail": (2.0, [1.0, 10.0], [0.3, 0.05], 5.0),
    "zero_kernel": (2.0, [1.0], [0.0], 200.0),
}


class TestInar:
    def test_invalid_spec_rejected(self):
        with pytest.raises(StationarityError):
            InarSpec(mu_eps=0.5, alpha=np.array([0.6, 0.5]))
        with pytest.raises(ValueError):
            InarSpec(mu_eps=-0.1, alpha=np.array([0.2]))
        with pytest.raises(ValueError):
            InarSpec(mu_eps=0.1, alpha=np.array([-0.2, 0.5]))

    def test_degenerate_all_zero(self):
        spec = InarSpec(mu_eps=0.0, alpha=np.zeros(3), burn_in=10)
        sample = simulate_inar(spec, 50, seed=1)
        assert_array_equal(sample.values, np.zeros((50, 1)))
        assert sample.lag_buffer.shape == (3, 1)

    def test_case1_stationary_mean(self):
        # long-run average against mu / (1 - sum alpha) = 5.0
        spec = InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA)
        n = 100_000
        sample = simulate_inar(spec, n, seed=7)
        x = sample.values[:, 0]
        # the sample-mean sd is inflated by serial correlation ~ 1/(1 - sum alpha)
        sd_mean = x.std() / (1.0 - spec.alpha.sum()) / np.sqrt(n)
        assert abs(x.mean() - 5.0) < 5 * sd_mean

    def test_inar1_autocorrelation(self):
        spec = InarSpec(mu_eps=1.0, alpha=np.array([0.5]))
        x = simulate_inar(spec, 100_000, seed=11).values[:, 0]
        xc = x - x.mean()
        rho1 = (xc[1:] @ xc[:-1]) / (xc @ xc)
        assert abs(rho1 - 0.5) < 0.05

    def test_conditional_mean_and_variance_calibration(self):
        # redraw X_2 given the same realized X_1 = k: Poisson(mu + alpha k)
        spec = InarSpec(mu_eps=1.0, alpha=np.array([0.5]), burn_in=0)
        pairs = np.array([simulate_inar(spec, 2, seed=s).values[:, 0]
                          for s in range(20_000)])
        k = 1  # most common nonzero first value under Poisson(1) start
        group = pairs[pairs[:, 0] == k, 1]
        assert group.size > 4000
        target = spec.mu_eps + spec.alpha[0] * k
        se_mean = group.std() / np.sqrt(group.size)
        assert abs(group.mean() - target) < 4 * se_mean
        # Poisson: conditional variance equals conditional mean
        var = group.var(ddof=1)
        se_var = np.sqrt(2.0 / (group.size - 1)) * var  # normal-theory scale proxy
        assert abs(var - target) < 4 * max(se_var, 0.05)

    def test_determinism(self):
        spec = InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA)
        a = simulate_inar(spec, 500, seed=123)
        b = simulate_inar(spec, 500, seed=123)
        assert_array_equal(a.values, b.values)
        assert_array_equal(a.lag_buffer, b.lag_buffer)
        c = simulate_inar(spec, 500, seed=124)
        assert not np.array_equal(a.values, c.values)


class TestMinar1:
    def test_zero_matrix_iid_poisson(self):
        spec = Minar1Spec(eta=np.ones(4), a_matrix=np.zeros((4, 4)), burn_in=10)
        y = simulate_minar1(spec, 20_000, seed=3).values
        se = y.std(axis=0) / np.sqrt(y.shape[0])
        assert np.all(np.abs(y.mean(axis=0) - 1.0) < 3 * se)

    def test_block_independence(self):
        block = np.array([[0.3, 0.2, 0.2, 0.2],
                          [0.2, 0.3, 0.2, 0.2],
                          [0.0, 0.2, 0.3, 0.2],
                          [0.0, 0.0, 0.2, 0.3]])
        a = np.zeros((8, 8))
        a[:4, :4] = block
        a[4:, 4:] = block
        spec = Minar1Spec(eta=np.full(8, 0.5), a_matrix=a)
        y = simulate_minar1(spec, 50_000, seed=5).values
        corr = np.corrcoef(y, rowvar=False)
        # across blocks: structurally independent
        assert np.abs(corr[:4, 4:]).max() < 0.05
        # within a block: genuinely dependent
        assert corr[0, 1] > 0.1

    def test_fixed_point_mean(self):
        a = np.full((2, 2), 0.45)  # row sum 0.9
        spec = Minar1Spec(eta=np.array([1.0, 2.0]), a_matrix=a)
        y = simulate_minar1(spec, 200_000, seed=9).values
        expected = np.linalg.solve(np.eye(2) - a, spec.eta)
        assert_allclose(y.mean(axis=0), expected, rtol=0.05)

    def test_row_sum_one_rejected(self):
        with pytest.raises(StationarityError):
            Minar1Spec(eta=np.ones(2), a_matrix=np.array([[0.5, 0.5], [0.0, 0.5]]))


@pytest.fixture
def numpy_loop(monkeypatch):
    """``fn(*args)`` with the compiled count loop unavailable, so the numpy loop runs."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(_countsim, "load", lambda: None)
            return fn(*args)
    return run


@pytest.fixture
def kernel():
    compiled = _countsim.load()
    if compiled is None:
        pytest.skip("the compiled count loop cannot be built here")
    return compiled


@pytest.fixture(scope="module", params=["compiled", "python"])
def hawkes_path(request):
    """``simulate_hawkes`` through the compiled loop, or with it unavailable."""
    if request.param == "compiled":
        if _countsim.load() is None:
            pytest.skip("the compiled loop cannot be built here")
        return simulate_hawkes

    def python_loop(spec, seed):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_countsim, "load", lambda: None)
            return simulate_hawkes(spec, seed)
    return python_loop


def hawkes_spec(name: str) -> HawkesSpec:
    eta, bp, vals, horizon = HAWKES_KERNELS[name]
    return HawkesSpec(eta=eta, kernel_breakpoints=np.array(bp), kernel_values=np.array(vals),
                      horizon=horizon)


def assert_same_series(a: SeriesSample, b: SeriesSample):
    assert a.values.tobytes() == b.values.tobytes()
    assert a.lag_buffer.tobytes() == b.lag_buffer.tobytes()


def random_count_specs(count: int, seed: int):
    """INAR and MINAR(1) specs of every order from 0, means up to 30, some burn_in=0."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        p = i % 25
        alpha = rng.dirichlet(np.ones(p)) * rng.uniform(0.0, 0.95) if p else np.zeros(0)
        burn_in = 0 if i % 4 == 0 else int(rng.integers(1, 300))
        specs.append(InarSpec(mu_eps=rng.uniform(0.0, 30.0), alpha=alpha, burn_in=burn_in))
        d = 1 + i % 12
        a = rng.uniform(0.0, 1.0, (d, d)) * (rng.uniform(size=(d, d)) < 0.4)
        a *= rng.uniform(0.0, 0.95) / max(a.sum(axis=1).max(), 1.0)
        specs.append(Minar1Spec(eta=rng.uniform(0.0, 30.0, d), a_matrix=a, burn_in=burn_in))
    return specs


# two 8 x 8 circulant blocks with rows (0.2, 0.1, ..., 0.1)
TENTHS_BLOCKS = np.kron(np.eye(2), [np.roll([0.2] + [0.1] * 7, k) for k in range(8)])


def simulate_count(spec, n: int, seed: int) -> SeriesSample:
    fn = simulate_inar if isinstance(spec, InarSpec) else simulate_minar1
    return fn(spec, n, seed)


class TestCompiledCountLoop:
    """The compiled loop of ``_countsim`` against the numpy loop it stands in for."""

    def test_case1_case2_seeds(self, kernel, numpy_loop):
        for case_id in ("case1", "case2"):
            spec = builtin_case(case_id).model
            for seed in range(100):
                assert_same_series(simulate_inar(spec, 2000, seed),
                                   numpy_loop(simulate_inar, spec, 2000, seed))

    def test_case1_seeds_cross_the_poisson_switch(self):
        # at seed 19 the exact mean 0.5 + 0.3a + 0.2(b + c + d) is 10 at some step while
        # numpy's rounded lambda is below 10: that step takes the multiplication method,
        # where a sum rounded to 10 in another order would take transformed rejection
        spec = builtin_case("case1").model
        x = simulate_inar(InarSpec(mu_eps=0.5, alpha=spec.alpha, burn_in=0), 3000, 19).values
        x = x[:, 0]
        lams = [spec.mu_eps + spec.alpha @ x[t - 10:t][::-1].copy() for t in range(10, x.size)]
        exact = 5 + 3 * x[9:-1] + 2 * (x[8:-2] + x[7:-3] + x[6:-4])  # 10 x exact mean
        assert np.any((exact == 100) & (np.array(lams) < 10.0))

    def test_case3_case4_seeds(self, kernel, numpy_loop):
        for case_id in ("case3", "case4"):
            spec = builtin_case(case_id).model
            for seed in range(20):
                assert_same_series(simulate_minar1(spec, 500, seed),
                                   numpy_loop(simulate_minar1, spec, 500, seed))

    def test_minar_means_at_ten(self, kernel, numpy_loop):
        # rows of eight tenths: lambda is often exactly 10 in exact arithmetic, and a
        # sequential row sum rounds some of those to the other side of 10 from dgemv
        spec = Minar1Spec(eta=np.full(16, 0.5), a_matrix=TENTHS_BLOCKS)
        y = simulate_minar1(Minar1Spec(spec.eta, spec.a_matrix, burn_in=0), 3000, 0).values
        lams = np.array([spec.eta + spec.a_matrix @ row for row in y[:-1]])
        sequential = spec.eta + np.cumsum(spec.a_matrix * y[:-1, None, :], axis=2)[..., -1]
        assert np.any((lams >= 10.0) != (sequential >= 10.0))
        for seed in range(10):
            assert_same_series(simulate_minar1(spec, 2000, seed),
                               numpy_loop(simulate_minar1, spec, 2000, seed))

    def test_random_specs(self, kernel, numpy_loop):
        specs = random_count_specs(20, seed=2024)
        assert min(s.order for s in specs if isinstance(s, InarSpec)) == 0
        for i, spec in enumerate(specs):
            n = 1 if i % 5 == 0 else 400
            for seed in (i, 1000 + i):
                assert_same_series(simulate_count(spec, n, seed),
                                   numpy_loop(simulate_count, spec, n, seed))

    @pytest.mark.parametrize("spec", [
        InarSpec(mu_eps=0.0, alpha=np.zeros(3), burn_in=5),
        InarSpec(mu_eps=25.0, alpha=np.zeros(0), burn_in=0),
        InarSpec(mu_eps=12.0, alpha=np.array([0.4, 0.3]), burn_in=0),
        Minar1Spec(eta=np.full(5, 15.0), a_matrix=np.zeros((5, 5)), burn_in=0),
        Minar1Spec(eta=np.array([0.0, 9.5]), a_matrix=np.array([[0.0, 0.0], [0.5, 0.4]])),
        Minar1Spec(eta=np.array([3.0]), a_matrix=np.array([[0.7]])),
    ], ids=["zero_mean", "p0_lambda25", "lambda_above_10", "zero_a", "zero_eta", "d1"])
    def test_edge_specs(self, kernel, numpy_loop, spec):
        for n in (1, 50):
            assert_same_series(simulate_count(spec, n, 7), numpy_loop(simulate_count, spec, n, 7))

    @pytest.mark.parametrize("spec", [
        InarSpec(mu_eps=2e12, alpha=np.array([0.1])),
        InarSpec(mu_eps=9e11, alpha=np.array([0.5]), burn_in=0),  # exceeds at the 2nd step
        Minar1Spec(eta=np.array([1.0, 2e12]), a_matrix=np.zeros((2, 2))),
        Minar1Spec(eta=np.array([9e11]), a_matrix=np.array([[0.5]]), burn_in=0),
    ], ids=["inar_first", "inar_later", "minar_first", "minar_later"])
    def test_overflow_raises_on_both_paths(self, kernel, numpy_loop, spec):
        with pytest.raises(DomainError, match="conditional mean overflow") as compiled:
            simulate_count(spec, 10, 1)
        with pytest.raises(DomainError, match="conditional mean overflow") as reference:
            numpy_loop(simulate_count, spec, 10, 1)
        assert str(compiled.value) == str(reference.value)

    def test_rejects_buffers_it_cannot_read(self, kernel):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            kernel.inar(rng, 0.5, np.zeros(4)[::2], np.empty(3), 1e12)
        with pytest.raises(ValueError, match="d x d"):
            kernel.minar1(rng, np.zeros(2), np.zeros((3, 3)), np.empty((3, 2)), 1e12)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            kernel.hawkes(rng, 1.0, np.array([0.5, 0.7, 1.0, 2.0])[::2], np.zeros(2), 10.0)
        with pytest.raises(ValueError, match="equal length"):
            kernel.hawkes(rng, 1.0, np.array([0.5, 1.0]), np.zeros(3), 10.0)
        # specs hold C-contiguous copies of strided input
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.3, 9.0, 0.2, 9.0])[::2])
        assert spec.alpha.flags.c_contiguous
        hawkes = HawkesSpec(eta=1.0, kernel_breakpoints=np.array([0.5, 9.0, 1.0, 9.0])[::2],
                            kernel_values=np.array([0.4, 9.0, 0.2, 9.0])[::2], horizon=5.0)
        assert hawkes.kernel_breakpoints.flags.c_contiguous
        assert hawkes.kernel_values.flags.c_contiguous

    def test_cold_cache_without_compiler_falls_back(self, numpy_loop, monkeypatch, tmp_path):
        empty_bin = tmp_path / "bin"
        empty_bin.mkdir()
        cache = tmp_path / "cache"
        monkeypatch.setenv("PATH", str(empty_bin))
        monkeypatch.setattr(_countsim, "_CACHE_DIR", str(cache))
        monkeypatch.setattr(_countsim, "_kernel", _countsim._UNSET)
        spec = builtin_case("case1").model
        assert _countsim.load() is None
        assert_same_series(simulate_inar(spec, 300, 5), numpy_loop(simulate_inar, spec, 300, 5))
        hawkes = hawkes_spec("narrow_long_tail")
        assert simulate_hawkes(hawkes, 3).tobytes() == hawkes_reference_events(hawkes, 3).tobytes()
        # the failed build leaves no temporary file behind
        assert list(cache.iterdir()) == []

    def test_build_removes_superseded_libraries(self, kernel, numpy_loop, monkeypatch,
                                                tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "other.so").write_bytes(b"")
        edited = tmp_path / "_countsim.c"
        edited.write_text(open(_countsim._SOURCE).read() + "/* another source */\n")
        monkeypatch.setattr(_countsim, "_CACHE_DIR", str(cache))
        spec = builtin_case("case1").model
        built = []
        for source in (_countsim._SOURCE, str(edited)):
            monkeypatch.setattr(_countsim, "_SOURCE", source)
            monkeypatch.setattr(_countsim, "_kernel", _countsim._UNSET)
            assert _countsim.load() is not None
            assert_same_series(simulate_inar(spec, 300, 5),
                               numpy_loop(simulate_inar, spec, 300, 5))
            built.append([p.name for p in cache.glob("_countsim.*")])
            assert (cache / "other.so").exists()
        # each build leaves one library, its own: the other key's is removed
        assert [len(names) for names in built] == [1, 1] and built[0] != built[1]

    def test_failed_or_interrupted_build_leaves_no_file(self, monkeypatch, tmp_path):
        cache = tmp_path / "cache"
        broken = tmp_path / "_countsim.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(_countsim, "_CACHE_DIR", str(cache))
        monkeypatch.setattr(_countsim, "_SOURCE", str(broken))
        monkeypatch.setattr(_countsim, "_kernel", _countsim._UNSET)
        if shutil.which("cc"):
            assert _countsim.load() is None  # cc exits non-zero
            assert list(cache.iterdir()) == []

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(subprocess, "run", interrupted)
        monkeypatch.setattr(_countsim, "_kernel", _countsim._UNSET)
        with pytest.raises(KeyboardInterrupt):
            _countsim.load()
        assert list(cache.iterdir()) == []

    def test_cache_key_covers_the_compile_command(self, monkeypatch, tmp_path):
        assert "-ffp-contract=off" in _countsim._compile_command(64, "a.c", "a.so")
        key = _countsim._cached_path(64)
        assert _countsim._cached_path(32) != key
        # the same source text reached by another path keys the same file
        copy = tmp_path / "_countsim.c"
        shutil.copyfile(_countsim._SOURCE, copy)
        monkeypatch.setattr(_countsim, "_SOURCE", str(copy))
        assert _countsim._cached_path(64) == key
        monkeypatch.setattr(_countsim, "_CFLAGS", ("-O3", "-shared", "-fPIC"))
        assert _countsim._cached_path(64) != key

    def test_warm_cache_loads_without_compiler(self, kernel, tmp_path):
        empty_bin = tmp_path / "bin"
        empty_bin.mkdir()
        out = run_fresh(WARM_CACHE_SCRIPT, PATH=str(empty_bin))
        assert out["kernel"] is True
        spec = builtin_case("case3").model
        assert out["values"] == simulate_minar1(spec, 20, 3).values.tolist()

    def test_import_neither_builds_nor_loads(self):
        assert run_fresh(IMPORT_SCRIPT) == {"unset": True, "mapped": False}


WARM_CACHE_SCRIPT = """
import json
from sparseproc import _countsim
from sparseproc.harness import builtin_case
from sparseproc.simulate import simulate_minar1
values = simulate_minar1(builtin_case("case3").model, 20, 3).values.tolist()
print(json.dumps({"kernel": _countsim.load() is not None, "values": values}))
"""

IMPORT_SCRIPT = """
import json, os
import sparseproc
from sparseproc import _countsim
maps = "/proc/self/maps"
mapped = os.path.exists(maps) and "_countsim." in open(maps).read()
print(json.dumps({"unset": _countsim._kernel is _countsim._UNSET, "mapped": mapped}))
"""


class TestOu:
    def test_unstable_drift_rejected(self):
        with pytest.raises(StationarityError):
            OuSpec(a_matrix=np.array([[0.1]]), sigma_diag=np.array([1.0]),
                   delta=0.1, n_steps=10)

    def test_noiseless_decay(self):
        spec = OuSpec(a_matrix=-np.eye(2), sigma_diag=np.full(2, 1e-12),
                      delta=0.05, n_steps=200, substeps=50)
        path = simulate_ou(spec, seed=2, y0=np.array([1.0, -2.0])).values
        ratios = path[1:] / path[:-1]
        assert_allclose(ratios, np.exp(-0.05), atol=1e-3)

    def test_scalar_stationary_variance(self):
        spec = OuSpec(a_matrix=np.array([[-1.0]]), sigma_diag=np.array([1.0]),
                      delta=0.05, n_steps=200_000, substeps=4)
        x = simulate_ou(spec, seed=4).values[:, 0]
        assert abs(x.var() - 0.5) < 0.025  # 5% relative at n*delta = 10^4

    def test_lyapunov_against_fixed_point_oracle(self):
        a = np.array([[-1.0, 0.3], [0.0, -0.5]])
        sig = np.array([1.0, 0.7])
        v = lyapunov_covariance(a, sig)
        # oracle: iterate the discretized equation V <- V + dt (A V + V A' + Q)
        q = np.diag(sig ** 2)
        v_it = np.zeros_like(v)
        dt = 1e-3
        for _ in range(200_000):
            v_it = v_it + dt * (a @ v_it + v_it @ a.T + q)
        assert_allclose(v, v_it, atol=1e-8)
        # defining equation residual
        assert_allclose(a @ v + v @ a.T + q, np.zeros_like(v), atol=1e-12)

    def test_block_structure_and_size_limit(self):
        a = np.diag([-1.0, -2.0, -3.0])
        v = lyapunov_covariance(a, np.ones(3))
        assert_allclose(v, np.diag([0.5, 0.25, 1.0 / 6.0]), atol=1e-12)
        big = -np.eye(9) + 0.01 * np.ones((9, 9))
        with pytest.raises(ValueError, match="exceeds"):
            lyapunov_covariance(big, np.ones(9))

    def test_marginal_covariance_matches_lyapunov(self):
        a = np.array([[-0.6, 0.2], [0.0, -0.8]])
        spec = OuSpec(a_matrix=a, sigma_diag=np.array([1.0, 1.0]),
                      delta=0.1, n_steps=100_000, substeps=6)
        path = simulate_ou(spec, seed=8).values
        v = lyapunov_covariance(a, spec.sigma_diag)
        emp = np.cov(path.T)
        assert np.all(np.abs(emp - v) < 0.05 * np.abs(v).max() + 0.05 * np.abs(v))


# each spec differs from a valid one in a single non-finite field
NON_FINITE_SPECS = {
    "ou_sigma_inf": (OuSpec, dict(a_matrix=-np.eye(1), sigma_diag=[np.inf], delta=0.1,
                                  n_steps=3)),
    "ou_delta_inf": (OuSpec, dict(a_matrix=-np.eye(1), sigma_diag=[1.0], delta=np.inf,
                                  n_steps=3)),
    "ou_drift_nan": (OuSpec, dict(a_matrix=[[np.nan]], sigma_diag=[1.0], delta=0.1,
                                  n_steps=3)),
    "inar_mu_nan": (InarSpec, dict(mu_eps=np.nan, alpha=[0.3])),
    "inar_mu_inf": (InarSpec, dict(mu_eps=np.inf, alpha=[0.3])),
    "inar_alpha_nan": (InarSpec, dict(mu_eps=0.5, alpha=[np.nan])),
    "minar_eta_nan": (Minar1Spec, dict(eta=[np.nan], a_matrix=[[0.3]])),
    "minar_a_nan": (Minar1Spec, dict(eta=[1.0], a_matrix=[[np.nan]])),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_SPECS))
def test_non_finite_spec_rejected(name):
    cls, fields = NON_FINITE_SPECS[name]
    with pytest.raises(ValueError, match="finite"):
        cls(**fields)


class TestHawkes:
    def test_zero_kernel_is_poisson(self):
        spec = HawkesSpec(eta=2.0, kernel_breakpoints=np.array([1.0]),
                          kernel_values=np.array([0.0]), horizon=500.0)
        counts = [len(simulate_hawkes(spec, s)) for s in range(20)]
        expected = 2.0 * 500.0
        se = np.sqrt(expected / 20)
        assert abs(np.mean(counts) - expected) < 4 * se

    def test_mean_rate_identity(self):
        spec = HawkesSpec(eta=1.0, kernel_breakpoints=np.array([1.0]),
                          kernel_values=np.array([0.8]), horizon=2000.0)
        rates = np.array([len(simulate_hawkes(spec, 50 + s)) / spec.horizon
                          for s in range(8)])
        assert abs(rates.mean() - 5.0) < 0.5

    def test_mean_rate_identity_two_piece(self):
        spec = HawkesSpec(eta=1.0, kernel_breakpoints=np.array([0.5, 1.0]),
                          kernel_values=np.array([1.0, 0.4]), horizon=2000.0)
        rates = np.array([len(simulate_hawkes(spec, 70 + s)) / spec.horizon
                          for s in range(8)])
        target = spec.eta / (1.0 - spec.branching_ratio())
        se = rates.std(ddof=1) / np.sqrt(rates.size)
        assert abs(rates.mean() - target) < 4 * se

    @pytest.mark.parametrize("name", sorted(HAWKES_KERNELS))
    def test_matches_reference_loop(self, hawkes_path, name):
        spec = hawkes_spec(name)
        for seed in range(5):
            events = hawkes_path(spec, seed)
            assert events.tobytes() == hawkes_reference_events(spec, seed).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=4),
           st.floats(0.1, 2.0), st.floats(0.5, 10.0), st.floats(0.05, 0.8),
           st.integers(0, 2**32 - 1))
    def test_matches_reference_random_kernels(self, hawkes_path, pieces, eta, horizon, ratio,
                                              seed):
        widths = np.array([w for w, _ in pieces])
        heights = np.array([h for _, h in pieces])
        integral = widths @ heights
        vals = heights * (ratio / integral) if integral > 1e-3 else heights
        spec = HawkesSpec(eta=eta, kernel_breakpoints=np.cumsum(widths),
                          kernel_values=vals, horizon=horizon)
        events = hawkes_path(spec, seed)
        assert events.tobytes() == hawkes_reference_events(spec, seed).tobytes()

    def test_builtin_case_same_events_on_both_paths(self, kernel, numpy_loop):
        spec = builtin_case("hawkes").model
        for seed in range(1, 21):
            events = simulate_hawkes(spec, seed)
            assert events.tobytes() == numpy_loop(simulate_hawkes, spec, seed).tobytes()

    @pytest.mark.parametrize("name", ["case", "narrow_long_tail", "horizon_inside_tail"])
    def test_compiled_events_do_not_depend_on_capacity(self, kernel, name):
        # a capacity of 1 fills the buffer at 1, 2, 4, ... events, and each time resumes
        spec = hawkes_spec(name)
        for seed in range(3):
            resumed = kernel.hawkes(make_rng(seed), spec.eta, spec.kernel_breakpoints,
                                    spec.kernel_values, spec.horizon, capacity=1)
            assert resumed.tobytes() == simulate_hawkes(spec, seed).tobytes()

    @pytest.mark.parametrize("fields", [
        {"eta": np.nan},
        {"eta": np.inf},
        {"horizon": np.inf},
        {"horizon": np.nan},
        {"kernel_values": [np.nan, 0.1]},
        {"kernel_breakpoints": [0.5, np.nan]},
        {"kernel_breakpoints": [0.5, np.inf], "kernel_values": [0.5, 0.0]},
    ])
    def test_non_finite_spec_rejected(self, fields):
        spec = {"eta": 1.0, "kernel_breakpoints": [0.5, 1.0],
                "kernel_values": [0.5, 0.2], "horizon": 10.0}
        spec.update(fields)
        with pytest.raises(ValueError, match="finite"):
            HawkesSpec(**spec)

    def test_supercritical_rejected(self):
        with pytest.raises(StationarityError):
            HawkesSpec(eta=1.0, kernel_breakpoints=np.array([1.0]),
                       kernel_values=np.array([1.2]), horizon=10.0)

    def test_events_sorted_within_horizon(self):
        spec = HawkesSpec(eta=1.0, kernel_breakpoints=np.array([0.5, 1.0]),
                          kernel_values=np.array([1.0, 0.4]), horizon=200.0)
        ev = simulate_hawkes(spec, 123)
        assert np.all(np.diff(ev) > 0)
        assert ev.min() > 0 and ev.max() <= 200.0


class TestBinCounts:
    def test_no_events(self):
        sample = bin_counts(np.array([]), 0.1, 1.0)
        assert_array_equal(sample.values, np.zeros((10, 1)))

    def test_direct_count(self):
        sample = bin_counts(np.array([0.05, 0.15, 0.17]), 0.1, 0.3)
        assert_array_equal(sample.values[:, 0], [1, 2, 0])

    def test_boundary_goes_left(self):
        # events exactly at k*delta belong to the bin ending there
        sample = bin_counts(np.array([0.1, 0.2]), 0.1, 0.3)
        assert_array_equal(sample.values[:, 0], [1, 1, 0])

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            bin_counts(np.array([0.5]), 0.0, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), max_size=60),
           st.sampled_from([0.05, 0.1, 0.3, 1.0]))
    def test_conservation(self, events, delta):
        ev = np.sort(np.asarray(events))
        sample = bin_counts(ev, delta, 10.0)
        assert sample.values.sum() == len(events)


class TestSeriesIo:
    def test_roundtrip_counts(self, tmp_path):
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.4, 0.1]), burn_in=20)
        sample = simulate_inar(spec, 100, seed=6)
        path = tmp_path / "series.csv"
        write_series_csv(sample, path)
        back = read_series_csv(path, kind="counts")
        assert_array_equal(back.values, sample.values)
        assert_array_equal(back.lag_buffer, sample.lag_buffer)

    def test_roundtrip_multivariate(self, tmp_path):
        spec = Minar1Spec(eta=np.ones(3), a_matrix=np.zeros((3, 3)), burn_in=5)
        sample = simulate_minar1(spec, 50, seed=6)
        path = tmp_path / "series.csv"
        write_series_csv(sample, path)
        back = read_series_csv(path, kind="counts")
        assert_array_equal(back.values, sample.values)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            SeriesSample(values=np.array([1.0, -2.0]), kind="counts")
        with pytest.raises(ValueError):
            SeriesSample(values=np.array([1.5]), kind="counts")
        for kind in ("counts", "reals"):
            for bad in (np.inf, -np.inf, np.nan):
                with pytest.raises(ValueError, match="finite"):
                    SeriesSample(values=np.array([1.0, bad]), kind=kind)
                with pytest.raises(ValueError, match="finite"):
                    SeriesSample(values=np.ones(3), lag_buffer=np.array([bad]), kind=kind)
            for delta in (np.nan, np.inf, 0.0, -0.1):
                with pytest.raises(ValueError, match="delta"):
                    SeriesSample(values=np.ones(3), delta=delta, kind=kind)
            assert SeriesSample(values=np.ones(3), delta=0.1, kind=kind).delta == 0.1

    def test_spec_dict_roundtrip(self):
        specs = [
            InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA),
            Minar1Spec(eta=np.ones(2), a_matrix=np.full((2, 2), 0.2)),
            OuSpec(a_matrix=-np.eye(2), sigma_diag=np.ones(2), delta=0.1, n_steps=5),
            HawkesSpec(eta=1.0, kernel_breakpoints=np.array([1.0]),
                       kernel_values=np.array([0.8]), horizon=10.0),
        ]
        for spec, tag in zip(specs, ["inar", "minar1", "ou", "hawkes"]):
            d = json.loads(json.dumps(spec_to_dict(spec)))
            names = [f.name for f in dataclasses.fields(spec)]
            assert list(d) == ["model", *names] and d["model"] == tag
            back = spec_from_dict(d)
            assert type(back) is type(spec)
            for name in names:
                assert_array_equal(getattr(back, name), getattr(spec, name))
        for not_a_spec in (SeriesSample(values=np.ones(3)), {"model": "inar"}, None):
            with pytest.raises(TypeError, match="unknown spec type"):
                spec_to_dict(not_a_spec)

    def test_to_jsonable_rules(self):
        @dataclasses.dataclass
        class Inner:
            x: np.ndarray
            miss: float

        @dataclasses.dataclass
        class Outer:
            inner: Inner
            pairs: tuple
            count: np.int64

        obj = Outer(Inner(np.array([1.5, 2.0]), float("nan")), ((1, np.float64(0.25)),),
                    np.int64(3))
        got = to_jsonable({"outer": obj, "nan": float("nan")})
        assert got == {"outer": {"inner": {"x": [1.5, 2.0], "miss": None},
                                 "pairs": [[1, 0.25]], "count": 3},
                       "nan": None}
        assert type(got["outer"]["count"]) is int
        assert to_jsonable(Outer) is Outer  # a dataclass type is left alone
