"""Simulator tests: degenerate cases, long-run identities, determinism."""

import ctypes
import dataclasses
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from oracles import hawkes_reference_events, run_fresh

from sparseproc import _countsim, simulate
from sparseproc.dantzig import cross_validate_lambda, solve_dantzig_path
from sparseproc.errors import DomainError, StationarityError
from sparseproc.harness import builtin_case, simulate_series
from sparseproc.rng import make_rng
from sparseproc.scores import LinearScoreSystem, center_design
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


INTEGER_FIELD_SPECS = {
    "inar": InarSpec(mu_eps=0.5, alpha=np.array([0.3])),
    "minar1": Minar1Spec(eta=np.ones(2), a_matrix=np.full((2, 2), 0.1)),
    "ou": OuSpec(a_matrix=-np.eye(2), sigma_diag=np.ones(2), delta=0.1, n_steps=20, substeps=2),
}


@pytest.mark.parametrize("loop", ["compiled", "python"])
@pytest.mark.parametrize("model, field", [("inar", "burn_in"), ("minar1", "burn_in"),
                                          ("ou", "n_steps"), ("ou", "substeps")])
@pytest.mark.parametrize("value", [2.5, True])
def test_integer_fields_rejected_before_any_draw(monkeypatch, loop, model, field, value):
    # checked when the spec is built: a float burn_in would reach the count loops, where
    # the compiled one raises DomainError and the numpy one TypeError; a bool would run as 1
    if loop == "python":
        monkeypatch.setattr(_countsim, "load", lambda: None)
    elif _countsim.load() is None:
        pytest.skip("the compiled count loop cannot be built here")
    spec = INTEGER_FIELD_SPECS[model]
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        simulate_series(dataclasses.replace(spec, **{field: value}), 30, 0)
    assert type(getattr(dataclasses.replace(spec, **{field: np.int64(3)}), field)) is int


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
# four 4 x 4 circulant blocks with rows (0.3, 0.2, 0.2, 0.2), which take the block sum
TENTHS_4X4_BLOCKS = np.kron(np.eye(4), [np.roll([0.3, 0.2, 0.2, 0.2], k) for k in range(4)])


def simulate_count(spec, n: int, seed: int) -> SeriesSample:
    fn = simulate_inar if isinstance(spec, InarSpec) else simulate_minar1
    return fn(spec, n, seed)


def random_block_specs(seed: int):
    """MINAR(1) specs with aligned 4 x 4 diagonal blocks of non-tidy entries and exact
    zeros, some eta entries 0, at d = 4, 8, 12, 100 and 200."""
    rng = np.random.default_rng(seed)
    specs = []
    for d in (4, 8, 12, 100, 200):
        a = np.zeros((d, d))
        for b in range(0, d, 4):
            a[b:b + 4, b:b + 4] = rng.uniform(0.0, 1.0, (4, 4)) * (rng.uniform(size=(4, 4)) < 0.7)
        a *= rng.uniform(0.5, 0.95) / max(a.sum(axis=1).max(), 1e-3)
        eta = rng.uniform(0.0, 30.0, d) * (rng.uniform(size=d) < 0.8)
        specs.append(Minar1Spec(eta=eta, a_matrix=a, burn_in=int(rng.integers(0, 300))))
    return specs


def load_variant(monkeypatch, tmp_path, old: str, new: str):
    """The compiled loops built from a copy of ``_countsim.c`` with ``old`` made ``new``,
    loaded in place of the package's own for the rest of the test."""
    source = Path(_countsim._SOURCE).read_text()
    assert source.count(old) == 1
    variant = tmp_path / "_countsim.c"
    variant.write_text(source.replace(old, new))
    monkeypatch.setattr(_countsim, "_SOURCE", str(variant))
    monkeypatch.setattr(_countsim, "_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(_countsim, "_kernel", _countsim._UNSET)
    variant_kernel = _countsim.load()
    assert variant_kernel is not None
    return variant_kernel


@pytest.mark.parametrize("spec", [
    InarSpec(mu_eps=0.5, alpha=CASE1_ALPHA, burn_in=300),
    Minar1Spec(eta=np.ones(4), a_matrix=np.full((4, 4), 0.1), burn_in=300),
], ids=["inar", "minar1"])
def test_sample_holds_no_burn_in(spec):
    # no array of the sample holds more rows than its lag buffer and values, as one
    # that kept the 300 burn-in steps would
    simulate = simulate_inar if isinstance(spec, InarSpec) else simulate_minar1
    sample = simulate(spec, 50, seed=4)
    p = sample.lag_buffer.shape[0]
    for arr in (sample.values, sample.lag_buffer):
        assert arr.base is None or arr.base.shape[0] <= p + 50
    # the lag rows are the steps just before values[0]: the same stream without burn-in
    whole = simulate(dataclasses.replace(spec, burn_in=0), 350, seed=4).values
    assert sample.lag_buffer.tobytes() == whole[300 - p:300].tobytes()
    assert sample.values.tobytes() == whole[300:].tobytes()
    if isinstance(spec, Minar1Spec):  # and, in memory, the row before values[0]
        assert sample.values.ctypes.data - sample.lag_buffer.ctypes.data == 4 * 8


def count_draws(steps, spec, n: int, rng: np.random.Generator):
    """``steps`` (a compiled or numpy count loop) run on ``rng`` for ``spec``: its return,
    the bytes it wrote and the generator's state after."""
    if isinstance(spec, InarSpec):
        out = np.empty(spec.order + n)
        drawn = steps(rng, spec.mu_eps, spec.alpha, out, 1e12, spec.burn_in)
    else:
        out = np.empty((n + 1, spec.dim))
        drawn = steps(rng, spec.eta, spec.a_matrix, out, 1e12, spec.burn_in)
    return drawn, out.tobytes(), rng.bit_generator.state


class TestDrawRule:
    """The compiled loops draw each count from uniforms fetched ahead and step the
    generator back over those left: the series and the generator's final state are
    the numpy loop's."""

    @staticmethod
    def assert_same_draws(kernel, spec, n, seed=3, rng_of=make_rng):
        compiled = kernel.inar if isinstance(spec, InarSpec) else kernel.minar1
        numpy_steps = simulate._inar_steps if isinstance(spec, InarSpec) else simulate._minar1_steps
        got = count_draws(compiled, spec, n, rng_of(seed))
        assert got == count_draws(numpy_steps, spec, n, rng_of(seed))
        return got

    @pytest.mark.parametrize("spec", [
        InarSpec(mu_eps=9.0, alpha=np.array([0.3, 0.2]), burn_in=20),
        Minar1Spec(eta=np.linspace(5.0, 25.0, 6), a_matrix=np.full((6, 6), 0.1), burn_in=20),
    ], ids=["inar", "minar1"])
    def test_means_mostly_ten_or_more(self, kernel, spec):
        # numpy's transformed rejection, run on the shim that reads the block
        _, values, _ = self.assert_same_draws(kernel, spec, 2000)
        if isinstance(spec, InarSpec):
            x = np.frombuffer(values)
            lams = spec.mu_eps + spec.alpha[0] * x[1:-1] + spec.alpha[1] * x[:-2]
        else:
            y = np.frombuffer(values).reshape(-1, spec.dim)
            lams = spec.eta + y[:-1] @ spec.a_matrix.T
        assert np.mean(lams >= 10.0) > 0.6

    def test_zero_means_draw_no_uniform(self, kernel):
        untouched = make_rng(3).bit_generator.state
        for spec in (InarSpec(mu_eps=0.0, alpha=np.zeros(3), burn_in=5),
                     Minar1Spec(eta=np.zeros(3), a_matrix=np.zeros((3, 3)), burn_in=5)):
            assert self.assert_same_draws(kernel, spec, 500)[2] == untouched
        # coordinates 0 and 2 (eta 0, a zero row) have mean 0 among the others
        a = np.array([[0.0, 0.0, 0.0], [0.3, 0.2, 0.1], [0.0, 0.0, 0.0]])
        spec = Minar1Spec(eta=np.array([0.0, 1.5, 0.0]), a_matrix=a, burn_in=5)
        y = np.frombuffer(self.assert_same_draws(kernel, spec, 500)[1]).reshape(-1, 3)
        assert not y[:, [0, 2]].any() and y[:, 1].any()

    def test_memo_evicts(self, kernel):
        # a dense matrix of non-tidy entries: thousands of distinct means below 10, more
        # than the memo of e^-lambda holds
        rng = np.random.default_rng(11)
        a = rng.uniform(0.0, 1.0, (12, 12))
        a *= 0.8 / a.sum(axis=1).max()
        spec = Minar1Spec(eta=rng.uniform(0.0, 2.0, 12), a_matrix=a, burn_in=0)
        assert not kernel.block_sums_match(a)
        y = np.frombuffer(self.assert_same_draws(kernel, spec, 1000)[1]).reshape(-1, 12)
        lams = spec.eta + y[:-1] @ a.T
        assert np.unique(lams[lams < 10.0]).size > 4000

    @pytest.mark.parametrize("burn_in", [0, 1, 2])
    def test_short_burn_in(self, kernel, burn_in):
        self.assert_same_draws(kernel, InarSpec(mu_eps=1.5, alpha=np.array([0.4]),
                                                burn_in=burn_in), 30)
        for spec in (Minar1Spec(eta=np.full(8, 0.6), a_matrix=TENTHS_4X4_BLOCKS[:8, :8] / 2,
                                burn_in=burn_in),
                     Minar1Spec(eta=np.array([1.0, 12.0]), a_matrix=np.full((2, 2), 0.3),
                                burn_in=burn_in)):
            _, rows, _ = self.assert_same_draws(kernel, spec, 30)
            # row 0 is the last burn-in step, the zero state without one
            first = np.frombuffer(rows)[:spec.dim]
            assert first.any() if burn_in else not first.any()

    @pytest.mark.parametrize("burn_in", [0, 1, 2, 3, 4, 300])
    def test_inar_lag_rows(self, kernel, burn_in):
        # p = 3: out[:3] holds the last three burn-in steps, zeros where fewer were drawn
        spec = InarSpec(mu_eps=2.0, alpha=np.array([0.3, 0.2, 0.1]), burn_in=burn_in)
        _, rows, _ = self.assert_same_draws(kernel, spec, 40)
        _, whole, _ = count_draws(simulate._inar_steps, dataclasses.replace(spec, burn_in=0),
                                  burn_in + 40, make_rng(3))
        assert rows == whole[8 * burn_in:]

    def test_pending_half_is_kept(self, kernel):
        def rng_of(seed):
            rng = make_rng(seed)
            rng.random(dtype=np.float32)  # leaves the second 32-bit half of a draw pending
            assert rng.bit_generator.state["has_uint32"] == 1
            return rng
        for spec in (InarSpec(mu_eps=2.0, alpha=np.array([0.3]), burn_in=10),
                     builtin_case("case4").model):
            state = self.assert_same_draws(kernel, spec, 200, rng_of=rng_of)[2]
            assert state["has_uint32"] == 1

    def test_other_bit_generators_rejected(self, kernel):
        # MT19937 has no advance; Philox's steps four draws at a time
        for bitgen in (np.random.MT19937(0), np.random.Philox(0)):
            rng = np.random.Generator(bitgen)
            with pytest.raises(ValueError, match="PCG64"):
                kernel.inar(rng, 0.5, np.zeros(2), np.empty(10), 1e12, 0)
            with pytest.raises(ValueError, match="PCG64"):
                kernel.minar1(rng, np.ones(2), np.zeros((2, 2)), np.empty((10, 2)), 1e12, 0)


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
                assert_same_series(simulate_minar1(spec, 2000, seed),
                                   numpy_loop(simulate_minar1, spec, 2000, seed))

    def test_block_specs(self, kernel, numpy_loop):
        for i, spec in enumerate(random_block_specs(seed=2026)):
            for seed in (i, 100 + i):
                assert_same_series(simulate_minar1(spec, 400, seed),
                                   numpy_loop(simulate_minar1, spec, 400, seed))

    def test_block_means_at_ten(self, kernel, numpy_loop):
        # rows (0.3, 0.2, 0.2, 0.2) and eta 0.6: the exact mean 0.6 + 0.3a + 0.2(b + c + d)
        # is often 10, and at some such steps each other order of the four block products
        # rounds lambda to the other side of 10 from dgemv, where numpy's Poisson switches
        spec = Minar1Spec(eta=np.full(16, 0.6), a_matrix=TENTHS_4X4_BLOCKS, burn_in=0)
        y = simulate_minar1(spec, 3000, 0).values[:-1]
        lams = np.array([spec.eta + spec.a_matrix @ row for row in y])
        tenths = np.rint(10 * spec.a_matrix).astype(np.int64)
        at_ten = 6 + y.astype(np.int64) @ tenths.T == 100  # 10 x exact mean, in integers
        rows = np.arange(16)  # p_j[t, i] = a[i, 4b + j] * y[t, 4b + j] for row i of block b
        p = spec.a_matrix.reshape(16, 4, 4)[rows, rows // 4] * y.reshape(-1, 4, 4)[:, rows // 4]
        p0, p1, p2, p3 = np.moveaxis(p, 2, 0)
        for other in (((p0 + p1) + p2) + p3, (p0 + p1) + (p2 + p3), (p0 + p3) + (p1 + p2)):
            assert np.any(at_ten & ((lams >= 10.0) != (spec.eta + other >= 10.0)))
        for seed in range(10):
            assert_same_series(simulate_minar1(spec, 2000, seed),
                               numpy_loop(simulate_minar1, spec, 2000, seed))

    def test_block_sums_match_builtin_cases(self, kernel):
        # numpy's OpenBLAS dgemv kernel for AVX-512 adds the block products in the block
        # sum's order, so there the probe accepts it: it does not always refuse
        for case_id in ("case3", "case4"):
            assert kernel.block_sums_match(builtin_case(case_id).model.a_matrix)

    @pytest.mark.parametrize("spec", [
        Minar1Spec(eta=np.full(8, 0.5),
                   a_matrix=0.8 * TENTHS_4X4_BLOCKS[:8, :8] + np.eye(8, k=4) / 20),
        Minar1Spec(eta=np.full(6, 0.5), a_matrix=np.full((6, 6), 0.15)),
        Minar1Spec(eta=np.full(16, 0.5), a_matrix=TENTHS_BLOCKS),
    ], ids=["off_block_entry", "d6", "8x8_blocks"])
    def test_other_matrices_take_dgemv(self, kernel, numpy_loop, spec):
        assert not kernel.block_sums_match(spec.a_matrix)
        for seed in range(3):
            assert_same_series(simulate_minar1(spec, 1000, seed),
                               numpy_loop(simulate_minar1, spec, 1000, seed))

    def test_refused_probe_takes_dgemv(self, kernel, numpy_loop, monkeypatch):
        monkeypatch.setattr(_countsim.CountKernel, "block_sums_match", lambda self, a: False)
        spec = builtin_case("case4").model
        for seed in range(3):
            assert_same_series(simulate_minar1(spec, 2000, seed),
                               numpy_loop(simulate_minar1, spec, 2000, seed))

    def test_block_sum_in_another_order_is_refused(self, kernel, numpy_loop, monkeypatch,
                                                   tmp_path):
        variant = load_variant(
            monkeypatch, tmp_path,
            "(ab[0] * yb[0] + ab[2] * yb[2]) + (ab[1] * yb[1] + ab[3] * yb[3])",
            "((ab[0] * yb[0] + ab[1] * yb[1]) + ab[2] * yb[2]) + ab[3] * yb[3]")
        spec = Minar1Spec(eta=np.full(16, 0.6), a_matrix=TENTHS_4X4_BLOCKS, burn_in=0)
        for a_matrix in (spec.a_matrix, builtin_case("case4").model.a_matrix):
            assert not variant.block_sums_match(a_matrix)
        reference = numpy_loop(simulate_minar1, spec, 3000, 0)
        assert_same_series(simulate_minar1(spec, 3000, 0), reference)
        # taken all the same, that order moves lambda across 10 and changes the series
        monkeypatch.setattr(_countsim.CountKernel, "block_sums_match", lambda self, a: True)
        assert simulate_minar1(spec, 3000, 0).values.tobytes() != reference.values.tobytes()

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
            kernel.inar(rng, 0.5, np.zeros(4)[::2], np.empty(3), 1e12, 0)
        with pytest.raises(ValueError, match="d x d"):
            kernel.minar1(rng, np.zeros(2), np.zeros((3, 3)), np.empty((3, 2)), 1e12, 0)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            kernel.hawkes(rng, 1.0, np.array([0.5, 0.7, 1.0, 2.0])[::2], np.zeros(2), 10.0)
        with pytest.raises(ValueError, match="equal length"):
            kernel.hawkes(rng, 1.0, np.array([0.5, 1.0]), np.zeros(3), 10.0)
        gram, b = np.eye(2), np.zeros(2)
        for bad_gram, bad_b in [(np.zeros((2, 3)), b),                 # not square
                                (gram, np.zeros(3)),                   # b of another p
                                (np.zeros((0, 0)), np.zeros(0))]:      # p = 0
            with pytest.raises(ValueError, match="dantzig_path needs"):
                kernel.dantzig_path(bad_gram, bad_b, [0.5], 10)
        for bad_gram, bad_b in [(gram.astype(np.float32), b),
                                (gram, b.astype(np.float32)),
                                (np.eye(4)[::2, ::2], b),              # strided
                                (gram, np.zeros(4)[::2])]:
            with pytest.raises(ValueError, match="C-contiguous float64"):
                kernel.dantzig_path(bad_gram, bad_b, [0.5], 10)
        # cv_folds: a 6 x 2 series in blocks of 3 rows
        zc, yc, bounds = np.zeros((6, 2)), np.zeros(6), [0, 3, 6]
        cross, cross_y = np.zeros((2, 2, 2)), np.zeros((2, 2))
        for bad in [(np.zeros((6, 4))[:, ::2], yc, bounds, cross, cross_y),  # strided
                    (zc, yc.astype(np.float32), bounds, cross, cross_y),
                    (zc, yc, bounds, cross, np.zeros((2, 4))[:, ::2])]:
            with pytest.raises(ValueError, match="C-contiguous float64"):
                kernel.cv_folds(*bad, np.array([0.5]), 10)
        for bad in [(np.zeros((6, 0)), yc, bounds, np.zeros((2, 0, 0)), np.zeros((2, 0))),
                    (zc, np.zeros(5), bounds, cross, cross_y),   # y of another length
                    (zc, yc, [0, 3, 5], cross, cross_y),          # blocks short of n
                    (zc, yc, [0, 0, 6], cross, cross_y),          # an empty block
                    (zc, yc, [1, 3, 6], cross, cross_y),
                    (zc, yc, bounds, np.zeros((3, 2, 2)), cross_y),  # sums of 3 blocks
                    (zc, yc, bounds, cross, np.zeros((2, 3)))]:
            with pytest.raises(ValueError, match="cv_folds needs"):
                kernel.cv_folds(*bad, np.array([0.5]), 10)
        for bad_grid in (np.zeros((1, 1)), np.zeros(0)):
            with pytest.raises(ValueError, match="cv_folds needs"):
                kernel.cv_folds(zc, yc, bounds, cross, cross_y, bad_grid, 10)
        # specs hold C-contiguous copies of strided input
        spec = InarSpec(mu_eps=0.5, alpha=np.array([0.3, 9.0, 0.2, 9.0])[::2])
        assert spec.alpha.flags.c_contiguous
        hawkes = HawkesSpec(eta=1.0, kernel_breakpoints=np.array([0.5, 9.0, 1.0, 9.0])[::2],
                            kernel_values=np.array([0.4, 9.0, 0.2, 9.0])[::2], horizon=5.0)
        assert hawkes.kernel_breakpoints.flags.c_contiguous
        assert hawkes.kernel_values.flags.c_contiguous

    def test_steps_it_cannot_draw_rejected(self, kernel):
        # a negative burn-in would leave output rows unwritten, and an INAR output must
        # hold its p lag rows; nothing is drawn
        rng = make_rng(0)
        untouched = rng.bit_generator.state
        alpha = np.array([0.3, 0.2])
        for inar in (kernel.inar, simulate._inar_steps):
            for out, burn_in in ((np.empty(10), -5), (np.empty(1), 0)):
                with pytest.raises(ValueError, match="burn_in >= 0 and at least 2 output"):
                    inar(rng, 0.5, alpha, out, 1e12, burn_in)
        for minar1 in (kernel.minar1, simulate._minar1_steps):
            for out, burn_in in ((np.empty((10, 2)), -5), (np.empty((0, 2)), 0)):
                with pytest.raises(ValueError, match="burn_in >= 0 and at least 1 output"):
                    minar1(rng, np.ones(2), np.zeros((2, 2)), out, 1e12, burn_in)
        assert rng.bit_generator.state == untouched

    def test_cold_cache_without_compiler_falls_back(self, numpy_loop, monkeypatch, tmp_path):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((12, 10))
        system = LinearScoreSystem(gram=m.T @ m / 12, moment=rng.standard_normal(10))
        lams = np.geomspace(0.01, 1.0, 8) * np.abs(system.moment).max()
        expected = solve_dantzig_path(system, lams)  # by the loaded loop, where it loads
        data = center_design(np.column_stack([np.ones(60), rng.standard_normal((60, 4))]),
                             rng.standard_normal(60))
        expected_cv = cross_validate_lambda(data, folds=4)
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
        for fit, ref in zip(solve_dantzig_path(system, lams), expected, strict=True):
            assert fit.theta_hat.tobytes() == ref.theta_hat.tobytes()
            assert (fit.iterations, fit.status) == (ref.iterations, ref.status)
        cv = cross_validate_lambda(data, folds=4)
        assert cv.cv_loss.tobytes() == expected_cv.cv_loss.tobytes()
        assert cv.chosen_lambda == expected_cv.chosen_lambda
        # the failed build leaves no temporary file behind
        assert list(cache.iterdir()) == []

    def test_build_removes_superseded_libraries(self, kernel, numpy_loop, monkeypatch,
                                                tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "other.so").write_bytes(b"")
        edited = tmp_path / "_countsim.c"
        edited.write_text(Path(_countsim._SOURCE).read_text() + "/* another source */\n")
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
from sparseproc.harness import builtin_case, simulate_series
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

    def test_oversized_block_rejected_at_construction(self):
        # a stable drift whose one block holds all 10 coordinates
        with pytest.raises(ValueError, match="drift block of size 10 exceeds the supported "
                                             "maximum 8"):
            OuSpec(a_matrix=-np.eye(10) + 0.05, sigma_diag=np.ones(10), delta=0.05,
                   n_steps=10)
        # blocks of 8 coupled through a permutation are accepted
        perm = np.random.default_rng(3).permutation(16)
        a = np.kron(np.eye(2), -np.eye(8) + 0.05)[np.ix_(perm, perm)]
        assert OuSpec(a_matrix=a, sigma_diag=np.ones(16), delta=0.05, n_steps=10).dim == 16

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

    def test_window_drops_an_event_whose_piece_ends_at_t(self, monkeypatch):
        # the second event lands at t = fl(1.0 + 0.2), where fl(t - 0.2) = 1.0 drops the
        # first from the window though fl(t - 1.0) < 0.2 would still find it in its piece:
        # its boundary 1.0 + 0.2 is t itself, which the guard skips, so keeping it would
        # add 0.8 to the intensity of the whole next wait and draw a third event
        def exponentials(rng):
            yield from (1.0, 0.35999999999999976, 0.5)
            while True:
                yield 50.0
        monkeypatch.setattr(simulate, "_standard_exponentials", exponentials)
        events = simulate._hawkes_events(make_rng(0), 1.0, np.array([0.2]), np.array([0.8]), 5.0)
        assert events.tolist() == [1.0, 1.2]
        assert 1.2 - 0.2 == 1.0 and 1.2 - 1.0 < 0.2

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
    def test_compiled_events_do_not_depend_on_capacity(self, monkeypatch, kernel, name):
        # a capacity of 1 fills the buffer at 1, 2, 4, ... events, and each time resumes
        spec = hawkes_spec(name)
        for seed in range(3):
            with monkeypatch.context() as patch:
                patch.setattr(_countsim, "_HAWKES_CAPACITY", 1)
                resumed = kernel.hawkes(make_rng(seed), spec.eta, spec.kernel_breakpoints,
                                        spec.kernel_values, spec.horizon)
            assert resumed.tobytes() == simulate_hawkes(spec, seed).tobytes()

    def test_boundary_rounded_onto_t_is_no_change(self, kernel):
        # resumed at t = fl(1.0 + 0.2), which rounds down: the event at 1.0 is 0.2 - 2^-54
        # old, inside its first piece, and that piece's end rounds onto t itself.  The
        # intensity is constant right of t, so the first draw is accepted; a guard that
        # took t as a change would restart just past t, in the second piece, and draw again
        ti, eta, seed = 1.0, 1.0, 11
        breakpoints, values = np.array([0.2, 1.0]), np.array([0.5, 0.3])
        t0 = ti + breakpoints[0]
        assert t0 - ti < breakpoints[0]
        events, t = np.array([ti, 0.0]), ctypes.c_double(t0)
        bitgen = make_rng(seed).bit_generator
        with bitgen.lock:
            n = kernel._hawkes(kernel._exponential, bitgen.ctypes.bit_generator, eta, 2,
                               breakpoints.ctypes.data, values.ctypes.data, 100.0,
                               events.ctypes.data, 1, 2, ctypes.byref(t))
        e = make_rng(seed).standard_exponential()
        assert n == 2 and events[1] == t0 + (1.0 / (eta + values[0])) * e

    def test_narrow_piece_end_rounded_onto_t(self, hawkes_path):
        # the second piece is 1e-14 wide, a few spacings of the doubles near t.  After a
        # step to just past an event's end of piece 0, that event's age still falls in
        # piece 1 while the piece's end rounds onto t itself: once at seed 7 and once at
        # seed 8.  The Python loop cannot be resumed at a chosen t, so these runs are what
        # reach its guard; a guard that took t as a change would restart just past t and
        # draw again, and every later event would move
        spec = HawkesSpec(eta=1.0, kernel_breakpoints=np.array([0.5, 0.5 + 1e-14]),
                          kernel_values=np.array([0.6, 0.3]), horizon=50.0)
        for seed in (7, 8):
            events = hawkes_path(spec, seed)
            assert events.tobytes() == hawkes_reference_events(spec, seed).tobytes()

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

    @pytest.mark.parametrize("events, delta, horizon, message", [
        ([0.25, np.nan, 0.75], 0.5, 1.0, "events must be finite"),
        ([0.25, np.inf], 0.5, 1.0, "events must be finite"),
        ([0.25], np.nan, 1.0, "delta must be positive and finite"),
        ([0.25], np.inf, 1.0, "delta must be positive and finite"),
        ([0.25], 0.5, np.nan, "horizon must be positive and finite"),
        ([0.25], 0.5, np.inf, "horizon must be positive and finite"),
        ([], 0.5, 0.0, "horizon must be positive and finite"),
        ([], 0.5, -1.0, "horizon must be positive and finite"),
    ])
    def test_what_it_cannot_bin_rejected(self, events, delta, horizon, message):
        with pytest.raises(ValueError, match=message):
            bin_counts(np.array(events), delta, horizon)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), max_size=60),
           st.sampled_from([0.05, 0.1, 0.3, 1.0]))
    def test_conservation(self, events, delta):
        ev = np.sort(np.asarray(events))
        sample = bin_counts(ev, delta, 10.0)
        assert sample.values.sum() == len(events)


class TestSeriesIo:
    def test_rows_that_do_not_match_the_header_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        for text in ("t,x1\n-1,2,3\n1,4\n", "t,x1,x2\n1,4,5\n2,6\n", "t,x1\n\n1,4\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="does not match header"):
                read_series_csv(path)

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
        for bad in (-2.0, 1.5, -0.5):
            with pytest.raises(ValueError, match="nonnegative integers"):
                SeriesSample(np.array([1.0, bad]), kind="counts")
            with pytest.raises(ValueError, match="nonnegative integers"):
                SeriesSample(np.array([bad, 1.0, 1.0, 1.0]), lag_rows=1, kind="counts")
            # a non-finite entry anywhere is reported before a non-integer one
            with pytest.raises(ValueError, match="finite"):
                SeriesSample(np.array([np.nan, bad, 1.0]), lag_rows=1, kind="counts")
            with pytest.raises(ValueError, match="finite"):
                SeriesSample(np.array([bad, np.inf, 1.0]), lag_rows=1, kind="counts")
            assert SeriesSample(np.array([1.0, bad]), kind="reals").n == 2
        for kind in ("counts", "reals"):
            for bad in (np.inf, -np.inf, np.nan):
                with pytest.raises(ValueError, match="finite"):
                    SeriesSample(np.array([1.0, bad]), kind=kind)
                with pytest.raises(ValueError, match="finite"):
                    SeriesSample(np.array([bad, 1.0, 1.0, 1.0]), lag_rows=1, kind=kind)
            for delta in (np.nan, np.inf, 0.0, -0.1):
                with pytest.raises(ValueError, match="delta"):
                    SeriesSample(np.ones(3), delta=delta, kind=kind)
            assert SeriesSample(np.ones(3), delta=0.1, kind=kind).delta == 0.1

    def test_shapes_it_cannot_use_rejected(self):
        for rows in (np.float64(2.0), np.ones((3, 2, 2))):
            with pytest.raises(ValueError, match="rows must be 1-d or 2-d"):
                SeriesSample(rows)
        # a vector is one column
        assert SeriesSample(np.ones(8), lag_rows=3).lag_buffer.shape == (3, 1)
        assert SeriesSample(np.ones((6, 2)), lag_rows=1).dim == 2
        empty = SeriesSample(np.ones((5, 2)))
        assert empty.lag_buffer.shape == (0, 2)

    def test_lag_rows_out_of_range_rejected(self):
        for lag_rows in (-1, 6):
            with pytest.raises(ValueError, match=rf"lag_rows must lie in \[0, 5\], got {lag_rows}"):
                SeriesSample(np.ones(5), lag_rows=lag_rows)
        for lag_rows in (2.0, None):
            with pytest.raises(ValueError, match=f"lag_rows must be an integer, got {lag_rows}"):
                SeriesSample(np.ones(5), lag_rows=lag_rows)
        for lag_rows in (0, np.int64(2), 5):
            sample = SeriesSample(np.ones(5), lag_rows=lag_rows)
            assert type(sample.lag_rows) is int
            assert (sample.lag_buffer.shape, sample.n) == ((lag_rows, 1), 5 - lag_rows)

    def test_bool_lag_rows_rejected(self):
        for lag_rows in (True, False, np.bool_(True)):
            with pytest.raises(ValueError, match=f"lag_rows must be an integer, got {lag_rows!r}"):
                SeriesSample(np.ones(5), lag_rows=lag_rows)

    def test_fields_cannot_be_rebound(self):
        sample = SeriesSample(np.arange(6.0), lag_rows=2)
        for name in ("rows", "lag_rows", "delta", "kind", "values", "lag_buffer", "n", "dim"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sample, name, getattr(sample, name))
        # the two parts are views of the one array
        assert sample.rows.flags.c_contiguous and sample.rows.dtype == np.float64
        assert np.shares_memory(sample.lag_buffer, sample.rows)
        assert np.shares_memory(sample.values, sample.rows)
        assert_array_equal(sample.lag_buffer[:, 0], [0.0, 1.0])
        assert_array_equal(sample.values[:, 0], [2.0, 3.0, 4.0, 5.0])

    def test_c_order_rows_held_uncopied(self):
        for rows in (np.zeros(7), np.zeros((7, 3))):
            assert np.shares_memory(SeriesSample(rows, lag_rows=2).rows, rows)
        for rows in (np.asfortranarray(np.zeros((7, 3))), np.zeros((14, 3))[::2],
                     np.zeros(7, dtype=np.int64)):
            sample = SeriesSample(rows, lag_rows=2)
            assert sample.rows.flags.c_contiguous and sample.rows.dtype == np.float64
            assert_array_equal(sample.rows, np.asarray(rows, dtype=float).reshape(7, -1))

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
        for not_a_spec in (SeriesSample(np.ones(3)), {"model": "inar"}, None):
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
