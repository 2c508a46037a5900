"""Simulators for the processes the estimators are aimed at.

Covers Poisson INAR(p) count series, multivariate Poisson INAR(1),
stationary Ornstein-Uhlenbeck systems observed on a grid, and Hawkes
point processes with a piecewise-constant excitation kernel together
with their binned-count representation.

All simulators are pure functions of ``(spec, seed)``: PCG64 streams, no
shared state, safe to call concurrently.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from . import _countsim
from .errors import DomainError, StationarityError
from .rng import make_rng

_COUNT_CAP = 1e12  # conditional mean beyond this aborts instead of overflowing
_DRAW_BLOCK = 4096  # unit exponentials fetched per call in the Hawkes simulator
_MAX_DRIFT_BLOCK = 8  # largest drift block whose Lyapunov equation is solved densely


def as_int(value, name: str) -> int:
    """``value`` as an int; ``ValueError`` where it is a bool or not an integer type."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class InarSpec:
    """Poisson INAR(p): X_t | past ~ Poisson(mu_eps + sum_i alpha[i] * X_{t-1-i}).

    ``alpha`` must sum to < 1 for a stationary solution to exist.
    """

    mu_eps: float
    alpha: np.ndarray
    burn_in: int = 1000

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float, order="C")
        object.__setattr__(self, "alpha", alpha)
        if alpha.ndim != 1:
            raise ValueError("alpha must be a vector")
        if not (np.isfinite(self.mu_eps) and np.all(np.isfinite(alpha))):
            raise ValueError("mu_eps and alpha must be finite")
        if np.any(alpha < 0) or self.mu_eps < 0:
            raise ValueError("alpha and mu_eps must be nonnegative")
        if not alpha.sum() < 1.0:
            raise StationarityError(
                f"thinning means sum to {alpha.sum():.3f} >= 1; no stationary solution"
            )
        object.__setattr__(self, "burn_in", as_int(self.burn_in, "burn_in"))
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")

    @property
    def order(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class Minar1Spec:
    """Multivariate Poisson INAR(1): Y_{t,j} | past ~ Poisson((eta + A Y_{t-1})_j)."""

    eta: np.ndarray
    a_matrix: np.ndarray
    burn_in: int = 1000

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float, order="C")
        a = np.asarray(self.a_matrix, dtype=float, order="C")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "a_matrix", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or eta.shape != (a.shape[0],):
            raise ValueError("a_matrix must be square and match eta")
        if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(a))):
            raise ValueError("eta and a_matrix must be finite")
        if np.any(a < 0) or np.any(eta < 0):
            raise ValueError("eta and a_matrix must be nonnegative")
        if not a.sum(axis=1).max() < 1.0:
            raise StationarityError(
                f"max row sum of A is {a.sum(axis=1).max():.3f} >= 1; no stationary solution"
            )
        object.__setattr__(self, "burn_in", as_int(self.burn_in, "burn_in"))
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")

    @property
    def dim(self) -> int:
        return self.eta.size


@dataclass(frozen=True)
class OuSpec:
    """Linear SDE dY = A Y dt + Sigma dW observed every ``delta`` time units.

    ``a_matrix`` must be stable (eigenvalue real parts < 0) and block
    diagonal up to simultaneous row/column permutation with blocks of size
    at most 8, so the stationary covariance can be solved per block.
    ``sigma_diag`` is the diagonal of Sigma.  Each observation step is
    integrated with ``substeps`` Euler-Maruyama sub-intervals.
    """

    a_matrix: np.ndarray
    sigma_diag: np.ndarray
    delta: float
    n_steps: int
    substeps: int = 10

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        s = np.asarray(self.sigma_diag, dtype=float)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "sigma_diag", s)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or s.shape != (a.shape[0],):
            raise ValueError("a_matrix must be square and match sigma_diag")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(s)) and np.isfinite(self.delta)):
            raise ValueError("a_matrix, sigma_diag and delta must be finite")
        if np.any(s <= 0):
            raise ValueError("sigma_diag entries must be positive")
        for name in ("n_steps", "substeps"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.delta <= 0 or self.n_steps < 1 or self.substeps < 1:
            raise ValueError("delta, n_steps, substeps must be positive")
        if np.max(np.linalg.eigvals(a).real) >= -1e-12:
            raise StationarityError("drift matrix has an eigenvalue with nonnegative real part")
        _drift_blocks(a)

    @property
    def dim(self) -> int:
        return self.sigma_diag.size


@dataclass(frozen=True)
class HawkesSpec:
    """Self-exciting point process with intensity eta + sum a(t - t_i).

    The excitation kernel a is piecewise constant: a(t) = kernel_values[k]
    on (kernel_breakpoints[k-1], kernel_breakpoints[k]] (with an implicit
    leading breakpoint 0) and zero beyond the last breakpoint.  Every
    field must be finite, and the kernel integral must be < 1
    (subcriticality).
    """

    eta: float
    kernel_breakpoints: np.ndarray
    kernel_values: np.ndarray
    horizon: float

    def __post_init__(self):
        bp = np.asarray(self.kernel_breakpoints, dtype=float, order="C")
        vals = np.asarray(self.kernel_values, dtype=float, order="C")
        object.__setattr__(self, "kernel_breakpoints", bp)
        object.__setattr__(self, "kernel_values", vals)
        if not (np.isfinite(self.eta) and np.isfinite(self.horizon)
                and np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ValueError("eta, horizon, breakpoints and kernel values must be finite")
        if self.eta <= 0:
            raise ValueError("baseline eta must be positive")
        if bp.ndim != 1 or vals.shape != bp.shape:
            raise ValueError("breakpoints and values must be vectors of equal length")
        if bp.size and (np.any(np.diff(bp) <= 0) or bp[0] <= 0):
            raise ValueError("breakpoints must be positive and strictly increasing")
        if np.any(vals < 0):
            raise ValueError("kernel values must be nonnegative")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not self.branching_ratio() < 1.0:
            raise StationarityError(
                f"kernel integral {self.branching_ratio():.3f} >= 1; process is supercritical"
            )

    def branching_ratio(self) -> float:
        widths = np.diff(np.concatenate(([0.0], self.kernel_breakpoints)))
        return float(widths @ self.kernel_values)


@dataclass(frozen=True)
class SeriesSample:
    """An observed path held as one array: the pre-sample rows, then the observations.

    ``rows`` is (p + n) x d, or a vector when d = 1, stored as C-contiguous
    float64.  Its first ``lag_rows`` = p rows are the pre-sample values in
    chronological order, the last directly preceding the first observation;
    ``lag_buffer`` and ``values`` are views of the two parts.  ``delta`` is
    the sampling interval for paths observed in continuous time.
    """

    rows: np.ndarray
    lag_rows: int = 0
    delta: Optional[float] = None
    kind: str = "counts"

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim not in (1, 2):  # before ascontiguousarray, which makes 0-d 1-d
            raise ValueError(f"rows must be 1-d or 2-d, got shape {rows.shape}")
        rows = np.ascontiguousarray(rows[:, None] if rows.ndim == 1 else rows)
        object.__setattr__(self, "rows", rows)
        lag_rows = as_int(self.lag_rows, "lag_rows")
        if not 0 <= lag_rows <= rows.shape[0]:
            raise ValueError(f"lag_rows must lie in [0, {rows.shape[0]}], got {lag_rows}")
        object.__setattr__(self, "lag_rows", lag_rows)
        if self.kind not in ("counts", "reals"):
            raise ValueError("kind must be 'counts' or 'reals'")
        if not np.isfinite(rows).all():
            raise ValueError("series values and lag buffer must be finite")
        if self.kind == "counts" and ((rows < 0).any() or (rows != np.round(rows)).any()):
            raise ValueError("counts series must contain nonnegative integers")
        if self.delta is not None and not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and positive")

    @property
    def values(self) -> np.ndarray:
        """The n observations, n x d."""
        return self.rows[self.lag_rows:]

    @property
    def lag_buffer(self) -> np.ndarray:
        """The p pre-sample rows, p x d."""
        return self.rows[: self.lag_rows]

    @property
    def n(self) -> int:
        return self.rows.shape[0] - self.lag_rows

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def simulate_inar(spec: InarSpec, n: int, seed: int) -> SeriesSample:
    """Simulate n observations of the Poisson INAR(p) model after burn-in.

    Starts from the all-zero state, discards ``spec.burn_in`` draws, and
    returns ``SeriesSample(rows, lag_rows=p)``: the final p pre-sample
    values (zeros where fewer were drawn) and then the n kept ones, drawn
    into one (p + n)-row array.  The steps run in the compiled loop of
    ``_countsim`` where it loads and in the numpy loop otherwise; both give
    the same series.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_rng(seed)
    p = spec.order
    rows = np.empty(p + n)
    kernel = _countsim.load()
    steps = _inar_steps if kernel is None else kernel.inar
    if steps(rng, spec.mu_eps, spec.alpha, rows, _COUNT_CAP, spec.burn_in) < spec.burn_in + n:
        raise DomainError("conditional mean overflow in INAR simulation")
    return SeriesSample(rows, lag_rows=p)


def _inar_steps(rng: np.random.Generator, mu_eps: float, alpha: np.ndarray,
                out: np.ndarray, cap: float, burn_in: int) -> int:
    """The numpy loop of ``_countsim.CountKernel.inar``: fill ``out``, return the steps drawn."""
    p = alpha.size
    _countsim.check_steps(burn_in, out.size, p)
    history = np.zeros(max(p, 1))  # history[0] = X_{t-1}, ... , history[p-1] = X_{t-p}
    out[:p] = 0.0
    for t in range(burn_in + out.size - p):
        lam = mu_eps + (alpha @ history[:p] if p else 0.0)
        if lam > cap:
            return t
        x = rng.poisson(lam)
        if p:
            history[1:p] = history[: p - 1]
            history[0] = x
        if t + p >= burn_in:
            out[t + p - burn_in] = x
    return burn_in + out.size - p


def simulate_minar1(spec: Minar1Spec, n: int, seed: int) -> SeriesSample:
    """Simulate the p-dimensional Poisson INAR(1): lambda_t = eta + A Y_{t-1}.

    Runs in the compiled loop of ``_countsim`` where it loads, as
    :func:`simulate_inar` does, and returns ``SeriesSample(rows, lag_rows=1)``:
    the last burn-in state and then the n kept ones, drawn into one array.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_rng(seed)
    rows = np.empty((n + 1, spec.dim))
    kernel = _countsim.load()
    steps = _minar1_steps if kernel is None else kernel.minar1
    if steps(rng, spec.eta, spec.a_matrix, rows, _COUNT_CAP, spec.burn_in) < spec.burn_in + n:
        raise DomainError("conditional mean overflow in INAR simulation")
    return SeriesSample(rows, lag_rows=1)


def _minar1_steps(rng: np.random.Generator, eta: np.ndarray, a_matrix: np.ndarray,
                  out: np.ndarray, cap: float, burn_in: int) -> int:
    """The numpy loop of ``_countsim.CountKernel.minar1``: fill the rows of ``out``."""
    _countsim.check_steps(burn_in, out.shape[0], 1)
    y = out[0] = np.zeros(eta.size)
    for t in range(burn_in + out.shape[0] - 1):
        lam = eta + a_matrix @ y
        if lam.max() > cap:
            return t
        y = rng.poisson(lam).astype(float)
        if t + 1 >= burn_in:
            out[t + 1 - burn_in] = y
    return burn_in + out.shape[0] - 1


def _drift_blocks(a: np.ndarray) -> list:
    """Index arrays of the drift's diagonal blocks, by smallest coordinate.

    A block is a connected component of the symmetrized sparsity pattern;
    ``ValueError`` if one holds more than ``_MAX_DRIFT_BLOCK`` coordinates.
    """
    adj = (a != 0) | (a.T != 0)
    unseen = set(range(a.shape[0]))
    blocks = []
    while unseen:
        stack = [min(unseen)]
        block = set()
        while stack:
            i = stack.pop()
            if i in block:
                continue
            block.add(i)
            stack.extend(j for j in np.nonzero(adj[i])[0] if j not in block)
        unseen -= block
        if len(block) > _MAX_DRIFT_BLOCK:
            raise ValueError(f"drift block of size {len(block)} exceeds the supported "
                             f"maximum {_MAX_DRIFT_BLOCK}")
        blocks.append(np.array(sorted(block)))
    return blocks


def lyapunov_covariance(a_matrix: np.ndarray, sigma_diag: np.ndarray) -> np.ndarray:
    """Stationary covariance V solving A V + V A^T + Sigma Sigma^T = 0.

    The drift must decompose into diagonal blocks of size <= 8 (see
    ``_drift_blocks``); each block is solved densely through the Kronecker
    identity (I (x) A + A (x) I) vec(V) = -vec(Sigma Sigma^T).
    """
    a = np.asarray(a_matrix, dtype=float)
    d = a.shape[0]
    q_diag = np.asarray(sigma_diag, dtype=float) ** 2
    v = np.zeros((d, d))
    for idx in _drift_blocks(a):
        ab = a[np.ix_(idx, idx)]
        qb = np.diag(q_diag[idx])
        k = np.kron(np.eye(idx.size), ab) + np.kron(ab, np.eye(idx.size))
        try:
            vb = np.linalg.solve(k, -qb.flatten(order="F")).reshape(
                (idx.size, idx.size), order="F")
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"Lyapunov solve singular: {exc}") from exc
        v[np.ix_(idx, idx)] = 0.5 * (vb + vb.T)
    return v


def simulate_ou(spec: OuSpec, seed: int, y0: Optional[np.ndarray] = None) -> SeriesSample:
    """Sample a stationary OU path at t_k = k * delta, k = 0..n_steps.

    The initial state is drawn from N(0, V) with V the stationary
    covariance (or fixed to ``y0`` when given); increments use
    Euler-Maruyama with ``spec.substeps`` sub-intervals per observation
    step.
    """
    rng = make_rng(seed)
    d = spec.dim
    if y0 is not None:
        y = np.asarray(y0, dtype=float).copy()
        if y.shape != (d,):
            raise ValueError("y0 must match the state dimension")
    else:
        v = lyapunov_covariance(spec.a_matrix, spec.sigma_diag)
        chol = np.linalg.cholesky(v + 1e-14 * np.trace(v) / d * np.eye(d))
        y = chol @ rng.standard_normal(d)
    dt = spec.delta / spec.substeps
    sig_step = spec.sigma_diag * np.sqrt(dt)
    path = np.empty((spec.n_steps + 1, d))
    path[0] = y
    for k in range(spec.n_steps):
        noise = rng.standard_normal((spec.substeps, d))
        for j in range(spec.substeps):
            y = y + dt * (spec.a_matrix @ y) + sig_step * noise[j]
        path[k + 1] = y
    return SeriesSample(path, delta=spec.delta, kind="reals")


def _standard_exponentials(rng: np.random.Generator):
    """Unit exponential draws of ``rng`` one at a time, fetched in blocks.

    A block draw consumes the same stream as repeated scalar draws, and
    ``rng.exponential(scale)`` is ``scale * rng.standard_exponential()``.
    """
    while True:
        yield from rng.standard_exponential(_DRAW_BLOCK).tolist()


def simulate_hawkes(spec: HawkesSpec, seed: int) -> np.ndarray:
    """Event times in (0, horizon] drawn by Ogata thinning.

    Between kernel breakpoints the intensity is constant, so the local
    upper bound is the current intensity itself and every proposal that
    stays within the current piece is accepted; a proposal that crosses
    the next breakpoint of an active event restarts just past it.  The
    loop runs in the compiled file of ``_countsim`` where it loads and in
    Python otherwise, with the same float operations in the same order:
    the intensity is summed in event order, and waiting times are
    ``(1 / intensity) * e`` with e a unit exponential, so the events equal
    those of scalar ``rng.exponential(1 / intensity)`` draws bit for bit.
    """
    kernel = _countsim.load()
    events = _hawkes_events if kernel is None else kernel.hawkes
    return events(make_rng(seed), spec.eta, spec.kernel_breakpoints, spec.kernel_values,
                  spec.horizon)


def _hawkes_events(rng: np.random.Generator, eta: float, breakpoints: np.ndarray,
                   values: np.ndarray, horizon: float) -> np.ndarray:
    """The Python loop of ``_countsim.CountKernel.hawkes``: the event times."""
    draw = _standard_exponentials(rng).__next__
    bp = breakpoints.tolist()
    vals = values.tolist()
    eta = float(eta)
    horizon = float(horizon)
    pieces = len(bp)
    tail = bp[-1] if bp else 0.0
    events: list[float] = []
    t = 0.0
    first_active = 0  # events earlier than t - tail never contribute again
    while True:
        while first_active < len(events) and events[first_active] <= t - tail:
            first_active += 1
        # intensity just right of t (lam >= eta > 0) and the next time it can change
        lam = eta
        next_change = math.inf
        for ti in events[first_active:]:
            k = bisect_right(bp, t - ti)
            if k < pieces:
                lam += vals[k]
                boundary = ti + bp[k]
                # guard: float rounding may land exactly on t
                if t < boundary < next_change:
                    next_change = boundary
        wait = (1.0 / lam) * draw()
        if t + wait > next_change:
            t = math.nextafter(next_change, math.inf)
            continue
        t = t + wait
        if t > horizon:
            break
        events.append(t)
    return np.array(events)


def bin_counts(events: np.ndarray, delta: float, horizon: float) -> SeriesSample:
    """Counts per interval (k*delta, (k+1)*delta], k = 0..ceil(horizon/delta)-1."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    events = np.asarray(events, dtype=float)
    if not np.isfinite(events).all():
        raise ValueError("events must be finite")
    if events.size and (events.min() <= 0 or events.max() > horizon):
        raise ValueError("events must lie in (0, horizon]")
    n_bins = int(np.ceil(horizon / delta))
    idx = np.ceil(events / delta).astype(int) - 1
    counts = np.bincount(idx, minlength=n_bins).astype(float)
    return SeriesSample(counts, delta=delta)


# ---------------------------------------------------------------------------
# File formats: series CSV and spec JSON dictionaries


def write_series_csv(sample: SeriesSample, path) -> None:
    """CSV with header t,x1[,x2,...]; lag-buffer rows carry negative t.

    Count series use integer t (1..n); continuous paths use t = k*delta.
    """
    d = sample.dim
    p = sample.lag_buffer.shape[0]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"x{j + 1}" for j in range(d)])
        for i in range(p):
            w.writerow([i - p] + list(sample.lag_buffer[i]))
        for i in range(sample.n):
            t = i * sample.delta if sample.delta is not None else i + 1
            w.writerow([t] + list(sample.values[i]))


def read_series_csv(path, kind: str = "counts", delta: Optional[float] = None) -> SeriesSample:
    """Read a series CSV written by :func:`write_series_csv`."""
    buf_rows, val_rows = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file has no header either
        if not header or header[0] != "t":
            raise ValueError("series CSV must start with a 't' header column")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"series CSV row {row} does not match header {header}")
            t = float(row[0])
            xs = [float(x) for x in row[1:]]
            (buf_rows if t < 0 else val_rows).append(xs)
    if not val_rows:
        raise ValueError("series CSV contains no observations")
    return SeriesSample(np.array(buf_rows + val_rows), lag_rows=len(buf_rows), delta=delta,
                        kind=kind)


def to_jsonable(obj):
    """``obj`` with JSON-ready containers: the one serialization rule of the package.

    Dataclass instances become ``{field: value}``, dicts recurse, lists and
    tuples become lists, arrays and numpy scalars their Python values, and a
    Python float NaN becomes ``None``.
    """
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return obj


_MODELS = {"inar": InarSpec, "minar1": Minar1Spec, "ou": OuSpec, "hawkes": HawkesSpec}
_TAGS = {cls: tag for tag, cls in _MODELS.items()}


def spec_to_dict(spec) -> dict:
    """JSON-ready dictionary of the spec's fields, tagged with its ``model`` kind."""
    if type(spec) not in _TAGS:
        raise TypeError(f"unknown spec type {type(spec).__name__}")
    return {"model": _TAGS[type(spec)], **to_jsonable(spec)}


def spec_from_dict(d: dict):
    """Inverse of :func:`spec_to_dict`."""
    body = dict(d)
    ctor = _MODELS.get(body.pop("model", None))
    if ctor is None:
        raise ValueError(f"unknown model kind {d.get('model')!r}")
    return ctor(**body)
