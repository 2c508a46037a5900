"""Linear score systems: the pair (A, b) with score psi(theta) = b - A theta.

Every model in scope (regression, INAR counts, linear diffusion drift)
reduces its estimating function to this affine form; A is the Gram matrix
and b the moment vector.  The weighted second-step systems carry the same
structure restricted to a support set with per-observation inverse-variance
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import NuisanceError
from .simulate import SeriesSample

VARIANCE_FLOOR = 1e-8  # applied before inverting a conditional variance


@dataclass(frozen=True)
class LinearScoreSystem:
    """Affine score psi(theta) = moment - gram @ theta with gram symmetric PSD."""

    gram: np.ndarray
    moment: np.ndarray
    n_eff: int

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=float)
        moment = np.asarray(self.moment, dtype=float)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "moment", moment)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be square")
        if moment.shape != (gram.shape[0],):
            raise ValueError("moment length must match gram dimension")
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(moment))):
            raise ValueError("gram and moment must be finite")
        if self.n_eff < 1:
            raise ValueError("n_eff must be positive")

    @property
    def dim(self) -> int:
        return self.moment.size

    @property
    def unpenalized(self) -> Tuple[int, ...]:
        return ()  # read by perfbench/oracle.py; every coordinate carries l1 cost


@dataclass(frozen=True)
class WeightedScoreSystem:
    """Support-restricted system with inverse-variance weights applied."""

    gram_w: np.ndarray
    moment_w: np.ndarray
    support: Tuple[int, ...]
    weights_summary: Tuple[float, float]
    n_eff: int
    delta: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "gram_w", np.asarray(self.gram_w, dtype=float))
        object.__setattr__(self, "moment_w", np.asarray(self.moment_w, dtype=float))
        object.__setattr__(self, "support", tuple(int(j) for j in self.support))


def eval_score(sys: LinearScoreSystem, theta: np.ndarray) -> np.ndarray:
    """psi(theta) = moment - gram @ theta."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (sys.dim,):
        raise ValueError(f"theta must have length {sys.dim}")
    return sys.moment - sys.gram @ theta


def build_regression_score(covariates: np.ndarray, responses: np.ndarray
                           ) -> LinearScoreSystem:
    """Least-squares score: gram = Z'Z/n, moment = Z'y/n."""
    z = np.asarray(covariates, dtype=float)
    y = np.asarray(responses, dtype=float).ravel()
    if z.ndim != 2 or z.shape[0] != y.size:
        raise ValueError("covariates must be n x p aligned with responses")
    n = y.size
    return LinearScoreSystem(gram=z.T @ z / n, moment=z.T @ y / n, n_eff=n)


def center_design(design: np.ndarray, response: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(zc, yc, z_bar, y_bar): the design without its intercept column 0 and
    the response, both mean-centered, and the means that were removed.

    Count models select on the centered lag columns; the intercept is then
    recovered as y_bar - theta' z_bar and never enters the l1 program.
    """
    z = np.asarray(design, dtype=float)[:, 1:]
    y = np.asarray(response, dtype=float).ravel()
    z_bar = z.mean(axis=0)
    y_bar = y.mean()
    return z - z_bar, y - y_bar, z_bar, y_bar


def lagged_design(series: SeriesSample, order: int, target: int = 0
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Design rows (1, X_{t-1}, ..., X_{t-p}) and responses X_t.

    Univariate series use ``order`` lags of the single coordinate; for a
    multivariate series the design is the full previous state vector
    (order must be 1) and the response is coordinate ``target``.
    """
    x = series.values
    buf = series.lag_buffer
    n, d = x.shape
    if d == 1:
        if order < 1:
            raise ValueError("order must be >= 1")
        if buf.shape[0] < order:
            raise ValueError(
                f"lag buffer has {buf.shape[0]} rows; order {order} requires at least {order}")
        full = np.concatenate([buf[:, 0], x[:, 0]])
        off = buf.shape[0]
        design = np.ones((n, order + 1))
        for i in range(1, order + 1):
            design[:, i] = full[off - i: off - i + n]
        response = x[:, 0]
    else:
        if order != 1:
            raise ValueError("multivariate series support order 1 only")
        if buf.shape[0] < 1:
            raise ValueError("multivariate series needs one lag-buffer row")
        prev = np.vstack([buf[-1:], x[:-1]])
        design = np.hstack([np.ones((n, 1)), prev])
        response = x[:, target]
    return design, response


def build_inar_score(series: SeriesSample, order: int, target: int = 0,
                     centered: bool = False) -> LinearScoreSystem:
    """Conditional least-squares score for count autoregressions.

    The raw system is over theta = (intercept, lag coefficients); with
    ``centered=True`` it is the system of ``center_design``, over the lag
    coefficients only, which the first step solves.
    """
    if series.kind != "counts":
        raise ValueError("INAR score requires a counts series")
    design, response = lagged_design(series, order, target)
    if centered:
        design, response, _, _ = center_design(design, response)
    return build_regression_score(design, response)


def build_diffusion_score(path: SeriesSample, covariate_path: Optional[np.ndarray] = None,
                          target: int = 0) -> LinearScoreSystem:
    """Drift score from discrete observations.

    gram = (1/n) sum Y_k Y_k', moment = (1/(n delta)) sum Y_k (X_{k+1} - X_k)
    with Y_k the covariate row at the left endpoint (defaulting to the full
    observed state) and X the ``target`` coordinate of the path.
    """
    if path.delta is None:
        raise ValueError("diffusion path must carry a sampling interval delta")
    x = path.values[:, target]
    dx = np.diff(x)
    n = dx.size
    if n < 1:
        raise ValueError("path must contain at least two points")
    y = path.values[:-1, :] if covariate_path is None else np.asarray(covariate_path, float)
    if y.shape[0] != n:
        raise ValueError("covariate rows must align with left endpoints")
    gram = y.T @ y / n
    moment = y.T @ dx / (n * path.delta)
    return LinearScoreSystem(gram=gram, moment=moment, n_eff=n)


def build_weighted_system(design: np.ndarray, response: np.ndarray,
                          support: Sequence[int], nuisance,
                          delta: Optional[float] = None) -> WeightedScoreSystem:
    """Weighted system restricted to ``support``.

    Weights are 1/sigma^2 per observation: for count models sigma^2 is the
    fitted linear variance h' Y over the support coordinates, for diffusion
    paths the constant quadratic-variation estimate (responses must then be
    increments divided by delta).  Variances are floored at
    ``VARIANCE_FLOOR`` so all-zero count histories cannot produce infinite
    weights; a floored row shows up as max weight 1/VARIANCE_FLOOR in
    ``weights_summary``.  A non-finite variance raises ``NuisanceError``.
    """
    support = sorted(int(j) for j in support)
    if not support:
        raise ValueError("support must be nonempty")
    z = np.asarray(design, dtype=float)[:, support]
    y = np.asarray(response, dtype=float).ravel()
    n = y.size
    if nuisance.kind == "inar_linear_variance":
        h = np.asarray(nuisance.values, dtype=float)
        if h.size != len(support):
            raise ValueError("nuisance values must align with the support")
        var = z @ h
    elif nuisance.kind == "diffusion_constant_sigma2":
        var = np.full(n, float(nuisance.values))
    else:
        raise ValueError(f"unknown nuisance kind {nuisance.kind!r}")
    if not np.all(np.isfinite(var)):
        raise NuisanceError("conditional variance is not finite")
    var = np.maximum(var, VARIANCE_FLOOR)
    w = 1.0 / var
    gram_w = (z * w[:, None]).T @ z / n
    moment_w = z.T @ (w * y) / n
    return WeightedScoreSystem(gram_w=gram_w, moment_w=moment_w,
                               support=tuple(support),
                               weights_summary=(float(w.min()), float(w.max())),
                               n_eff=n, delta=delta)
