"""Linear score systems: the pair (A, b) with score psi(theta) = b - A theta.

Every model in scope (regression, INAR counts, linear diffusion drift)
reduces its estimating function to this affine form; A is the Gram matrix
and b the moment vector.  The weighted second-step system has the same
form, restricted to a support set with per-observation inverse-variance
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NuisanceError
from .simulate import SeriesSample

VARIANCE_FLOOR = 1e-8  # applied before inverting a conditional variance


@dataclass(frozen=True)
class LinearScoreSystem:
    """Affine score psi(theta) = moment - gram @ theta with gram symmetric PSD."""

    gram: np.ndarray
    moment: np.ndarray

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

    @property
    def dim(self) -> int:
        return self.moment.size

    @property
    def unpenalized(self) -> Tuple[int, ...]:
        return ()  # read by perfbench/oracle.py; every coordinate carries l1 cost


def build_regression_score(covariates: np.ndarray, responses: np.ndarray
                           ) -> LinearScoreSystem:
    """Least-squares score: gram = Z'Z/n, moment = Z'y/n."""
    z = np.asarray(covariates, dtype=float)
    y = np.asarray(responses, dtype=float).ravel()
    if z.ndim != 2 or z.shape[0] != y.size:
        raise ValueError("covariates must be n x p aligned with responses")
    n = y.size
    return LinearScoreSystem(gram=z.T @ z / n, moment=z.T @ y / n)


@dataclass(frozen=True)
class CenteredDesign:
    """A count/regression design prepared once for every fit on it.

    ``design`` (intercept in column 0) and ``response`` as given; ``zc`` and
    ``yc``, the design without column 0 and the response, both
    mean-centered; the means ``z_bar`` and ``y_bar`` that were removed; and
    the centered moment ``zc' yc / n``, which both the default CV grid and
    the first step read.  The intercept is the one (``offset``) fit
    coordinate the first step does not select over; ``fit_coordinates``
    recovers it from the means.
    """

    design: np.ndarray
    response: np.ndarray
    zc: np.ndarray
    yc: np.ndarray
    z_bar: np.ndarray
    y_bar: float
    moment: np.ndarray

    offset: ClassVar[int] = 1

    @property
    def n(self) -> int:
        return self.yc.size

    @property
    def fisher(self) -> int:
        """The Fisher scale of the fit: the number of observations."""
        return self.n

    def score(self) -> LinearScoreSystem:
        """The least-squares score of the centered columns, which the first step solves."""
        return LinearScoreSystem(gram=self.zc.T @ self.zc / self.n, moment=self.moment)

    def fit_coordinates(self, theta: np.ndarray) -> np.ndarray:
        """A solution of ``score()`` led by its intercept y_bar - theta' z_bar."""
        return np.concatenate([[self.y_bar - theta @ self.z_bar], theta])


def center_design(design: np.ndarray, response: np.ndarray) -> CenteredDesign:
    """The ``CenteredDesign`` of rows with the intercept in column 0.

    Count models select on the centered lag columns; the intercept is then
    recovered as y_bar - theta' z_bar and never enters the l1 program.
    """
    z = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    lags = z[:, 1:]
    z_bar = lags.mean(axis=0)
    y_bar = y.mean()
    zc, yc = lags - z_bar, y - y_bar
    return CenteredDesign(design=z, response=y, zc=zc, yc=yc, z_bar=z_bar, y_bar=y_bar,
                          moment=zc.T @ yc / y.size)


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
    if not 0 <= target < d:
        raise ValueError(f"target must lie in [0, {d}), got {target}")
    if d == 1:
        if order < 1:
            raise ValueError("order must be >= 1")
        if buf.shape[0] < order:
            raise ValueError(
                f"lag buffer has {buf.shape[0]} rows; order {order} requires at least {order}")
        full = np.concatenate([buf[:, 0], x[:, 0]])
        start = buf.shape[0] - order
        design = np.empty((n, order + 1))
        design[:, 0] = 1.0
        # row t holds lags 1..order of x_t: the window of full at start + t, reversed
        design[:, 1:] = sliding_window_view(full, order)[start: start + n, ::-1]
    else:
        if order != 1:
            raise ValueError("multivariate series support order 1 only")
        if buf.shape[0] < 1:
            raise ValueError("multivariate series needs one lag-buffer row")
        design = np.empty((n, d + 1))
        design[:, 0] = 1.0
        design[0, 1:] = buf[-1]
        design[1:, 1:] = x[:-1]
    return design, x[:, target]


def build_inar_score(series: SeriesSample, order: int, target: int = 0) -> LinearScoreSystem:
    """Conditional least-squares score for count autoregressions.

    ``CenteredDesign.score`` over the lag coefficients, which the first
    step solves; the raw system over (intercept, lags) is
    ``build_regression_score(*lagged_design(series, order, target))``.
    """
    if series.kind != "counts":
        raise ValueError("INAR score requires a counts series")
    return center_design(*lagged_design(series, order, target)).score()


@dataclass(frozen=True)
class DiffusionDesign:
    """A diffusion drift design: left-endpoint states against target increments.

    ``design`` holds the covariate rows Y_k = X_k, ``increments`` the
    target's X_{k+1} - X_k, and ``delta`` the sampling interval; rows and
    ``delta`` are checked once, here.  Every design coordinate is selected
    (``offset = 0``), and a first-step solution is already in fit
    coordinates.
    """

    design: np.ndarray
    increments: np.ndarray
    delta: float

    offset: ClassVar[int] = 0

    def __post_init__(self):
        z = np.asarray(self.design, dtype=float)
        dx = np.asarray(self.increments, dtype=float)
        object.__setattr__(self, "design", z)
        object.__setattr__(self, "increments", dx)
        if z.ndim != 2 or dx.shape != (z.shape[0],):
            raise ValueError("covariate rows must align with increments")
        if self.delta is None or not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and positive")

    @property
    def fisher(self) -> float:
        """The Fisher scale of the fit: the observed time n delta."""
        return self.increments.size * self.delta

    @property
    def response(self) -> np.ndarray:
        """The second-step response: increments divided by delta."""
        return self.increments / self.delta

    def score(self) -> LinearScoreSystem:
        """Drift score: gram = (1/n) sum Y_k Y_k', moment = (1/(n delta)) sum Y_k dX_k."""
        z, n = self.design, self.increments.size
        return LinearScoreSystem(gram=z.T @ z / n,
                                 moment=z.T @ self.increments / (n * self.delta))

    def fit_coordinates(self, theta: np.ndarray) -> np.ndarray:
        """A solution of ``score()``, unchanged: it has no intercept to recover."""
        return theta


def diffusion_design(path: SeriesSample, target: int = 0) -> DiffusionDesign:
    """The ``DiffusionDesign`` of ``values[:-1]`` against ``diff(values[:, target])``."""
    if path.n < 2:
        raise ValueError("path must contain at least two points")
    if not 0 <= target < path.dim:
        raise ValueError(f"target must lie in [0, {path.dim}), got {target}")
    return DiffusionDesign(design=path.values[:-1, :],
                           increments=np.diff(path.values[:, target]), delta=path.delta)


def build_weighted_system(design: np.ndarray, response: np.ndarray,
                          support: Sequence[int], variance: np.ndarray) -> LinearScoreSystem:
    """Weighted system on the columns ``support`` of ``design``, in sorted order.

    ``variance`` holds the conditional variance of each row (the
    ``NuisanceEstimate.variance`` of the fit) and each row is weighted by
    its inverse; for a diffusion the responses are ``DiffusionDesign.response``,
    the increments divided by delta.  Variances are floored at
    ``VARIANCE_FLOOR`` so all-zero count histories cannot produce infinite
    weights.  A non-finite variance raises ``NuisanceError``, and a
    ``variance`` that does not hold one value per row raises ``ValueError``.
    """
    support = sorted(int(j) for j in support)
    if not support:
        raise ValueError("support must be nonempty")
    z = np.asarray(design, dtype=float)[:, support]
    y = np.asarray(response, dtype=float).ravel()
    n = y.size
    var = np.asarray(variance, dtype=float)
    if var.shape != (n,):
        raise ValueError(f"variance must hold one value per row: {var.shape} for {n} rows")
    if not np.all(np.isfinite(var)):
        raise NuisanceError("conditional variance is not finite")
    var = np.maximum(var, VARIANCE_FLOOR)
    w = 1.0 / var
    return LinearScoreSystem(gram=(z * w[:, None]).T @ z / n, moment=z.T @ (w * y) / n)
