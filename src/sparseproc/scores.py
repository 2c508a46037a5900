"""Linear score systems and the prepared designs that build them.

Every model in scope (regression, INAR counts, linear diffusion drift)
reduces its estimating function to the affine form psi(theta) = b - A theta
(``LinearScoreSystem``: A the Gram matrix, b the moment vector).  A prepared
design also owns its variance rule, ``nuisance``, whose per-row variances
weight the second-step system of the same form on a support set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateVarianceError, NuisanceError
from .simulate import SeriesSample, as_float, as_int

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
class NuisanceEstimate:
    """Fitted conditional-variance structure.

    ``variance`` holds the conditional variance of each fit row, the one
    thing the second step reads.  ``kind``, ``values`` and ``support``
    record the fit: ``inar_linear_variance`` coefficients h over
    ``support`` (``variance = data.columns(support) @ h``), or the
    ``diffusion_constant_sigma2`` scalar (``variance`` is sigma^2 on every row).
    """

    kind: str
    values: np.ndarray
    variance: np.ndarray
    support: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "variance", np.asarray(self.variance, dtype=float))
        object.__setattr__(self, "support", tuple(int(j) for j in self.support))


def estimate_inar_nuisance(columns: np.ndarray, response: np.ndarray,
                           support: Sequence[int], theta_first: np.ndarray
                           ) -> NuisanceEstimate:
    """Linear-variance coefficients from squared first-step residuals.

    ``columns`` holds the design columns Z_T of the coordinates ``support``
    (``data.columns(support)``) and ``theta_first`` the first-step
    coefficients on them, in that order; ``support`` is only recorded.
    Least squares of r_t^2 on Z_{t,T} over the nonnegative orthant, with
    residuals r_t = y_t - theta_first_T' Z_{t,T}: the true coefficients are
    variances, so h >= 0 coordinatewise, and the fitted variance h' Z_{t,T}
    stays nonnegative on every observed row of a count design.
    """
    # deferred: scipy.optimize costs about 0.2 s and 17 MB at import, and only this fit uses it
    from scipy.optimize import nnls

    zt = np.asarray(columns, dtype=float)
    if zt.ndim != 2 or zt.shape[1] == 0:
        raise ValueError("columns must be a nonempty n x k block")
    y = np.asarray(response, dtype=float).ravel()
    resid = y - zt @ np.asarray(theta_first, dtype=float)
    h, _ = nnls(zt, resid ** 2)
    return NuisanceEstimate(kind="inar_linear_variance", values=h, variance=zt @ h,
                            support=tuple(support))


@dataclass(frozen=True)
class CenteredDesign:
    """A count/regression design prepared once for every fit on it.

    ``lags``, the design without its intercept column 0, and ``response``
    as given; ``zc`` and ``yc``, both mean-centered; the means ``z_bar``
    and ``y_bar`` that were removed; and the centered moment
    ``zc' yc / n``, which both the default CV grid and the first step read.
    The intercept is the one (``offset``) fit coordinate the first step
    does not select over; ``fit_coordinates`` recovers it from the means.
    No design with its column of ones is held: ``columns`` gathers the few
    design columns that the second step reads.  ``poisson`` picks the
    variance rule of ``nuisance`` and nothing else.
    """

    lags: np.ndarray
    response: np.ndarray
    zc: np.ndarray
    yc: np.ndarray
    z_bar: np.ndarray
    y_bar: float
    moment: np.ndarray
    poisson: bool = False

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

    def columns(self, support: Sequence[int]) -> np.ndarray:
        """The design columns ``support``, column 0 the intercept's ones.

        Laid out in Fortran order, as numpy lays out ``design[:, support]``:
        the BLAS calls on the result follow its layout, so a C-order copy
        would round the second step differently.
        """
        width = self.lags.shape[1] + 1
        out = np.empty((self.n, len(support)), order="F")
        for k, j in enumerate(support):
            if not 0 <= j < width:
                raise IndexError(f"design column {j} is outside [0, {width})")
            out[:, k] = self.lags[:, j - 1] if j else 1.0
        return out

    def nuisance(self, columns: np.ndarray, support: Sequence[int],
                 theta: np.ndarray) -> NuisanceEstimate:
        """The variance h' Z_T on ``columns(support)``, given first-step ``theta`` there.

        Conditionally Poisson counts (``poisson``) have variance equal to their
        mean, so h = max(theta, 0); otherwise h is ``estimate_inar_nuisance``.
        """
        if not self.poisson:
            return estimate_inar_nuisance(columns, self.response, support, theta)
        h = np.maximum(theta, 0.0)
        return NuisanceEstimate(kind="inar_linear_variance", values=h, variance=columns @ h,
                                support=tuple(support))


def _center(lags: np.ndarray, response: np.ndarray, poisson: bool) -> CenteredDesign:
    """The ``CenteredDesign`` of lag columns (n x p) and responses."""
    y = np.asarray(response, dtype=float).ravel()
    z_bar = lags.mean(axis=0)
    y_bar = y.mean()
    zc, yc = lags - z_bar, y - y_bar
    return CenteredDesign(lags=lags, response=y, zc=zc, yc=yc, z_bar=z_bar, y_bar=y_bar,
                          moment=zc.T @ yc / y.size, poisson=poisson)


def center_design(design: np.ndarray, response: np.ndarray, *,
                  poisson: bool = False) -> CenteredDesign:
    """The ``CenteredDesign`` of explicit rows with the intercept in column 0.

    Count models select on the centered lag columns; the intercept is then
    recovered as y_bar - theta' z_bar and never enters the l1 program.
    ``center_lags`` gives the same design of a series without writing its rows.
    """
    return _center(np.asarray(design, dtype=float)[:, 1:], response, poisson)


def _lags(series: SeriesSample, order: int, target: int) -> Tuple[np.ndarray, np.ndarray]:
    """Lag rows (X_{t-1}, ..., X_{t-p}) and responses X_t: the rule of ``lagged_design``.

    The first response is row max(lag_rows, order) of ``rows``, and the rows
    before it supply the lags: a sample with fewer lag rows than ``order``
    conditions on its first ``order`` rows, as conditional least squares does.
    """
    rows, d, total = series.rows, series.dim, series.rows.shape[0]
    order, target = as_int(order, "order"), as_int(target, "target")
    if not 0 <= target < d:
        raise ValueError(f"target must lie in [0, {d}), got {target}")
    if order < 1 or (d > 1 and order != 1):
        raise ValueError("order must be >= 1, and 1 for a multivariate series")
    first = max(series.lag_rows, order)
    if first >= total:
        raise ValueError(f"order {order} and {series.lag_rows} lag rows leave no response "
                         f"among the {total} rows")
    # response row t has lags 1..order: for one column its window at t - order, reversed
    lags = sliding_window_view(rows[:, 0], order)[:, ::-1] if d == 1 else rows
    return lags[first - order: total - order], rows[first:, target]


def lagged_design(series: SeriesSample, order: int, target: int = 0
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Design rows (1, X_{t-1}, ..., X_{t-p}) and responses X_t.

    Univariate series use ``order`` lags of the single coordinate; for a
    multivariate series the design is the full previous state vector
    (order must be 1) and the response is coordinate ``target``.
    """
    lags, response = _lags(series, order, target)
    design = np.empty((lags.shape[0], lags.shape[1] + 1))
    design[:, 0] = 1.0
    design[:, 1:] = lags
    return design, response


def center_lags(series: SeriesSample, order: int, target: int = 0, *,
                poisson: bool = False) -> CenteredDesign:
    """``center_design(*lagged_design(series, order, target), poisson=...)``, byte for byte.

    The lags are centered where they lie, as a view of the sample's ``rows``;
    the n x (p + 1) design is never written.
    """
    return _center(*_lags(series, order, target), poisson)


def build_inar_score(series: SeriesSample, order: int, target: int = 0) -> LinearScoreSystem:
    """Conditional least-squares score for count autoregressions.

    The ``score()`` of ``center_lags(series, order, target)``: the
    centered lag columns, which the first step solves.  The raw system over
    (intercept, lags) is
    ``build_regression_score(*lagged_design(series, order, target))``.
    """
    if series.kind != "counts":
        raise ValueError("INAR score requires a counts series")
    return center_lags(series, order, target).score()


@dataclass(frozen=True)
class DiffusionDesign:
    """A diffusion drift design: left-endpoint states against target increments.

    ``design`` holds the covariate rows Y_k = X_k, ``increments`` the
    target's X_{k+1} - X_k, and ``delta`` the sampling interval (> 0, ``as_float``);
    rows and ``delta`` are checked once, here.  Every design coordinate is selected
    (``offset = 0``), and a first-step solution is already in fit
    coordinates.  ``sigma2``, the quadratic variation sum (dX)^2 / (n delta), is
    computed here too, so a constant path raises ``DegenerateVarianceError``.
    """

    design: np.ndarray
    increments: np.ndarray
    delta: float
    sigma2: float = field(init=False)

    offset: ClassVar[int] = 0

    def __post_init__(self):
        z = np.asarray(self.design, dtype=float)
        dx = np.asarray(self.increments, dtype=float)
        object.__setattr__(self, "design", z)
        object.__setattr__(self, "increments", dx)
        if z.ndim != 2 or dx.shape != (z.shape[0],):
            raise ValueError("covariate rows must align with increments")
        object.__setattr__(self, "delta", as_float(self.delta, "delta", positive=True))
        for name, values in (("design", z), ("increments", dx)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        s2 = float(dx @ dx / (dx.size * self.delta))
        if not s2 > 0:
            raise DegenerateVarianceError("constant path: quadratic variation is zero")
        object.__setattr__(self, "sigma2", s2)

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

    def columns(self, support: Sequence[int]) -> np.ndarray:
        """The covariate columns ``support``: ``design[:, support]``."""
        return self.design[:, support]

    def nuisance(self, columns: np.ndarray, support: Sequence[int],
                 theta: np.ndarray) -> NuisanceEstimate:
        """``sigma2`` on every row, whatever the support and first step."""
        return NuisanceEstimate(kind="diffusion_constant_sigma2", values=np.array(self.sigma2),
                                variance=np.full(self.increments.size, self.sigma2))


def diffusion_design(path: SeriesSample, target: int = 0) -> DiffusionDesign:
    """The ``DiffusionDesign`` of ``values[:-1]`` against ``diff(values[:, target])``."""
    if path.n < 2:
        raise ValueError("path must contain at least two points")
    target = as_int(target, "target")
    if not 0 <= target < path.dim:
        raise ValueError(f"target must lie in [0, {path.dim}), got {target}")
    return DiffusionDesign(design=path.values[:-1, :],
                           increments=np.diff(path.values[:, target]), delta=path.delta)


def build_weighted_system(columns: np.ndarray, response: np.ndarray,
                          variance: np.ndarray) -> LinearScoreSystem:
    """Weighted system on the gathered design ``columns`` (n x k, k >= 1).

    ``columns`` is the ``columns(support)`` of the fit's design, and
    ``variance`` holds the conditional variance of each row (the
    ``NuisanceEstimate.variance`` of the fit); each row is weighted by its
    inverse.  For a diffusion the responses are ``DiffusionDesign.response``,
    the increments divided by delta.  Variances are floored at
    ``VARIANCE_FLOOR`` so all-zero count histories cannot produce infinite
    weights.  A non-finite variance raises ``NuisanceError``, and a
    ``variance`` that does not hold one value per row raises ``ValueError``.
    """
    z = np.asarray(columns, dtype=float)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError("columns must be a nonempty n x k block")
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
