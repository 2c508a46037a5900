"""Linear score systems: the pair (A, b) with score psi(theta) = b - A theta.

Every model in scope (regression, INAR counts, linear diffusion drift)
reduces its estimating function to this affine form; A is the Gram matrix
and b the moment vector.  The weighted second-step system has the same
form, restricted to a support set with per-observation inverse-variance
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

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


def build_inar_score(series: SeriesSample, order: int, target: int = 0) -> LinearScoreSystem:
    """Conditional least-squares score for count autoregressions.

    The system of ``center_design`` over the lag coefficients, which the
    first step solves; the raw system over (intercept, lags) is
    ``build_regression_score(*lagged_design(series, order, target))``.
    """
    if series.kind != "counts":
        raise ValueError("INAR score requires a counts series")
    design, response, _, _ = center_design(*lagged_design(series, order, target))
    return build_regression_score(design, response)


def diffusion_design(path: SeriesSample, target: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Covariate rows Y_k = X_k at the left endpoints and increments of ``target``.

    The layout every diffusion drift fit uses: ``values[:-1]`` against
    ``diff(values[:, target])``.
    """
    if path.delta is None:
        raise ValueError("diffusion path must carry a sampling interval delta")
    if path.n < 2:
        raise ValueError("path must contain at least two points")
    return path.values[:-1, :], np.diff(path.values[:, target])


def build_diffusion_score(covariates: np.ndarray, increments: np.ndarray,
                          delta: float) -> LinearScoreSystem:
    """Drift score from discrete observations.

    gram = (1/n) sum Y_k Y_k', moment = (1/(n delta)) sum Y_k (X_{k+1} - X_k)
    on the rows of ``diffusion_design``.
    """
    z = np.asarray(covariates, dtype=float)
    dx = np.asarray(increments, dtype=float).ravel()
    if z.ndim != 2 or z.shape[0] != dx.size:
        raise ValueError("covariate rows must align with increments")
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError("delta must be finite and positive")
    n = dx.size
    return LinearScoreSystem(gram=z.T @ z / n, moment=z.T @ dx / (n * delta), n_eff=n)


def build_weighted_system(design: np.ndarray, response: np.ndarray,
                          support: Sequence[int], variance: np.ndarray) -> LinearScoreSystem:
    """Weighted system on the columns ``support`` of ``design``, in sorted order.

    ``variance`` holds the conditional variance of each row (the
    ``NuisanceEstimate.variance`` of the fit) and each row is weighted by
    its inverse; for a diffusion the responses must be increments divided
    by delta.  Variances are floored at ``VARIANCE_FLOOR`` so all-zero
    count histories cannot produce infinite weights.  A non-finite variance
    raises ``NuisanceError``, and a ``variance`` that does not hold one
    value per row raises ``ValueError``.
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
    return LinearScoreSystem(gram=(z * w[:, None]).T @ z / n, moment=z.T @ (w * y) / n,
                             n_eff=n)
