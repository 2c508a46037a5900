"""Second-step estimation: nuisance plug-in and weighted support-restricted solve.

After the first-step fit selects a support, the conditional-variance
structure is estimated on that support, the score is reweighted by the
fitted inverse variances, and the restricted system, a plain
``LinearScoreSystem``, is factored once for the final estimate and the
inverse gram; the inverse gram divided by the design's Fisher scale (n, or
n delta for a diffusion) is the plug-in asymptotic covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .dantzig import DantzigFit, SupportEstimate, fit_to_dict, solve_dantzig, threshold_support
from .errors import DegenerateVarianceError, RankError, UncertifiedFitError
from .scores import (CenteredDesign, DiffusionDesign, LinearScoreSystem,
                     build_weighted_system, diffusion_design)
# no longer called here; perfbench/tracing.py still wraps twostep.build_regression_score by name
from .scores import build_regression_score  # noqa: F401
from .simulate import SeriesSample


# what a fit runs on: a prepared count/regression or diffusion design
FitData = Union[CenteredDesign, DiffusionDesign]


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


@dataclass(frozen=True)
class TwoStepFit:
    """Full pipeline output: support, nuisance, final estimate, covariance."""

    support: SupportEstimate
    theta_tilde: np.ndarray
    nuisance: NuisanceEstimate
    asymp_cov: np.ndarray
    first_step: DantzigFit
    theta_first: np.ndarray        # first-step estimate on the same coordinates
    fit_support: Tuple[int, ...]   # coordinates actually solved in step two

    @property
    def empty_model(self) -> bool:
        """Whether step two had no coordinate to solve on, so it solved no weighted system."""
        return not self.fit_support


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


def _diffusion_nuisance(data: DiffusionDesign) -> NuisanceEstimate:
    """sigma^2 = sum (dX)^2 / (n delta) on every row; ``DegenerateVarianceError`` unless > 0."""
    increments = data.increments
    s2 = float(increments @ increments / (increments.size * data.delta))
    if not s2 > 0:
        raise DegenerateVarianceError("constant path: quadratic variation is zero")
    return NuisanceEstimate(kind="diffusion_constant_sigma2", values=np.array(s2),
                            variance=np.full(increments.size, s2))


def estimate_diffusion_sigma2(path: SeriesSample, target: int = 0) -> NuisanceEstimate:
    """The sigma^2 nuisance that a diffusion fit of ``diffusion_design(path, target)`` uses."""
    return _diffusion_nuisance(diffusion_design(path, target))


def solve_weighted(wsys: LinearScoreSystem) -> Tuple[np.ndarray, np.ndarray]:
    """theta solving gram theta = moment, and gram^{-1}, from one Cholesky factor.

    Raises ``RankError`` unless gram is SPD and the residual
    max |gram theta - moment| is at most 1e-8 (1 + max |moment|).  The
    inverse is returned symmetrized; ``two_step_fit`` divides it by the
    design's Fisher scale for the plug-in covariance.
    """
    try:
        linv = np.linalg.inv(np.linalg.cholesky(wsys.gram))
    except np.linalg.LinAlgError as exc:
        raise RankError(f"weighted gram not positive definite: {exc}") from exc
    theta = linv.T @ (linv @ wsys.moment)
    resid = np.abs(wsys.gram @ theta - wsys.moment).max()
    tol = 1e-8 * (1.0 + np.abs(wsys.moment).max())
    if resid > tol:
        raise RankError(f"weighted solve residual {resid:.2e} exceeds {tol:.2e}")
    inv = linv.T @ linv
    return theta, 0.5 * (inv + inv.T)


def first_step(data: FitData, lam: float, tau: float
               ) -> Tuple[DantzigFit, np.ndarray, SupportEstimate]:
    """The Dantzig fit, the first-step estimate and its thresholded support.

    The LP runs on ``data.score()``: for a ``CenteredDesign`` the centered
    non-intercept columns, so the support is in those coordinates (columns
    1..p reported as 0..p-1); for a ``DiffusionDesign`` the drift score of
    the rows as given.  The first-step estimate is in fit coordinates
    (``data.fit_coordinates``), with the intercept of a count design
    recovered from the means.

    Raises ``UncertifiedFitError`` when the LP does not end optimal.
    """
    fit = solve_dantzig(data.score(), lam)
    if fit.status != "optimal":
        raise UncertifiedFitError(f"first-step LP ended with status {fit.status!r}")
    return fit, data.fit_coordinates(fit.theta_hat), threshold_support(fit, tau)


def two_step_fit(data: FitData, lam: float, tau: float, *,
                 nuisance_mode: str = "residual") -> TwoStepFit:
    """Run the full pipeline on a prepared design.

    ``data`` is that of ``first_step``.  Step two solves on the selected
    coordinates shifted by ``data.offset`` plus the ``data.offset`` leading
    intercept columns: it gathers those design columns once, with
    ``data.columns``, for the nuisance and the weighted system, weights
    each of their rows and of ``data.response`` by the inverse of its
    ``NuisanceEstimate.variance``, and divides the inverse weighted gram by
    ``data.fisher``.

    The nuisance is the one model switch.  A ``DiffusionDesign`` carries
    the quadratic variation sigma^2 of its increments, estimated before any
    LP runs, so a constant path raises ``DegenerateVarianceError`` first.
    For a count/regression design ``nuisance_mode`` picks the variance:
    "residual" fits the linear variance to squared first-step residuals
    (projected onto nonnegative coefficients), "plugin_theta" reuses the
    first-step coefficients themselves, which is exact for conditionally
    Poisson counts where the conditional variance equals the conditional
    mean.
    """
    if nuisance_mode not in ("residual", "plugin_theta"):
        raise ValueError(f"unknown nuisance_mode {nuisance_mode!r}")
    nui = _diffusion_nuisance(data) if isinstance(data, DiffusionDesign) else None
    offset = data.offset

    fit1, theta_first, sel = first_step(data, lam, tau)
    support2 = list(range(offset)) + [j + offset for j in sel.indices]  # indices ascend
    if not support2:
        return TwoStepFit(support=sel, theta_tilde=np.zeros(theta_first.size), nuisance=nui,
                          asymp_cov=np.empty((0, 0)), first_step=fit1,
                          theta_first=theta_first, fit_support=())
    z = data.columns(support2)
    if nui is None and nuisance_mode == "plugin_theta":
        h = np.maximum(theta_first[support2], 0.0)
        nui = NuisanceEstimate(kind="inar_linear_variance", values=h, variance=z @ h,
                               support=tuple(support2))
    elif nui is None:
        nui = estimate_inar_nuisance(z, data.response, support2, theta_first[support2])

    theta_t, inv = solve_weighted(build_weighted_system(z, data.response, nui.variance))
    theta_full = np.zeros(theta_first.size)
    theta_full[support2] = theta_t
    return TwoStepFit(support=sel, theta_tilde=theta_full, nuisance=nui,
                      asymp_cov=inv / data.fisher, first_step=fit1,
                      theta_first=theta_first, fit_support=tuple(support2))


def two_step_to_dict(fit: TwoStepFit) -> dict:
    """The ``fit`` verb's JSON: support, sparse theta pairs, nuisance, cov, first step."""
    return {
        "support": [int(j) for j in fit.support.indices],
        "tau": fit.support.threshold,
        "theta_tilde": [[int(j), float(v)] for j, v in enumerate(fit.theta_tilde)
                        if v != 0.0],
        "nuisance": {"kind": fit.nuisance.kind,
                     "values": np.atleast_1d(fit.nuisance.values).tolist(),
                     "support": list(fit.nuisance.support)},
        "cov": fit.asymp_cov.tolist(),
        "empty_model": fit.empty_model,
        "first_step": fit_to_dict(fit.first_step),
        "theta_first": fit.theta_first.tolist(),
    }


def project_statistic(fit: TwoStepFit, u: np.ndarray, theta_true: np.ndarray,
                      scale: float) -> float:
    """scale * u'(theta_tilde - theta_true) for a unit-l2 direction u."""
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise ValueError("u must have unit l2 norm")
    diff = fit.theta_tilde - np.asarray(theta_true, dtype=float)
    return float(scale * (u @ diff))
