"""Second-step estimation: nuisance plug-in and weighted support-restricted solve.

After the first-step fit selects a support, the conditional-variance
structure is estimated on that support, the score is reweighted by the
fitted inverse variances, and the restricted system, a plain
``LinearScoreSystem``, is factored once for the final estimate and the
inverse gram; the inverse gram scaled by n (n delta for a diffusion) is the
plug-in asymptotic covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .dantzig import DantzigFit, SupportEstimate, solve_dantzig, threshold_support
from .errors import DegenerateVarianceError, RankError, UncertifiedFitError
from .scores import (LinearScoreSystem, build_diffusion_score, build_regression_score,
                     build_weighted_system, center_design, diffusion_design)
from .simulate import SeriesSample


@dataclass(frozen=True)
class NuisanceEstimate:
    """Fitted conditional-variance structure.

    ``variance`` holds the conditional variance of each fit row, the one
    thing the second step reads.  ``kind``, ``values`` and ``support``
    record the fit: ``inar_linear_variance`` coefficients h over
    ``support`` (``variance = z[:, support] @ h``), or the
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
    empty_model: bool = False


def estimate_inar_nuisance(design: np.ndarray, response: np.ndarray,
                           support: Sequence[int], theta_first: np.ndarray
                           ) -> NuisanceEstimate:
    """Linear-variance coefficients from squared first-step residuals.

    Least squares of r_t^2 on Z_{t,T} over the nonnegative orthant, with
    residuals r_t = y_t - theta_first_T' Z_{t,T}: the true coefficients are
    variances, so h >= 0 coordinatewise, and the fitted variance h' Z_{t,T}
    stays nonnegative on every observed row of a count design.
    """
    # deferred: scipy.optimize costs about 0.2 s and 17 MB at import, and only this fit uses it
    from scipy.optimize import nnls

    support = sorted(int(j) for j in support)
    if not support:
        raise ValueError("support must be nonempty")
    z = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    zt = z[:, support]
    resid = y - zt @ np.asarray(theta_first, dtype=float)[support]
    h, _ = nnls(zt, resid ** 2)
    return NuisanceEstimate(kind="inar_linear_variance", values=h, variance=zt @ h,
                            support=tuple(support))


def _diffusion_nuisance(increments: np.ndarray, delta: float) -> NuisanceEstimate:
    """sigma^2 = sum (dX)^2 / (n delta) on every row; ``DegenerateVarianceError`` unless > 0."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError("delta must be finite and positive")
    s2 = float(increments @ increments / (increments.size * delta))
    if not s2 > 0:
        raise DegenerateVarianceError("constant path: quadratic variation is zero")
    return NuisanceEstimate(kind="diffusion_constant_sigma2", values=np.array(s2),
                            variance=np.full(increments.size, s2))


def estimate_diffusion_sigma2(path: SeriesSample, target: int = 0) -> NuisanceEstimate:
    """The sigma^2 nuisance that a diffusion fit of ``diffusion_design(path, target)`` uses."""
    return _diffusion_nuisance(diffusion_design(path, target)[1], path.delta)


def solve_weighted(wsys: LinearScoreSystem) -> Tuple[np.ndarray, np.ndarray]:
    """theta solving gram theta = moment, and gram^{-1}, from one Cholesky factor.

    Raises ``RankError`` unless gram is SPD and the residual
    max |gram theta - moment| is at most 1e-8 (1 + max |moment|).  The
    inverse is returned symmetrized; ``two_step_fit`` divides it by n (n
    delta for a diffusion) for the plug-in covariance.
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


def first_step(design: np.ndarray, response: np.ndarray, lam: float, tau: float,
               delta: Optional[float] = None
               ) -> Tuple[DantzigFit, np.ndarray, SupportEstimate]:
    """The Dantzig fit, the first-step estimate and its thresholded support.

    Without ``delta`` the rows are a count/regression design with the
    intercept in column 0: the LP runs on the mean-centered non-intercept
    columns of ``center_design``, the support is in those coordinates
    (columns 1..p reported as 0..p-1), and the intercept is recovered from
    the means.  With ``delta`` the rows are those of ``diffusion_design``
    and the LP runs on ``build_diffusion_score``.

    Raises ``UncertifiedFitError`` when the LP does not end optimal.
    """
    z = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    if delta is None:
        zc, yc, z_bar, y_bar = center_design(z, y)
        sys1 = build_regression_score(zc, yc)
    else:
        sys1 = build_diffusion_score(z, y, delta)
    fit = solve_dantzig(sys1, lam)
    if fit.status != "optimal":
        raise UncertifiedFitError(f"first-step LP ended with status {fit.status!r}")
    theta_first = fit.theta_hat
    if delta is None:
        theta_first = np.concatenate([[y_bar - theta_first @ z_bar], theta_first])
    return fit, theta_first, threshold_support(fit, tau)


def two_step_fit(design: np.ndarray, response: np.ndarray, lam: float, tau: float,
                 *, delta: Optional[float] = None,
                 nuisance_mode: str = "residual") -> TwoStepFit:
    """Run the full pipeline on prepared design rows.

    The first step is ``first_step``; a fit is a diffusion fit exactly when
    ``delta`` is given.  Step two weights each row by the inverse of its
    ``NuisanceEstimate.variance``.  A count/regression fit always carries
    the intercept (column 0) into step two, and ``nuisance_mode`` picks its
    variance: "residual" fits the linear variance to squared first-step
    residuals (projected onto nonnegative coefficients), "plugin_theta"
    reuses the first-step coefficients themselves, which is exact for
    conditionally Poisson counts where the conditional variance equals the
    conditional mean.

    For a diffusion fit pass the rows of ``diffusion_design`` and the
    sampling interval ``delta``.  The nuisance is then the quadratic
    variation sigma^2 of the increments, so a constant path raises
    ``DegenerateVarianceError`` before any LP runs.
    """
    if nuisance_mode not in ("residual", "plugin_theta"):
        raise ValueError(f"unknown nuisance_mode {nuisance_mode!r}")
    z = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    d = z.shape[1]
    # the offset from selected coordinates to design columns, the columns
    # always carried into step two, the nuisance of a diffusion (estimated
    # before any LP runs, so it also checks delta) and the second-step response
    if delta is None:
        offset, carried, nui, y2 = 1, {0}, None, y
    else:
        offset, carried, nui, y2 = 0, set(), _diffusion_nuisance(y, delta), y / delta

    fit1, theta_first, sel = first_step(z, y, lam, tau, delta)
    support2 = sorted({j + offset for j in sel.indices} | carried)
    if nui is None and nuisance_mode == "plugin_theta":
        h = np.maximum(theta_first[support2], 0.0)
        nui = NuisanceEstimate(kind="inar_linear_variance", values=h,
                               variance=z[:, support2] @ h, support=tuple(support2))
    elif nui is None:
        nui = estimate_inar_nuisance(z, y, support2, theta_first)
    if not support2:
        return TwoStepFit(support=sel, theta_tilde=np.zeros(d), nuisance=nui,
                          asymp_cov=np.empty((0, 0)), first_step=fit1,
                          theta_first=theta_first, fit_support=(), empty_model=True)

    wsys = build_weighted_system(z, y2, support2, nui.variance)
    theta_t, inv = solve_weighted(wsys)
    theta_full = np.zeros(d)
    theta_full[support2] = theta_t
    asymp_cov = inv / (wsys.n_eff * (delta if delta is not None else 1.0))
    return TwoStepFit(support=sel, theta_tilde=theta_full, nuisance=nui,
                      asymp_cov=asymp_cov, first_step=fit1,
                      theta_first=theta_first, fit_support=tuple(support2))


def two_step_to_dict(fit: TwoStepFit) -> dict:
    """JSON-ready view: support, sparse theta pairs, nuisance, dense cov."""
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
    }


def project_statistic(fit: TwoStepFit, u: np.ndarray, theta_true: np.ndarray,
                      scale: float) -> float:
    """scale * u'(theta_tilde - theta_true) for a unit-l2 direction u."""
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise ValueError("u must have unit l2 norm")
    diff = fit.theta_tilde - np.asarray(theta_true, dtype=float)
    return float(scale * (u @ diff))
