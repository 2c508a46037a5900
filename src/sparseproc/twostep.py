"""Second-step estimation: nuisance plug-in and weighted support-restricted solve.

After the first-step fit selects a support, the conditional-variance
structure is estimated on that support, the score is reweighted by the
fitted inverse variances, and the restricted linear system is solved for
the final estimate together with its plug-in asymptotic covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .dantzig import DantzigFit, SupportEstimate, solve_dantzig, threshold_support
from .errors import DegenerateVarianceError, RankError, UncertifiedFitError
from .scores import (WeightedScoreSystem, build_diffusion_score, build_regression_score,
                     build_weighted_system, center_design, diffusion_design)
from .simulate import SeriesSample


@dataclass(frozen=True)
class NuisanceEstimate:
    """Fitted conditional-variance structure.

    ``inar_linear_variance`` holds the linear-variance coefficients over
    ``support``; ``diffusion_constant_sigma2`` holds a positive scalar.
    """

    kind: str
    values: np.ndarray
    support: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("inar_linear_variance", "diffusion_constant_sigma2"):
            raise ValueError(f"unknown nuisance kind {self.kind!r}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "support", tuple(int(j) for j in self.support))
        if self.kind == "diffusion_constant_sigma2" and not float(self.values) > 0:
            raise DegenerateVarianceError("sigma^2 estimate must be positive")


@dataclass(frozen=True)
class TwoStepFit:
    """Full pipeline output: support, nuisance, final estimate, covariance."""

    support: SupportEstimate
    theta_tilde: np.ndarray
    nuisance: Optional[NuisanceEstimate]
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
    return NuisanceEstimate(kind="inar_linear_variance", values=h, support=tuple(support))


def estimate_diffusion_sigma2(path: SeriesSample, target: int = 0) -> NuisanceEstimate:
    """Quadratic-variation estimate sigma^2 = sum (dX)^2 / (n delta)."""
    _, dx = diffusion_design(path, target)
    s2 = float(dx @ dx / (dx.size * path.delta))
    if s2 <= 0:
        raise DegenerateVarianceError("constant path: quadratic variation is zero")
    return NuisanceEstimate(kind="diffusion_constant_sigma2", values=np.array(s2))


def _check_positive_definite(gram: np.ndarray) -> None:
    """Raise ``RankError`` unless ``gram`` has a Cholesky factor."""
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"weighted gram not positive definite: {exc}") from exc


def solve_weighted(wsys: WeightedScoreSystem) -> np.ndarray:
    """Solve gram_w theta = moment_w; gram_w must be SPD."""
    _check_positive_definite(wsys.gram_w)
    theta = np.linalg.solve(wsys.gram_w, wsys.moment_w)
    resid = np.abs(wsys.gram_w @ theta - wsys.moment_w).max()
    tol = 1e-8 * (1.0 + np.abs(wsys.moment_w).max())
    if resid > tol:
        raise RankError(f"weighted solve residual {resid:.2e} exceeds {tol:.2e}")
    return theta


def _covariance(wsys: WeightedScoreSystem) -> np.ndarray:
    """Plug-in covariance of theta_tilde: gram_w^{-1} / n (or /(n delta))."""
    _check_positive_definite(wsys.gram_w)
    inv = np.linalg.inv(wsys.gram_w)
    scale = wsys.n_eff * (wsys.delta if wsys.delta is not None else 1.0)
    return 0.5 * (inv + inv.T) / scale


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
                 nuisance: Optional[NuisanceEstimate] = None,
                 nuisance_mode: str = "residual") -> TwoStepFit:
    """Run the full pipeline on prepared design rows.

    The first step is ``first_step``; a fit is a diffusion fit exactly when
    ``delta`` is given.  A count/regression fit always carries the
    intercept (column 0) into step two.

    ``nuisance_mode`` picks the variance plug-in when ``nuisance`` is not
    supplied: "residual" fits the linear variance to squared first-step
    residuals (projected onto nonnegative coefficients), "plugin_theta"
    reuses the first-step coefficients themselves, which is exact for
    conditionally Poisson counts where the conditional variance equals the
    conditional mean.

    For a diffusion fit pass the rows of ``diffusion_design``, the sampling
    interval ``delta`` and the constant-sigma nuisance of
    ``estimate_diffusion_sigma2``.
    """
    z = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    d = z.shape[1]
    # the offset from selected coordinates to design columns, the columns
    # always carried into step two, and the second-step response
    if delta is None:
        offset, carried, y2 = 1, {0}, y
    else:
        if nuisance is None or nuisance.kind != "diffusion_constant_sigma2":
            raise ValueError("diffusion fits need a constant-sigma^2 nuisance estimate")
        offset, carried, y2 = 0, set(), y / delta

    fit1, theta_first, sel = first_step(z, y, lam, tau, delta)
    support2 = sorted({j + offset for j in sel.indices} | carried)
    if not support2:
        return TwoStepFit(support=sel, theta_tilde=np.zeros(d), nuisance=nuisance,
                          asymp_cov=np.empty((0, 0)), first_step=fit1,
                          theta_first=theta_first, fit_support=(), empty_model=True)

    if nuisance is not None:
        nui = nuisance
    elif nuisance_mode == "plugin_theta":
        nui = NuisanceEstimate(kind="inar_linear_variance",
                               values=np.maximum(theta_first[support2], 0.0),
                               support=tuple(support2))
    elif nuisance_mode == "residual":
        nui = estimate_inar_nuisance(z, y, support2, theta_first)
    else:
        raise ValueError(f"unknown nuisance_mode {nuisance_mode!r}")
    wsys = build_weighted_system(z, y2, support2, nui, delta=delta)
    theta_t = solve_weighted(wsys)
    theta_full = np.zeros(d)
    theta_full[support2] = theta_t
    return TwoStepFit(support=sel, theta_tilde=theta_full, nuisance=nui,
                      asymp_cov=_covariance(wsys), first_step=fit1,
                      theta_first=theta_first, fit_support=wsys.support)


def two_step_to_dict(fit: TwoStepFit) -> dict:
    """JSON-ready view: support, sparse theta pairs, nuisance, dense cov."""
    return {
        "support": [int(j) for j in fit.support.indices],
        "tau": fit.support.threshold,
        "theta_tilde": [[int(j), float(v)] for j, v in enumerate(fit.theta_tilde)
                        if v != 0.0],
        "nuisance": None if fit.nuisance is None else {
            "kind": fit.nuisance.kind,
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
