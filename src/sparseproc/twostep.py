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
from .scores import (LinearScoreSystem, WeightedScoreSystem, build_regression_score,
                     build_weighted_system, center_design)
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
    selection_flag: Optional[bool]
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
    if path.delta is None or path.delta <= 0:
        raise ValueError("path must carry a positive sampling interval")
    dx = np.diff(path.values[:, target])
    if dx.size < 1:
        raise ValueError("path must contain at least two points")
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


def two_step_fit(design: np.ndarray, response: np.ndarray, lam: float, tau: float,
                 *, model_tag: str = "inar", delta: Optional[float] = None,
                 nuisance: Optional[NuisanceEstimate] = None,
                 nuisance_mode: str = "residual",
                 reference_support: Optional[Sequence[int]] = None) -> TwoStepFit:
    """Run the full pipeline on prepared design rows.

    For count/regression models ``design`` carries the intercept in column
    0; the first step runs on the mean-centered non-intercept columns of
    ``center_design`` and the intercept is recovered from the means.
    Selection (and ``selection_flag`` against ``reference_support``) is in
    the coordinates of the selected vector: non-intercept columns 1..p
    reported as 0..p-1.  The intercept is always carried into step two.

    ``nuisance_mode`` picks the variance plug-in when ``nuisance`` is not
    supplied: "residual" fits the linear variance to squared first-step
    residuals (projected onto nonnegative coefficients), "plugin_theta"
    reuses the first-step coefficients themselves, which is exact for
    conditionally Poisson counts where the conditional variance equals the
    conditional mean.

    For ``model_tag="diffusion"`` pass the covariate rows, the raw
    increments as ``response`` and the sampling interval ``delta``; the
    constant-sigma nuisance must be supplied by the caller.

    Raises ``UncertifiedFitError`` when the first-step LP does not end
    optimal.
    """
    if model_tag not in ("inar", "regression", "diffusion"):
        raise ValueError(f"unknown model_tag {model_tag!r}")
    z = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    n, d = z.shape

    # per-model preparation: the first-step system, the offset from selected
    # coordinates to design columns, the columns always carried into step
    # two, and the second-step response
    if model_tag == "diffusion":
        if delta is None:
            raise ValueError("diffusion fits need delta")
        if nuisance is None or nuisance.kind != "diffusion_constant_sigma2":
            raise ValueError("diffusion fits need a constant-sigma^2 nuisance estimate")
        gram = z.T @ z / n
        moment = z.T @ y / (n * delta)
        sys1 = LinearScoreSystem(gram=gram, moment=moment, n_eff=n)
        offset, carried, y2 = 0, set(), y / delta
    else:  # count / regression models: column 0 is the intercept
        zc, yc, z_bar, y_bar = center_design(z, y)
        sys1 = build_regression_score(zc, yc)
        offset, carried, y2 = 1, {0}, y
        delta = None  # only diffusion fits scale by the sampling interval

    fit1 = solve_dantzig(sys1, lam)
    if fit1.status != "optimal":
        raise UncertifiedFitError(f"first-step LP ended with status {fit1.status!r}")
    theta_first = fit1.theta_hat
    if offset:  # intercept recovered from the means
        theta_first = np.concatenate([[y_bar - theta_first @ z_bar], theta_first])
    sel = threshold_support(fit1, tau)
    flag = (set(sel.indices) == set(int(j) for j in reference_support)
            if reference_support is not None else None)

    support2 = sorted({j + offset for j in sel.indices} | carried)
    if not support2:
        return TwoStepFit(support=sel, theta_tilde=np.zeros(d), nuisance=nuisance,
                          asymp_cov=np.empty((0, 0)), selection_flag=flag,
                          first_step=fit1, theta_first=theta_first,
                          fit_support=(), empty_model=True)

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
                      asymp_cov=_covariance(wsys), selection_flag=flag,
                      first_step=fit1, theta_first=theta_first,
                      fit_support=wsys.support)


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
        "selection_flag": fit.selection_flag,
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
