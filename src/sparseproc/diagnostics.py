"""Diagnostics: cone compatibility factor, normality tests, error metrics.

The compatibility factor is the infimum of |v'Mv| / (||v_T||_1 ||v||_inf)
over the cone {v : ||v_{T^c}||_1 <= ||v_T||_1}; it controls the first-step
error bound but is intractable exactly, so the estimator here is a
sampled upper bound.

The normality checks are the Shapiro-Wilk W test with the published
coefficient and p-value approximations, and Royston's H statistic that
combines marginal W tests through a correlation-adjusted chi-square.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DegenerateVarianceError
from .simulate import as_int, make_rng

_REFINE_ROUNDS = 60  # rounds of the pattern search polishing the best sampled direction


@dataclass(frozen=True)
class FInftyEstimate:
    value: float
    samples: int
    support: Tuple[int, ...]


@dataclass(frozen=True)
class NormalityReport:
    statistic: float
    p_value: float


def _cone_ratio(v: np.ndarray, m: np.ndarray, t_idx: np.ndarray) -> float:
    num = abs(v @ m @ v)
    den = np.abs(v[t_idx]).sum() * np.abs(v).max()
    return num / den if den > 0 else np.inf


def _project_into_cone(v: np.ndarray, t_idx: np.ndarray, tc_idx: np.ndarray) -> np.ndarray:
    l1_t = np.abs(v[t_idx]).sum()
    l1_tc = np.abs(v[tc_idx]).sum()
    if l1_tc > l1_t:
        v = v.copy()
        v[tc_idx] *= l1_t / l1_tc if l1_tc > 0 else 0.0
    return v


def estimate_f_infinity(m: np.ndarray, support: Sequence[int], n_samples: int,
                        seed: int) -> FInftyEstimate:
    """Upper bound on the cone compatibility factor of ``m`` at ``support``.

    Draws directions with the support block on the unit sphere and the
    complement scaled to a uniformly drawn fraction of the allowed l1
    budget, keeps the running minimum, then polishes the best direction by
    a deterministic coordinate pattern search.  The returned value is
    always >= the true infimum.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"m must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("m must be finite")
    p = m.shape[0]
    t_idx = np.array(sorted(int(j) for j in support), dtype=int)
    if t_idx.size == 0:
        raise ValueError("support must be nonempty")
    if t_idx[0] < 0 or t_idx[-1] >= p or np.any(np.diff(t_idx) == 0):
        raise ValueError(f"support must hold distinct indices in [0, {p}), got {list(support)}")
    tc_idx = np.setdiff1d(np.arange(p), t_idx)
    n_samples = as_int(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    rng = make_rng(seed)
    best = np.inf
    best_v = None
    for _ in range(n_samples):
        v = np.zeros(p)
        g = rng.standard_normal(t_idx.size)
        norm = np.linalg.norm(g)
        if norm == 0:
            continue
        v[t_idx] = g / norm
        if tc_idx.size:
            frac = rng.uniform()
            h = rng.standard_normal(tc_idx.size)
            l1 = np.abs(h).sum()
            if l1 > 0:
                v[tc_idx] = h / l1 * frac * np.abs(v[t_idx]).sum()
        r = _cone_ratio(v, m, t_idx)
        if r < best:
            best, best_v = r, v

    if best_v is not None:
        step = 0.5
        v = best_v
        for _ in range(_REFINE_ROUNDS):
            improved = False
            scale = np.abs(v).max()
            for j in range(p):
                for sgn in (1.0, -1.0):
                    cand = v.copy()
                    cand[j] += sgn * step * scale
                    cand = _project_into_cone(cand, t_idx, tc_idx)
                    r = _cone_ratio(cand, m, t_idx)
                    if r < best:
                        best, v, improved = r, cand, True
            if not improved:
                step *= 0.5
                if step < 1e-6:
                    break
    return FInftyEstimate(value=float(best), samples=n_samples,
                          support=tuple(int(j) for j in t_idx))


# ---------------------------------------------------------------------------
# Shapiro-Wilk W and Royston's multivariate H

# order-statistic coefficient corrections (published approximation)
_SW_C1 = np.array([-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0])
_SW_C2 = np.array([-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0])


def _sw_coefficients(n: int) -> np.ndarray:
    # deferred: scipy.special costs about 50 ms at import, and only the normality tests use it
    from scipy.special import ndtri

    if n == 3:
        return np.array([-np.sqrt(0.5), 0.0, np.sqrt(0.5)])
    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    mm = m @ m
    c = m / np.sqrt(mm)
    u = 1.0 / np.sqrt(n)
    a = np.zeros(n)
    a_n = c[-1] + np.polyval(_SW_C1, u)
    if n > 5:
        a_n1 = c[-2] + np.polyval(_SW_C2, u)
        phi = (mm - 2 * m[-1] ** 2 - 2 * m[-2] ** 2) / (1 - 2 * a_n ** 2 - 2 * a_n1 ** 2)
        a[2:-2] = m[2:-2] / np.sqrt(phi)
        a[-1], a[-2] = a_n, a_n1
        a[0], a[1] = -a_n, -a_n1
    else:
        phi = (mm - 2 * m[-1] ** 2) / (1 - 2 * a_n ** 2)
        a[1:-1] = m[1:-1] / np.sqrt(phi)
        a[-1] = a_n
        a[0] = -a_n
    return a


def _sw_statistic(x: np.ndarray) -> float:
    x = np.sort(np.asarray(x, dtype=float))
    a = _sw_coefficients(x.size)
    ssq = ((x - x.mean()) ** 2).sum()
    if ssq <= 0:
        raise DegenerateVarianceError("sample has zero variance")
    return float((a @ x) ** 2 / ssq)


def _sw_z(w: float, n: int) -> float:
    """Normalizing transform of W (published constants; valid for n >= 4)."""
    w1 = max(1.0 - w, 1e-300)
    if n <= 11:
        g = -2.273 + 0.459 * n
        mu = 0.5440 - 0.39978 * n + 0.025054 * n ** 2 - 0.0006714 * n ** 3
        sig = np.exp(1.3822 - 0.77857 * n + 0.062767 * n ** 2 - 0.0020322 * n ** 3)
        if g - np.log(w1) <= 0:
            return np.inf
        return (-np.log(g - np.log(w1)) - mu) / sig
    ln_n = np.log(n)
    mu = -1.5861 - 0.31082 * ln_n - 0.083751 * ln_n ** 2 + 0.0038915 * ln_n ** 3
    sig = np.exp(-0.4803 - 0.082676 * ln_n + 0.0030302 * ln_n ** 2)
    return (np.log(w1) - mu) / sig


def shapiro_wilk(sample: np.ndarray) -> NormalityReport:
    """Shapiro-Wilk W with the standard approximate coefficients and p-value.

    Valid for 3 <= n <= 5000; the n = 3 p-value uses the exact small-sample
    formula, larger n the normalizing transform of W.
    """
    from scipy.special import ndtr

    x = np.asarray(sample, dtype=float).ravel()
    n = x.size
    if not 3 <= n <= 5000:
        raise ValueError("Shapiro-Wilk requires 3 <= n <= 5000")
    w = _sw_statistic(x)
    if n == 3:
        p = 6.0 / np.pi * (np.arcsin(np.sqrt(w)) - np.arcsin(np.sqrt(0.75)))
        p = float(np.clip(p, 0.0, 1.0))
    else:
        p = float(ndtr(-_sw_z(w, n)))  # upper tail of z
    return NormalityReport(statistic=w, p_value=p)


def royston_test(sample: np.ndarray) -> NormalityReport:
    """Royston's H test for multivariate normality.

    Each marginal Shapiro-Wilk statistic is mapped to an equivalent
    chi-square-1 contribution through the normalizing transform, and the
    contributions are summed with equivalent degrees of freedom
    e = d / (1 + (d-1) c_bar), where c_bar averages a power transform of
    the inter-column correlations.  The p-value is the chi-square-e upper
    tail.
    """
    from scipy.special import chdtrc, ndtr, ndtri

    x = np.asarray(sample, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("sample must be an n x d matrix with d >= 2")
    n, d = x.shape
    if not 4 <= n <= 5000:
        raise ValueError("Royston's test requires 4 <= n <= 5000")
    if np.any(x.std(axis=0) <= 0):
        raise DegenerateVarianceError("degenerate column (zero variance)")
    corr = np.corrcoef(x, rowvar=False)
    off = corr[~np.eye(d, dtype=bool)]
    if np.any(np.abs(off) >= 1.0 - 1e-12):
        raise DegenerateVarianceError("perfectly correlated columns")

    psi = np.empty(d)
    for j in range(d):
        z = _sw_z(_sw_statistic(x[:, j]), n)
        # fold the one-sided tail into an equivalent chi-square-1 value
        psi[j] = ndtri(ndtr(-z) / 2.0) ** 2

    u = 0.715
    v = 0.21364 + 0.015124 * np.log(n) ** 2 - 0.0018034 * np.log(n) ** 3
    lam = 5.0
    nc = (corr ** lam) * (1.0 - (u * (1.0 - corr) ** u) / v)
    c_bar = (nc.sum() - d) / (d * d - d)
    e = d / (1.0 + (d - 1.0) * c_bar)
    h = e * psi.sum() / d
    p = float(chdtrc(e, h))  # chi-square(e) upper tail at h
    return NormalityReport(statistic=float(h), p_value=p)


def selection_and_errors(theta_est: np.ndarray, theta_true: np.ndarray,
                         support_est: Sequence[int],
                         support_true: Sequence[int]) -> dict:
    """l-infinity / l2 errors and the exact-selection indicator."""
    est = np.asarray(theta_est, dtype=float)
    tru = np.asarray(theta_true, dtype=float)
    if est.shape != tru.shape:
        raise ValueError("estimate and truth must have the same shape")
    diff = est - tru
    return {
        "linf": float(np.abs(diff).max()) if diff.size else 0.0,
        "l2": float(np.linalg.norm(diff)),
        "exact": set(int(j) for j in support_est) == set(int(j) for j in support_true),
    }
