"""Standard errors for the regression coefficients.

Two routes: a nonparametric bootstrap that resamples subjects with
replacement and refits (default, assumption-light), and a plug-in
sandwich estimator built from empirical analogues of the asymptotic
covariance pieces.  Both report per-coefficient standard errors and
two-sided Wald p-values against the normal reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import PanelDataset
from .errors import ConvergenceError, InferenceError, NumericError
from .estimator import CauseFit, FitConfig, _CauseWorkspace, fit

_DEFAULT_BOOT_REPS = 300


@dataclass
class InferenceResult:
    """Covariance, standard errors and Wald p-values for one cause."""

    cause: int
    se: np.ndarray
    cov: np.ndarray
    method: str
    wald_p: np.ndarray
    replicates: int | None = None
    failures: int = 0


def _wald_p(beta: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Two-sided normal p-values; a zero (or nan) se gives 0 for a nonzero
    coefficient and 1 for a zero one."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = 2.0 * special.ndtr(-np.abs(beta) / se)
    return np.where(se > 0, p, np.where(beta != 0, 0.0, 1.0))


def bootstrap_se(data: PanelDataset, cfg: FitConfig | None = None,
                 B: int = _DEFAULT_BOOT_REPS, seed: int = 0) -> list[InferenceResult]:
    """Nonparametric bootstrap over subjects.

    Each replicate resamples n subjects with replacement and refits; the
    empirical covariance of the coefficient estimates across replicates
    gives the covariance estimate.  Replicate RNG streams are derived
    from (seed, replicate index), so the result is reproducible and
    independent of evaluation order.  Replicates where any cause fails
    to converge are dropped and counted.
    """
    if B < 2:
        raise ValueError("need at least 2 bootstrap replicates")
    cfg = cfg or FitConfig()
    base = fit(data, cfg)
    for cf in base:
        if cf.error is not None:
            raise InferenceError(f"cause {cf.cause} failed on the original data: {cf.error}")

    betas: list[np.ndarray] = []  # (k, d) per successful replicate
    failures = 0
    n = data.n
    for b in range(B):
        rng = np.random.default_rng([seed, b])
        idx = rng.integers(0, n, size=n)
        resampled = data._take(idx)
        try:
            fits = fit(resampled, cfg)
        except (ConvergenceError, NumericError):
            failures += 1
            continue
        if any(cf.error is not None or not cf.converged for cf in fits):
            failures += 1
            continue
        betas.append(np.array([cf.beta for cf in fits]))

    if len(betas) < 2:
        raise InferenceError(
            f"only {len(betas)} of {B} bootstrap replicates converged; cannot "
            "estimate a covariance"
        )

    stacked = np.stack(betas)  # (B_ok, k, d)
    results = []
    for j in range(data.k):
        cov = np.atleast_2d(np.cov(stacked[:, j, :], rowvar=False, ddof=1))
        se = np.sqrt(np.diag(cov))
        results.append(
            InferenceResult(
                cause=j + 1,
                se=se,
                cov=cov,
                method="bootstrap",
                wald_p=_wald_p(base[j].beta, se),
                replicates=len(betas),
                failures=failures,
            )
        )
    return results


def sandwich_se(data: PanelDataset, cause_fit: CauseFit) -> InferenceResult:
    """Plug-in sandwich covariance for one fitted cause.

    Covariates are centered by their exp(beta'z)-weighted mean within
    each run of equal fitted baseline values; for a fit returned by `fit`
    these runs are the PAVA blocks of its baseline, and the bread is the
    information of the profile likelihood in beta, a Cox-type partial
    likelihood with the blocks as strata.  The meat replaces the
    within-subject count covariances by products of observed residuals.
    """
    if data.d < 1:
        raise ValueError("sandwich covariance needs at least one covariate")
    ws = _CauseWorkspace(data, cause_fit.cause)
    beta = cause_fit.beta
    values = cause_fit.baseline(ws.times)

    ez = ws.exp_lp(beta)  # per subject
    ez_e = ez[ws.subj]  # per epoch
    lam_e = values[ws.inverse]

    # weighted covariate mean over the epoch's block of equal baseline values
    blocks = np.cumsum(np.r_[False, np.diff(values) > 0])[ws.inverse]
    denom = np.bincount(blocks, weights=ez_e)
    ratio = np.stack([np.bincount(blocks, weights=ez_e * z[ws.subj]) for z in ws.Z.T], axis=1)
    centered = ws.Z[ws.subj] - (ratio / denom[:, None])[blocks]  # per epoch, (P, d)
    n = ws.n

    weight = lam_e * ez_e
    bread = (centered * weight[:, None]).T @ centered / n

    resid = ws.n_all - weight
    score = np.stack([np.bincount(ws.subj, weights=resid * c, minlength=n)
                      for c in centered.T], axis=1)
    meat = score.T @ score / n

    if not np.all(np.isfinite(bread)) or np.linalg.cond(bread) > 1e12:
        raise NumericError(
            "singular covariance bread matrix: covariates carry no usable "
            "variation within the baseline's blocks"
        )
    bread_inv = np.linalg.inv(bread)
    cov = bread_inv @ meat @ bread_inv.T / n
    se = np.sqrt(np.diag(cov))
    return InferenceResult(
        cause=cause_fit.cause,
        se=se,
        cov=cov,
        method="sandwich",
        wald_p=_wald_p(beta, se),
    )
