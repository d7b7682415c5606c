"""Standard errors for the regression coefficients.

Two routes: a nonparametric bootstrap that resamples subjects with
replacement and refits (default, assumption-light), each replicate as
subject weights on the dataset's own arrays, warm-started at the
full-data beta; and a plug-in sandwich estimator built from empirical
analogues of the asymptotic covariance pieces.  Both report
per-coefficient standard errors and two-sided Wald p-values against the
normal reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import PanelDataset
from .errors import InferenceError
from .estimator import (CauseFit, _CauseWorkspace, _fit_cause, _inverse_information,
                        _profile_derivs, _replicate_betas, fit)

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


def bootstrap_se(data: PanelDataset, B: int = _DEFAULT_BOOT_REPS,
                 seed: int = 0) -> list[InferenceResult]:
    """Nonparametric bootstrap over subjects.

    Each replicate resamples n subjects with replacement and refits; the
    empirical covariance of the coefficient estimates across replicates
    gives the covariance estimate.  A replicate is fitted as integer
    subject weights, how often each subject was drawn, on the dataset's
    own arrays (the multinomial case of the exchangeably weighted
    bootstrap, Praestgaard & Wellner 1993), so no resampled dataset is
    built; each cause's Newton steps start at its full-data beta.
    Replicate RNG streams are derived from (seed, replicate index), so the
    result is reproducible and independent of evaluation order.
    Replicates where any cause fails to converge are dropped and counted.
    """
    if B < 2:
        raise ValueError("need at least 2 bootstrap replicates")
    base = fit(data)
    for cf in base:
        if cf.error is not None:
            raise InferenceError(f"cause {cf.cause} failed on the original data: {cf.error}")

    n = data.n

    def fit_replicate(b):
        rng = np.random.default_rng([seed, b])
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n)
        return [_fit_cause(data, cf.cause, weights, start=cf.beta) for cf in base]

    betas, failures = _replicate_betas(B, fit_replicate)

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

    The bread is the information of the profile likelihood in beta, from
    the Hessian the fit's Newton steps use: its strata are the runs of
    equal fitted baseline values, the PAVA blocks for a fit from `fit`.
    The meat replaces the within-subject count covariances by products of
    observed residuals, covariates centered by their block's mean.
    """
    if data.d < 1:
        raise ValueError("sandwich covariance needs at least one covariate")
    ws = _CauseWorkspace(data, cause_fit.cause)
    beta = cause_fit.beta
    values = cause_fit.baseline(ws.times)
    _, hess, block_mean, block = _profile_derivs(ws, beta, values, ws.exposure(beta))
    info_inv = _inverse_information(hess, ws.z_range)

    resid = ws.n_all - values[ws.inverse] * ws.exp_lp(beta)[ws.subj]  # per epoch
    # per epoch, (P, d); np.take gathers rows much faster than fancy indexing
    centered = np.take(ws.Z, ws.subj, axis=0) - np.take(block_mean, block, axis=0)
    score = np.stack([np.bincount(ws.subj, weights=resid * c, minlength=ws.n)
                      for c in centered.T], axis=1)
    # (I/n)^-1 (S'S/n) (I/n)^-1 / n with I the information, S the scores
    cov = info_inv @ (score.T @ score) @ info_inv.T
    se = np.sqrt(np.diag(cov))
    return InferenceResult(
        cause=cause_fit.cause,
        se=se,
        cov=cov,
        method="sandwich",
        wald_p=_wald_p(beta, se),
    )
