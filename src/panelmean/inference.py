"""Standard errors for the regression coefficients.

Two routes: a nonparametric bootstrap that resamples subjects with
replacement and refits (default, assumption-light), each replicate and
cause a column of weights on the dataset's own arrays, warm-started at
the full-data beta, all fitted in lockstep Newton loops; and a plug-in
sandwich estimator built from empirical analogues of the asymptotic
covariance pieces.  Both report per-coefficient standard errors and
two-sided Wald p-values against the normal reference.  The fit's
workspace makes every sum over epochs and every derivative they use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import PanelDataset
from .errors import InferenceError, NumericError
from .estimator import (_ONE, _SINGULAR, CauseFit, _CauseWorkspace, _inverse_information,
                        _lockstep, fit)

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
    built.  Each (replicate, cause) pair is one column of a lockstep
    Newton loop (see estimator._lockstep), started at the cause's
    full-data beta; the columns run in chunks that bound the memory.
    Replicate RNG streams are derived from (seed, replicate index), so the
    result is reproducible and independent of evaluation order and
    chunking.  Replicates where any cause fails to converge are dropped
    and counted.  With no covariates there is nothing to refit.
    """
    if B < 2:
        raise ValueError("need at least 2 bootstrap replicates")
    base = fit(data)
    for cf in base:
        if cf.error is not None:
            raise InferenceError(f"cause {cf.cause} failed on the original data: {cf.error}")

    n, k, d = data.n, data.k, data.d

    def weights(cols):
        w = np.empty((n, cols.size))
        for b in np.unique(cols // k):  # replicate b's causes share its draw
            draw = np.random.default_rng([seed, b]).integers(0, n, size=n)
            w[:, cols // k == b] = np.bincount(draw, minlength=n)[:, None]
        return w

    betas = np.zeros((B * k, d))
    converged = np.ones(B * k, dtype=bool)
    if d:
        causes = np.tile(np.arange(1, k + 1), B)
        start = np.tile([cf.beta for cf in base], (B, 1))
        for cols, _, path in _lockstep(data, causes, start, weights):
            betas[cols], converged[cols] = path.beta, path.converged
    ok = converged.reshape(B, k).all(axis=1)
    failures = B - int(ok.sum())
    if ok.sum() < 2:
        raise InferenceError(
            f"only {ok.sum()} of {B} bootstrap replicates converged; cannot "
            "estimate a covariance"
        )

    stacked = betas.reshape(B, k, d)[ok]
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
                replicates=len(stacked),
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
    observed residuals, covariates centered by their block's mean m_B:
    subject i's score is z_i R_i - M_i (see residual_sums).  A fit that
    did not converge has none.
    """
    if data.d < 1:
        raise ValueError("sandwich covariance needs at least one covariate")
    if not cause_fit.converged:
        raise InferenceError(f"cause {cause_fit.cause} did not converge: "
                             f"{cause_fit.error or 'not converged'}")
    ws = _CauseWorkspace(data, cause_fit.cause)
    beta = cause_fit.beta
    values = cause_fit.baseline(ws.times)
    state = (values[None], ws.exposure(beta[None], _ONE))
    _, hess, block_mean, start = ws.derivs(beta[None], state, _ONE)
    info_inv, singular = _inverse_information(hess, ws.z_range)
    if singular[0]:
        raise NumericError(_SINGULAR)

    block_lengths = np.diff(start, append=ws.r)
    resid, weighted = ws.residual_sums(beta, values, np.repeat(block_mean, block_lengths, axis=0))
    score = ws.Z * resid[:, None] - weighted
    # (I/n)^-1 (S'S/n) (I/n)^-1 / n with I the information, S the scores
    cov = info_inv[0] @ (score.T @ score) @ info_inv[0].T
    se = np.sqrt(np.diag(cov))
    return InferenceResult(
        cause=cause_fit.cause,
        se=se,
        cov=cov,
        method="sandwich",
        wald_p=_wald_p(beta, se),
    )
