"""Standard errors for the regression coefficients.

Two routes: a nonparametric bootstrap that resamples subjects with
replacement and refits (default, assumption-light), each replicate and
cause a column of weights on the dataset's own arrays, warm-started at
the full-data beta, all fitted in lockstep Newton loops; and a plug-in
sandwich estimator built from empirical analogues of the asymptotic
covariance pieces.  Both report per-coefficient standard errors and
two-sided Wald p-values against the normal reference, erfc(|z| / sqrt 2)
from the standard library's `math.erfc`.  This module forms no sums: the
estimator is the one place epochs are summed, for the replicates' fits
and for the sandwich's covariance alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# the bootstrap's draws: loaded with the module, as numpy < 2 loads it with
# numpy, not at the first draw, so every route holds it alike
import numpy.random

from .data import PanelDataset
from .errors import InferenceError
from .estimator import CauseFit, _lockstep, _sandwich_cov, fit

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
        z = np.abs(beta) / se
    # 2 * Phi(-|z|) = erfc(|z| / sqrt 2), the scaling of SciPy's ndtr
    p = np.array([math.erfc(x * math.sqrt(0.5)) for x in z.tolist()])
    return np.where(se > 0, p, np.where(beta != 0, 0.0, 1.0))


def bootstrap_se(data: PanelDataset, B: int = _DEFAULT_BOOT_REPS, seed: int = 0, *,
                 _fits: list[CauseFit] | None = None) -> list[InferenceResult]:
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
    if isinstance(B, bool) or not isinstance(B, (int, np.integer)) or B < 2:
        raise ValueError(f"need an integer B of at least 2 bootstrap replicates, got {B!r}")
    # `panelmean fit` passes the list fit(data) just returned, unchanged
    base = fit(data) if _fits is None else _fits
    for cf in base:
        if cf.error is not None:
            raise InferenceError(f"cause {cf.cause} failed on the original data: {cf.error}")

    n, k, d = data.n, data.k, data.d

    def weights(cols):
        # each replicate of the call drawn once; its causes share its draw
        reps, rep = np.unique(cols // k, return_inverse=True)
        counts = np.stack([
            np.bincount(np.random.default_rng([seed, b]).integers(0, n, size=n), minlength=n)
            for b in reps.tolist()], axis=1, dtype=float)
        return counts[:, rep]

    betas = np.zeros((B * k, d))
    converged = np.ones(B * k, dtype=bool)
    if d:
        causes = np.tile(np.arange(1, k + 1), B)
        start = np.tile([cf.beta for cf in base], (B, 1))
        for cols, ws, path in _lockstep(data, causes, start, weights):
            betas[cols], converged[cols] = path.beta, path.stop == "gradient"
            del ws, path  # the next chunk is fitted without this one's arrays
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
    subject i's score is z_i R_i - M_i, summed, like every sum over epochs,
    in the estimator (see estimator._sandwich_cov).  A fit that did not
    converge has none, nor one whose objective is not finite (some |beta'z|
    beyond the fit's overflow guard).

    A fit that `fit` returned for this `data`, with its beta and baseline
    as they were made, holds its last evaluation and the derivatives
    there, and those are used.  Any other fit is evaluated and
    differentiated again in a workspace: the same numbers, bit for bit,
    for such a fit.
    """
    if data.d < 1:
        raise ValueError("sandwich covariance needs at least one covariate")
    if np.size(cause_fit.beta) != data.d:
        raise ValueError(f"cause {cause_fit.cause}: beta has length {np.size(cause_fit.beta)}, "
                         f"expected {data.d}, one per covariate")
    if not cause_fit.converged:
        raise InferenceError(f"cause {cause_fit.cause} did not converge: "
                             f"{cause_fit.error or 'not converged'}")
    cov = _sandwich_cov(data, cause_fit)
    se = np.sqrt(np.diag(cov))
    return InferenceResult(cause=cause_fit.cause, se=se, cov=cov, method="sandwich",
                           wald_p=_wald_p(cause_fit.beta, se))
