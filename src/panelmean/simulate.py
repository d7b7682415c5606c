"""Two-cause panel count data generator and Monte Carlo study runner.

Subjects get a Bernoulli and a centered normal covariate, a random
number of visits with continuous uniform gaps, and per-gap correlated
count increments from gen_bivpois, a common-shock bivariate Poisson.
The rate of cause j over the gap (t_{p-1}, t_p] is the baseline increment
Lambda_j(t_p) - Lambda_j(t_{p-1}) scaled by exp(beta_j'z), so
E[N_j(t)] = Lambda_j(t) exp(beta_j'z) for any baseline, linear or not.
A dataset is drawn as whole arrays, a few numpy calls per quantity.
The study runner repeats generate + fit, fitting consecutive replicates
together in stacks, and reports absolute bias and MSE per coefficient.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import PanelArrays, PanelDataset
from .errors import StudyError
from .estimator import _stacks, fit

BaselineFn = Callable[[np.ndarray], np.ndarray]

_LINEAR_RE = re.compile(r"^(\d+(?:\.\d+)?|\.\d+)?\s*\*?\s*t$")


def resolve_baseline(name_or_fn: str | BaselineFn) -> BaselineFn:
    """Map a baseline name like 't', '2t' or '0.5t' to a callable.

    Callables pass through untouched; they must be non-decreasing with
    value 0 at 0.
    """
    if callable(name_or_fn):
        return name_or_fn
    m = _LINEAR_RE.match(name_or_fn.strip().lower().replace(" ", ""))
    if not m:
        raise ValueError(
            f"unknown baseline {name_or_fn!r}; expected forms like 't' or '2t'"
        )
    slope = float(m.group(1)) if m.group(1) else 1.0
    return lambda t: slope * np.asarray(t, dtype=float)


@dataclass
class SimConfig:
    """Generator and study parameters (two recurrence modes).  A baseline
    is a name resolve_baseline accepts (checked, stored as given) or a callable."""

    n: int
    beta1: np.ndarray
    beta2: np.ndarray
    baseline1: str | BaselineFn = "t"
    baseline2: str | BaselineFn = "2t"
    rho: float = 0.5
    max_visits: int = 5
    gap_range: tuple[float, float] = (1.0, 5.0)
    bernoulli_p: float = 0.5
    normal_sd: float = 0.5
    replications: int = 500
    seed: int = 42

    def __post_init__(self):
        for name in ("n", "max_visits", "replications", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        self.beta1 = np.asarray(self.beta1, dtype=float)
        self.beta2 = np.asarray(self.beta2, dtype=float)
        for name in ("rho", "bernoulli_p", "normal_sd"):
            setattr(self, name, float(getattr(self, name)))
        self.gap_range = tuple(map(float, self.gap_range))
        if self.beta1.shape != (2,) or self.beta2.shape != (2,):
            raise ValueError("beta1 and beta2 must have length 2 (one per covariate)")
        for name in ("beta1", "beta2", "rho", "gap_range", "bernoulli_p", "normal_sd"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.rho < 0 or self.normal_sd < 0:
            raise ValueError("rho and normal_sd must be non-negative")
        if not 0 <= self.bernoulli_p <= 1:
            raise ValueError("bernoulli_p must be in [0, 1]")
        if self.n < 1 or self.replications < 1 or self.max_visits < 1:
            raise ValueError("n, replications and max_visits must be positive")
        if not 0 < self.gap_range[0] <= self.gap_range[1]:
            raise ValueError("gap_range must satisfy 0 < low <= high")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        resolve_baseline(self.baseline1)
        resolve_baseline(self.baseline2)


@dataclass
class GenReport:
    """Counters filled in by gen_dataset."""

    rho_clamps: int = 0


@dataclass
class StudyResult:
    """Per-coefficient absolute bias and MSE for both causes.

    bias[j-1, l] and mse[j-1, l] refer to coefficient l of cause j.
    """

    config: SimConfig
    bias: np.ndarray
    mse: np.ndarray
    replications_used: int
    failures: int
    rho_clamps: int = 0

    TABLE_COLUMNS = (
        "Bias11", "Bias12", "MSE11", "MSE12",
        "Bias21", "Bias22", "MSE21", "MSE22",
    )

    def table_row(self) -> list[float]:
        """The eight numbers in the published table column order."""
        return [
            self.bias[0, 0], self.bias[0, 1], self.mse[0, 0], self.mse[0, 1],
            self.bias[1, 0], self.bias[1, 1], self.mse[1, 0], self.mse[1, 1],
        ]


def gen_bivpois(lambda1, lambda2, rho: float, rng: np.random.Generator):
    """Correlated Poisson pair via a shared common-shock component.

    Marginals are Poisson(lambda1) and Poisson(lambda2); the covariance
    equals rho as long as rho <= min(lambda1, lambda2), otherwise the
    shock rate is clamped to that minimum.  The rates may be arrays of
    one shape, drawn elementwise: every shock first, then every cause-1
    and then every cause-2 residual count.
    """
    lowest = np.minimum(lambda1, lambda2)
    if not ((lowest >= 0) & np.isfinite(np.maximum(lambda1, lambda2))).all():
        raise ValueError("rates must be finite and non-negative")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    shock_rate = np.minimum(rho, lowest)
    shock = rng.poisson(shock_rate)
    return rng.poisson(lambda1 - shock_rate) + shock, rng.poisson(lambda2 - shock_rate) + shock


def gen_dataset(cfg: SimConfig, rng: np.random.Generator,
                report: GenReport | None = None) -> PanelDataset:
    """One synthetic dataset of n subjects with two recurrence modes.

    The whole dataset is drawn as arrays, in this order: the covariates,
    the visit counts, every gap, then the common shocks and the two
    residual increments of every epoch, by gen_bivpois on the epochs'
    rate arrays.
    """
    n = cfg.n
    Z = np.column_stack([rng.random(n) < cfg.bernoulli_p,
                         rng.normal(0.0, cfg.normal_sd, size=n)])
    m = rng.integers(1, cfg.max_visits + 1, size=n)
    visit = np.arange(cfg.max_visits) < m[:, None]  # (n, max_visits): visit p of subject i
    gaps = rng.uniform(cfg.gap_range[0], cfg.gap_range[1], size=visit.sum())
    t = _cumsum_within(gaps, visit)
    t_prev = np.r_[0.0, t[:-1]]
    t_prev[np.cumsum(m) - m] = 0.0  # each subject's first gap runs from time zero
    subj = np.repeat(np.arange(n), m)

    rates = []
    for baseline, beta in ((cfg.baseline1, cfg.beta1), (cfg.baseline2, cfg.beta2)):
        base = resolve_baseline(baseline)
        rates.append((base(t) - base(t_prev)) * np.exp(Z @ beta)[subj])
    if report is not None:
        report.rho_clamps += int(np.count_nonzero(cfg.rho > np.minimum(*rates)))
    counts = np.array([_cumsum_within(x, visit) for x in gen_bivpois(*rates, cfg.rho, rng)],
                      dtype=float)
    ids = tuple(map(str, range(1, n + 1)))
    return PanelDataset._from_arrays(ids, PanelArrays.build(t, subj, counts, Z))


def _cumsum_within(x: np.ndarray, visit: np.ndarray) -> np.ndarray:
    """Cumulative sums of the epoch values `x` restarting at each subject;
    `visit` marks each subject's epochs in its row, in order."""
    rows = np.zeros(visit.shape, dtype=x.dtype)
    rows[visit] = x
    return np.cumsum(rows, axis=1)[visit]


def run_study(cfg: SimConfig) -> StudyResult:
    """Replicate generate + fit and summarize coefficient recovery.

    Replicates draw from RNG streams keyed by (seed, replicate index),
    so results do not depend on execution order.  They are generated and
    fitted one stack at a time (see estimator._stacks), a stack of
    consecutive replicates in one call of `fit`, and only their betas are
    kept; a replicate's beta is that of fitting it alone, bit for bit.
    Replicates where any cause fails to converge are dropped, and more
    than 10% of replicates dropped aborts the study.  An exception from
    `fit` (a NumericError from an internal check, which no valid input
    reaches) stops the study.
    """
    truth = np.vstack([cfg.beta1, cfg.beta2])
    report = GenReport()
    replicates = (gen_dataset(cfg, np.random.default_rng([cfg.seed, rep]), report)
                  for rep in range(cfg.replications))
    estimates = [beta for stack in _stacks(replicates)
                 for beta in _converged_betas(stack, truth.shape[0])]
    failures = cfg.replications - len(estimates)

    if failures > 0.10 * cfg.replications:
        raise StudyError(
            f"{failures} of {cfg.replications} replicates failed to converge"
        )

    stacked = np.stack(estimates)  # (reps, 2, 2)
    bias = np.abs(stacked.mean(axis=0) - truth)
    mse = np.mean((stacked - truth[None]) ** 2, axis=0)
    return StudyResult(
        config=cfg,
        bias=bias,
        mse=mse,
        replications_used=len(estimates),
        failures=failures,
        rho_clamps=report.rho_clamps,
    )


def _converged_betas(stack: list[PanelDataset], k: int) -> list[np.ndarray]:
    """The betas (k x d) of each replicate of `stack` whose k causes all
    converged, from one `fit` of the stack.  Only the betas outlive the
    call: the fits hold the stack's arrays and last evaluations."""
    fits = fit(stack)
    return [np.array([cf.beta for cf in fits[i:i + k]]) for i in range(0, len(fits), k)
            if all(cf.converged for cf in fits[i:i + k])]
