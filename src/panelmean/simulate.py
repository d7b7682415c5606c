"""Two-cause panel count data generator and Monte Carlo study runner.

Subjects get a Bernoulli and a centered normal covariate, a random
number of visits with continuous uniform gaps, and per-gap correlated
count increments from a common-shock bivariate Poisson whose rates scale
the baseline increment by exp(beta'z).  The study runner repeats
generate + fit and reports absolute bias and MSE per coefficient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import PanelDataset, Subject
from .errors import ConvergenceError, NumericError, StudyError
from .estimator import FitConfig, fit

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
    """Generator and study parameters (two recurrence modes)."""

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
        self.beta1 = np.asarray(self.beta1, dtype=float)
        self.beta2 = np.asarray(self.beta2, dtype=float)
        if self.beta1.shape != (2,) or self.beta2.shape != (2,):
            raise ValueError("beta1 and beta2 must have length 2 (one per covariate)")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")
        if self.n < 1 or self.replications < 1 or self.max_visits < 1:
            raise ValueError("n, replications and max_visits must be positive")
        if not 0 < self.gap_range[0] <= self.gap_range[1]:
            raise ValueError("gap_range must satisfy 0 < low <= high")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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


def gen_schedule(rng: np.random.Generator, max_visits: int = 5,
                 gap_range: tuple[float, float] = (1.0, 5.0)) -> tuple[int, np.ndarray]:
    """Number of visits (discrete uniform) and their times (cumulative
    continuous-uniform gaps, first gap measured from time zero)."""
    m = int(rng.integers(1, max_visits + 1))
    gaps = rng.uniform(gap_range[0], gap_range[1], size=m)
    return m, np.cumsum(gaps)


def gen_bivpois(lambda1: float, lambda2: float, rho: float,
                rng: np.random.Generator) -> tuple[int, int]:
    """Correlated Poisson pair via a shared common-shock component.

    Marginals are Poisson(lambda1) and Poisson(lambda2); the covariance
    equals rho as long as rho <= min(lambda1, lambda2), otherwise the
    shock rate is clamped to that minimum.
    """
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("rates must be non-negative")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    shock_rate = min(rho, lambda1, lambda2)
    shock = rng.poisson(shock_rate)
    x1 = rng.poisson(lambda1 - shock_rate)
    x2 = rng.poisson(lambda2 - shock_rate)
    return int(x1 + shock), int(x2 + shock)


def gen_dataset(cfg: SimConfig, rng: np.random.Generator,
                report: GenReport | None = None) -> PanelDataset:
    """One synthetic dataset of n subjects with two recurrence modes."""
    base1 = resolve_baseline(cfg.baseline1)
    base2 = resolve_baseline(cfg.baseline2)
    subjects = []
    for i in range(cfg.n):
        z = np.array([float(rng.random() < cfg.bernoulli_p),
                      rng.normal(0.0, cfg.normal_sd)])
        m, times = gen_schedule(rng, cfg.max_visits, cfg.gap_range)
        gaps = np.diff(times, prepend=0.0)
        scale1 = float(np.exp(cfg.beta1 @ z))
        scale2 = float(np.exp(cfg.beta2 @ z))
        inc1 = np.empty(m, dtype=np.int64)
        inc2 = np.empty(m, dtype=np.int64)
        for p in range(m):
            l1 = float(base1(gaps[p])) * scale1
            l2 = float(base2(gaps[p])) * scale2
            if report is not None and cfg.rho > min(l1, l2):
                report.rho_clamps += 1
            inc1[p], inc2[p] = gen_bivpois(l1, l2, cfg.rho, rng)
        counts = np.vstack([np.cumsum(inc1), np.cumsum(inc2)])
        subjects.append(Subject(str(i + 1), times, counts, z))
    return PanelDataset(subjects, k=2, d=2)


def run_study(cfg: SimConfig, fit_cfg: FitConfig | None = None) -> StudyResult:
    """Replicate generate + fit and summarize coefficient recovery.

    Replicates draw from RNG streams keyed by (seed, replicate index),
    so results do not depend on execution order.  Replicates where any
    cause fails to converge are dropped; more than 10% of them aborts
    the study.
    """
    fit_cfg = fit_cfg or FitConfig()
    truth = np.vstack([cfg.beta1, cfg.beta2])
    estimates = []
    failures = 0
    report = GenReport()
    for rep in range(cfg.replications):
        rng = np.random.default_rng([cfg.seed, rep])
        dataset = gen_dataset(cfg, rng, report)
        try:
            fits = fit(dataset, fit_cfg)
        except (ConvergenceError, NumericError):
            failures += 1
            continue
        if any(cf.error is not None or not cf.converged for cf in fits):
            failures += 1
            continue
        estimates.append(np.array([cf.beta for cf in fits]))

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
