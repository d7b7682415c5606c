"""Weighted isotonic regression: the solver of the baseline step.

At fixed beta the baseline maximizes, over non-decreasing values v at
the distinct observation times, sum_q n_obs_q * (mean_count_q * log v_q -
exposure_q * v_q): the weighted least-squares isotonic regression of
mean_count/exposure with weights n_obs*exposure, whose pooled block
means scipy.optimize.isotonic_regression (pool adjacent violators)
gives exactly.  `estimator._CauseWorkspace.baseline_values` forms those
inputs for all its columns at once, and `_pava` solves each column's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from .errors import NumericError


@dataclass
class StepFunction:
    """Right-continuous non-decreasing step function, 0 before the first knot.

    Evaluation: value of the largest knot <= t; 0 for t < knots[0]; the
    last value for t >= knots[-1]; nan for a nan t.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.knots.ndim != 1 or self.knots.size == 0:
            raise ValueError("need at least one knot")
        if self.knots.shape != self.values.shape:
            raise ValueError("knots and values must have the same length")
        if not (np.all(np.isfinite(self.knots)) and np.all(np.isfinite(self.values))):
            raise ValueError("knots and values must be finite")
        if np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if self.values[0] < 0:
            raise ValueError("values must be non-negative")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("values must be non-decreasing")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.knots, t, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 0.0)
        out = np.where(np.isnan(t), np.nan, out)
        return float(out) if out.ndim == 0 else out


def weighted_isotonic(y, w) -> np.ndarray:
    """Weighted least-squares projection onto non-decreasing sequences.

    Returns the unique minimizer of sum_q w_q (y_q - x_q)^2 subject to
    x_1 <= ... <= x_r, by the pool-adjacent-violators algorithm.
    Weights must be strictly positive.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a non-empty 1-d vector")
    if y.shape != w.shape:
        raise ValueError(f"length mismatch: y has {y.size}, w has {w.size}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        raise ValueError("y and weights must be finite")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    return _pava(y, w)


def _pava(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`weighted_isotonic` of finite y with finite positive weights, unchecked."""
    # SciPy may move already-monotone input by an ulp; a fixed point must
    # come back exactly
    if (y[1:] >= y[:-1]).all():
        return y.copy()
    x = isotonic_regression(y, weights=w).x
    _check_non_decreasing(x)
    return x


def _check_non_decreasing(x: np.ndarray) -> None:
    if (x[1:] < x[:-1]).any():
        raise NumericError("isotonic output must be non-decreasing")

