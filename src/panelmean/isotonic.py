"""Weighted isotonic regression: the solver of the baseline step.

At fixed beta the baseline maximizes, over non-decreasing values v at
the distinct observation times, sum_q n_obs_q * (mean_count_q * log v_q -
exposure_q * v_q): the weighted least-squares isotonic regression of
mean_count/exposure with weights n_obs*exposure, whose pooled block
means SciPy's compiled pool-adjacent-violators routine gives exactly.
`estimator._CauseWorkspace.baseline_values` forms those inputs for all
its columns at once, as one flat array in which each column's used
times are a run, and `_pava_runs` solves every run that drops in place.
That routine is loaded from its extension module alone, by
`_load_compiled`: importing this package does not import
`scipy.optimize`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericError


def _load_compiled(name: str, search=None):
    """The compiled SciPy extension module `name`, found in the directories
    `search` (default: its package's) and executed without its package's
    `__init__`; ImportError if it is not there.  `sys.modules` is left as
    it was found: a single-phase extension module enters itself there as
    it is created, and its package, imported later, would find that entry
    and never bind the module as its attribute."""
    if search is None:
        search = importlib.util.find_spec(name.rpartition(".")[0]).submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(name, search)
    if spec is None:
        raise ImportError(f"no {name} in {list(search)}")
    found = sys.modules.get(name)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if found is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = found
    return module


# The compiled PAVA behind scipy.optimize.isotonic_regression, a private
# binding: in SciPy since 1.12, the floor in pyproject.toml.  This is the
# one place that names it, with no fallback (CI checks).  find_spec
# imports only top-level scipy to locate scipy/optimize/, whose
# __init__ (all of scipy.optimize) never runs.  pava overwrites its
# arguments x and w (x with the solution) and writes its index array
# before it reads it.
pava = _load_compiled("scipy.optimize._pava_pybind").pava


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
    y = np.array(y, dtype=float)  # copies: the solver overwrites both
    w = np.array(w, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a non-empty 1-d vector")
    if y.shape != w.shape:
        raise ValueError(f"length mismatch: y has {y.size}, w has {w.size}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        raise ValueError("y and weights must be finite")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    _pava_runs(y, w, np.array([0, y.size]), np.ones(y.size - 1, dtype=bool),
               np.empty(y.size + 1, dtype=np.intp))
    return y


def _pava_runs(y: np.ndarray, w: np.ndarray, edges: np.ndarray, within: np.ndarray,
               scratch: np.ndarray) -> None:
    """`weighted_isotonic` of each run y[edges[j]:edges[j + 1]] of finite y
    with finite positive weights w, unchecked, in the place of y (w is
    overwritten too).  `within` is `_drops`' mask of the runs and
    `scratch` an intp array longer than any run.  A run that does not
    drop keeps its y exactly: SciPy may move monotone input by an ulp,
    and a fixed point must come back exactly."""
    # a run holds a drop if fewer drops come before its start than before
    # its end (a drop at cell q + 1 is counted at q, in the same run)
    runs = np.flatnonzero(np.diff(np.searchsorted(np.flatnonzero(_drops(y, within)), edges)))
    for lo, hi in zip(edges[runs].tolist(), edges[runs + 1].tolist()):
        pava(y[lo:hi], w[lo:hi], scratch)  # contiguous views: solved in place
    _check_runs(y, within)


def _drops(x: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Per cell of x but the first, whether x falls there from the cell
    before within one run: `within` is False where a run starts."""
    return (x[1:] < x[:-1]) & within


def _check_runs(x: np.ndarray, within: np.ndarray) -> None:
    if _drops(x, within).any():
        raise NumericError("isotonic output must be non-decreasing")
