"""Proportional mean model for panel count data with multiple recurrence modes.

Fits per-cause regression coefficients and monotone baseline cumulative
mean functions by Newton steps on the profile of a Poisson working
pseudo-likelihood, one isotonic regression per step; includes bootstrap
and sandwich standard errors, a two-cause simulation engine, and a
CSV/CLI surface.
"""

from .data import PanelDataset, Subject, parse_panel_csv, write_panel_csv
from .errors import (
    ConvergenceError,
    InferenceError,
    NumericError,
    PanelMeanError,
    ParseError,
    StudyError,
    ValidationError,
)
from .estimator import (
    CauseFit,
    aggregate,
    baseline_step,
    beta_step,
    fit,
    log_pseudo_likelihood,
    predict_mean,
)
from .inference import InferenceResult, bootstrap_se, sandwich_se
from .isotonic import StepFunction, weighted_isotonic
from .simulate import (
    GenReport,
    SimConfig,
    StudyResult,
    gen_bivpois,
    gen_dataset,
    resolve_baseline,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "CauseFit",
    "ConvergenceError",
    "GenReport",
    "InferenceError",
    "InferenceResult",
    "NumericError",
    "PanelDataset",
    "PanelMeanError",
    "ParseError",
    "SimConfig",
    "StepFunction",
    "StudyError",
    "StudyResult",
    "Subject",
    "ValidationError",
    "aggregate",
    "baseline_step",
    "beta_step",
    "bootstrap_se",
    "fit",
    "gen_bivpois",
    "gen_dataset",
    "log_pseudo_likelihood",
    "parse_panel_csv",
    "predict_mean",
    "resolve_baseline",
    "run_study",
    "sandwich_se",
    "weighted_isotonic",
    "write_panel_csv",
]
