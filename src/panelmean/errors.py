"""Exception hierarchy shared across the package.

Error categories map onto CLI exit codes: data problems (parse and
validation) exit with 2, estimation failures (no convergence, or a
numerical failure) with 3, and simulation-study failures with 4.
"""


class PanelMeanError(Exception):
    """Base class for all package-specific errors."""


class ParseError(PanelMeanError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(PanelMeanError):
    """Structurally parseable input that violates dataset invariants."""


class NumericError(PanelMeanError):
    """Numerical failure (singular matrix, zero exposure, ...)."""


class ConvergenceError(PanelMeanError):
    """Optimizer failed to converge or diverged; carries the last iterate."""

    def __init__(self, message: str, last_beta=None):
        self.last_beta = last_beta
        super().__init__(message)


class InferenceError(PanelMeanError):
    """Standard-error computation could not be completed."""


class StudyError(PanelMeanError):
    """Simulation study aborted (too many failed replicates)."""
