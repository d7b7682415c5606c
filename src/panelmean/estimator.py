"""Semiparametric maximum pseudo-likelihood estimator.

The working model treats the cumulative count of each recurrence mode at
each observation time as an independent Poisson variable with mean
baseline(t) * exp(beta'z).  Per cause, the pseudo log-likelihood

    sum_i sum_p [ N_ip log L(T_ip) + N_ip beta'z_i - L(T_ip) exp(beta'z_i) ]

is maximized by alternating two exact coordinate steps: an isotonic
regression for the baseline at fixed beta, and a Newton maximization of
the concave beta profile at fixed baseline.  The outer loop stops when
the relative change of the full objective drops below a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import PanelDataset, _check_cause
from .errors import ConvergenceError, NumericError
from .isotonic import StepFunction, _isotonic_baseline

_MAX_HALVINGS = 30
_BETA_BOUND = 15.0  # on |beta_l| * z_range_l, see _check_divergence
_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-8  # norm of gradient / z_range at which a beta step stops


@dataclass
class FitConfig:
    """Tuning knobs for the alternating maximization.

    Every fit starts at beta = 0, which makes the first baseline step the
    plain no-covariate isotonic estimator.
    """

    epsilon: float = 1e-5
    max_iter: int = 200

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class CauseFit:
    """Fitted coefficients and baseline for one recurrence mode."""

    cause: int
    beta: np.ndarray
    baseline: StepFunction
    loglik_trace: list[float] = field(repr=False)
    iterations: int = 0
    converged: bool = False
    error: str | None = None


class _CauseWorkspace:
    """Per-cause view of the dataset's flat arrays, reused across iterations.

    Epochs are the pooled (subject, observation) pairs; `inverse` maps
    each epoch to its distinct-time index and `subj` to its subject.
    """

    def __init__(self, data: PanelDataset, cause: int):
        _check_cause(data, cause)
        a = data.arrays
        self.n = data.n
        self.d = data.d
        self.subj = a.subj
        self.Z = a.Z
        self.times = a.times
        self.inverse = a.inverse
        self.n_obs = a.n_obs
        self.n_all = a.counts[cause - 1]
        self.mean_count = a.mean_count[cause - 1]
        # per-subject total count, for the collapsed gradient/Hessian
        self.count_sum = a.count_sum[cause - 1]
        # each covariate's range over subjects (|z_l| if all share it, 1 if
        # that is 0): the unit in which beta_l * z_l is judged
        spread = np.ptp(self.Z, axis=0)
        shared = np.where(spread > 0, spread, np.abs(self.Z[0]))
        self.z_range = np.where(shared > 0, shared, 1.0)

    def exp_lp(self, beta: np.ndarray) -> np.ndarray:
        """Per-subject exp(beta'z)."""
        return np.exp(self.Z @ beta)

    def baseline_values(self, beta: np.ndarray) -> np.ndarray:
        """Isotonic baseline values at the distinct times for fixed beta."""
        ez = self.exp_lp(beta)
        exposure = np.bincount(self.inverse, weights=ez[self.subj]) / self.n_obs
        return _isotonic_baseline(self.mean_count, self.n_obs, exposure)

    def loglik(self, beta: np.ndarray, values: np.ndarray) -> float:
        """Full objective at (beta, baseline values); -inf if a positive
        count sits on a zero baseline value."""
        lam_e = values[self.inverse]
        pos = self.n_all > 0
        if np.any(lam_e[pos] == 0):
            return -np.inf
        ez = self.exp_lp(beta)
        lam_sub = np.bincount(self.subj, weights=lam_e, minlength=self.n)
        ll = float(np.sum(self.n_all[pos] * np.log(lam_e[pos])))
        ll += float(self.count_sum @ (self.Z @ beta))
        ll -= float(ez @ lam_sub)
        return ll


def _profile_grad_hess(ws: _CauseWorkspace, lam_sub: np.ndarray,
                       beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of the fixed-baseline beta profile,
    collapsed to per-subject sums."""
    mu_sub = np.exp(ws.Z @ beta) * lam_sub
    grad = ws.Z.T @ (ws.count_sum - mu_sub)
    hess = -(ws.Z * mu_sub[:, None]).T @ ws.Z
    return grad, hess


def _newton_beta(ws: _CauseWorkspace, values: np.ndarray, beta_start: np.ndarray) -> np.ndarray:
    """Maximize the fixed-baseline beta profile by damped Newton steps.

    The profile is concave; each step halves until the objective does
    not decrease.  The stop tests the gradient in beta * z_range units,
    so it does not depend on the covariates' units.
    """
    lam_sub = np.bincount(ws.subj, weights=values[ws.inverse], minlength=ws.n)

    def objective(beta):
        return float(ws.count_sum @ (ws.Z @ beta) - np.exp(ws.Z @ beta) @ lam_sub)

    beta = np.asarray(beta_start, dtype=float).copy()
    obj = objective(beta)
    if not np.isfinite(obj):
        raise NumericError("beta objective not finite at the starting point")

    for _ in range(_NEWTON_MAX_ITER):
        grad, hess = _profile_grad_hess(ws, lam_sub, beta)
        if np.linalg.norm(grad / ws.z_range) <= _NEWTON_TOL:
            _check_divergence(beta, ws.z_range)
            return beta
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            raise NumericError(
                "singular Hessian in beta step: covariates are collinear or "
                "carry no events"
            ) from None
        step_frac = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = beta + step_frac * step
            cand_obj = objective(cand)
            if np.isfinite(cand_obj) and cand_obj >= obj - 1e-12 * max(1.0, abs(obj)):
                break
            step_frac *= 0.5
        else:
            raise ConvergenceError(
                "beta step could not improve the objective", last_beta=beta
            )
        beta, obj = cand, cand_obj
        _check_divergence(beta, ws.z_range)

    raise ConvergenceError(
        f"beta step did not converge in {_NEWTON_MAX_ITER} Newton iterations",
        last_beta=beta,
    )


def _check_divergence(beta: np.ndarray, z_range: np.ndarray) -> None:
    """A coefficient that moves exp(beta'z) by more than e^15 across its
    covariate's range means the profile maximum is at infinity.  On a
    covariate level with no events each Newton step moves |beta_l| * z_range_l
    by about 1, so the check fires after the same steps in any unit."""
    if np.any(np.abs(beta) * z_range > _BETA_BOUND):
        raise ConvergenceError(
            "beta diverged (coefficient times covariate range beyond "
            f"{_BETA_BOUND:g}); the profile maximum is at infinity, e.g. a "
            "covariate level with no observed events",
            last_beta=beta,
        )


def log_pseudo_likelihood(data: PanelDataset, cause: int, beta,
                          baseline: StepFunction) -> float:
    """Evaluate the per-cause objective at (beta, baseline).

    Uses the 0*log(0) = 0 convention and returns -inf when a positive
    count falls where the baseline is zero.  The baseline knots must span
    all observation times of the dataset.
    """
    ws = _CauseWorkspace(data, cause)
    if ws.times[0] < baseline.knots[0] or ws.times[-1] > baseline.knots[-1]:
        raise ValueError("baseline knots do not cover the observation times")
    values = baseline(ws.times)
    beta = _as_beta(beta, ws.d)
    return ws.loglik(beta, values)


def baseline_step(data: PanelDataset, cause: int, beta) -> StepFunction:
    """Exact baseline maximizer at fixed beta (profile step)."""
    ws = _CauseWorkspace(data, cause)
    return StepFunction(ws.times.copy(), ws.baseline_values(_as_beta(beta, ws.d)))


def beta_step(data: PanelDataset, cause: int, baseline: StepFunction, beta_start) -> np.ndarray:
    """Exact coefficient maximizer at fixed baseline (profile step)."""
    if data.d == 0:
        raise ValueError("beta step needs at least one covariate")
    ws = _CauseWorkspace(data, cause)
    if ws.times[0] < baseline.knots[0] or ws.times[-1] > baseline.knots[-1]:
        raise ValueError("baseline knots do not cover the observation times")
    values = baseline(ws.times)
    return _newton_beta(ws, values, _as_beta(beta_start, ws.d))


def _as_beta(beta, d: int) -> np.ndarray:
    if beta is None:
        return np.zeros(d)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if beta.size != d:
        raise ValueError(f"beta has length {beta.size}, expected {d}")
    return beta


def _fit_cause(data: PanelDataset, cause: int, cfg: FitConfig) -> CauseFit:
    ws = _CauseWorkspace(data, cause)
    beta = np.zeros(ws.d)
    values = ws.baseline_values(beta)
    trace: list[float] = []
    converged = False
    iterations = 0
    try:
        for _ in range(cfg.max_iter):
            iterations += 1
            beta = _newton_beta(ws, values, beta)
            ll = ws.loglik(beta, values)
            trace.append(ll)
            # the baseline at the new beta serves the next sweep and, on exit,
            # makes the returned pair a fixed point of the baseline step; the
            # trace's last two entries are the pair the stopping rule saw
            values = ws.baseline_values(beta)
            if ws.d == 0:  # no coefficients: one baseline step is exact
                converged = True
                break
            if len(trace) > 1:
                change = abs(ll - trace[-2])
                denom = abs(trace[-2])
                rel = change / denom if denom > 0 else change
                if rel <= cfg.epsilon:
                    converged = True
                    break
        error = None
    except (ConvergenceError, NumericError) as exc:
        if isinstance(exc, ConvergenceError) and exc.last_beta is not None:
            beta = np.asarray(exc.last_beta, dtype=float)
        error = str(exc)
        converged = False

    _assert_ascending(trace)
    return CauseFit(
        cause=cause,
        beta=beta,
        baseline=StepFunction(ws.times.copy(), values),
        loglik_trace=trace,
        iterations=iterations,
        converged=converged,
        error=error,
    )


def _assert_ascending(trace: list[float]) -> None:
    for a, b in zip(trace, trace[1:]):
        if b < a - 1e-9 * max(1.0, abs(a)):
            raise NumericError("log-likelihood trace decreased")


def fit(data: PanelDataset, cfg: FitConfig | None = None) -> list[CauseFit]:
    """Fit every recurrence mode independently.

    Causes are separable (the joint objective is the sum of per-cause
    objectives), so each is maximized on its own.  A divergence in one
    cause is reported on its CauseFit (error set, converged False) and
    does not stop the others.
    """
    cfg = cfg or FitConfig()
    return [_fit_cause(data, j, cfg) for j in range(1, data.k + 1)]


def predict_mean(cause_fit: CauseFit, t, z) -> float | np.ndarray:
    """Expected cumulative count at time t for covariates z.

    baseline(t) * exp(beta'z); zero before the first knot, flat after the
    last one.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != cause_fit.beta.size:
        raise ValueError(f"z has length {z.size}, expected {cause_fit.beta.size}")
    lp = float(cause_fit.beta @ z) if z.size else 0.0
    return cause_fit.baseline(t) * np.exp(lp)
