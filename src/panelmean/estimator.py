"""Semiparametric maximum pseudo-likelihood estimator.

The working model treats the cumulative count of each recurrence mode at
each observation time as an independent Poisson variable with mean
baseline(t) * exp(beta'z).  Per cause, the pseudo log-likelihood

    sum_i sum_p [ N_ip log L(T_ip) + N_ip beta'z_i - L(T_ip) exp(beta'z_i) ]

is maximized by damped Newton steps on its profile l_p in beta, a
concave Cox-type partial likelihood whose strata are the PAVA blocks of
the isotonic baseline at beta (Zhang 2002; Wellner & Zhang 2007).  Each
evaluation runs one PAVA and is computed from per-time sums: with
C_q the count total and S_q the exp(beta'z) sum over the epochs at
distinct time q, l = sum_q C_q log v_q + beta' sum_i N_i z_i - S'v.  The
fit stops on the gradient, in units of beta times covariate range.
Subjects may carry integer weights (multiplicities), which is how a
bootstrap replicate is fitted on its parent's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import PanelDataset, _check_cause
from .errors import ConvergenceError, NumericError
from .isotonic import StepFunction, _isotonic_baseline

_MAX_HALVINGS = 30
_BETA_BOUND = 15.0  # on |beta_l| * z_range_l, see _check_divergence
_MAX_STEPS = 50  # Newton steps of fit and of beta_step
_NEWTON_TOL = 1e-8  # norm of gradient / z_range at which Newton stops
_MAX_CONDITION = 1e12  # of the range-scaled information; beyond it, singular
_MAX_LP = 600.0  # on |beta'z| at a trial point; e^600 ~ 1e261 leaves sums and ratios room


@dataclass
class CauseFit:
    """Fitted coefficients and baseline for one recurrence mode.

    `loglik_trace` is l_p at the start (beta = 0 for `fit`) and after
    each Newton step, which `iterations` counts (1 when none is taken)."""

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
    `weights` (default all 1) gives each subject a multiplicity: a
    bootstrap replicate is the integer weights of its draw.  Only subjects
    of positive weight, and the distinct times they are observed at, take
    part, so the workspace is that of the explicitly resampled data with
    repeats summed; it shares the dataset's arrays when `weights` is None.
    """

    def __init__(self, data: PanelDataset, cause: int, weights: np.ndarray | None = None):
        _check_cause(data, cause)
        a = data.arrays
        self.d = data.d
        self.subj, self.Z, self.times, self.inverse = a.subj, a.Z, a.times, a.inverse
        self.n_all = a.counts[cause - 1]
        count_sum = a.count_sum[cause - 1]
        self.w = np.ones(data.n)
        if weights is not None:
            pos = weights > 0
            keep = pos[a.subj]
            self.subj = (np.cumsum(pos) - 1)[a.subj[keep]]
            self.n_all = self.n_all[keep]
            self.w, count_sum = weights[pos].astype(float), count_sum[pos]
            self.Z = np.compress(pos, a.Z, axis=0)  # a row gather, faster than a.Z[pos]
            inverse = a.inverse[keep]
            used = np.zeros(a.times.size, dtype=bool)
            used[inverse] = True
            self.times = a.times[used]
            self.inverse = (np.cumsum(used) - 1)[inverse]
        self.n = self.w.size
        w_epoch = self.w[self.subj]
        # per distinct time: weighted observations and count total C_q
        self.n_obs = np.bincount(self.inverse, weights=w_epoch)
        self.count_total = np.bincount(self.inverse, weights=w_epoch * self.n_all)
        self.mean_count = self.count_total / self.n_obs
        # per-subject total count, for the collapsed gradient/Hessian
        self.count_sum = self.w * count_sum
        # each covariate's range over subjects (|z_l| if all share it, 1 if
        # that is 0): the unit in which beta_l * z_l is judged
        zt = self.Z.T.copy()  # reductions along contiguous rows are much faster
        spread = np.ptp(zt, axis=1)
        shared = np.where(spread > 0, spread, np.abs(zt[:, 0]))
        self.z_range = np.where(shared > 0, shared, 1.0)

    def exp_lp(self, beta: np.ndarray) -> np.ndarray:
        """Per-subject exp(beta'z)."""
        return np.exp(self.Z @ beta)

    def exposure(self, beta: np.ndarray) -> np.ndarray:
        """Per distinct time, S_q: the weighted sum of exp(beta'z) over its epochs."""
        return np.bincount(self.inverse, weights=(self.w * self.exp_lp(beta))[self.subj],
                           minlength=self.times.size)

    def baseline_values(self, beta: np.ndarray, exposure: np.ndarray | None = None) -> np.ndarray:
        """Isotonic baseline values at the distinct times for fixed beta;
        `exposure`, if given, is `self.exposure(beta)`."""
        if exposure is None:
            exposure = self.exposure(beta)
        return _isotonic_baseline(self.mean_count, self.n_obs, exposure / self.n_obs)

    def loglik(self, beta: np.ndarray, values: np.ndarray,
               exposure: np.ndarray | None = None) -> float:
        """Full objective at (beta, baseline values), from per-time sums:
        sum_q C_q log v_q + count_sum'Z beta - S'v, with S the `exposure`
        (as in `baseline_values`); -inf if a positive count sits on a zero
        value."""
        if exposure is None:
            exposure = self.exposure(beta)
        pos = self.count_total > 0
        if np.any(values[pos] == 0):
            return -np.inf
        ll = float(self.count_total[pos] @ np.log(values[pos]))
        ll += float(self.count_sum @ (self.Z @ beta))
        ll -= float(exposure @ values)
        return ll


def _profile_grad_hess(ws: _CauseWorkspace, lam_sub: np.ndarray,
                       beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of the fixed-baseline beta profile,
    collapsed to per-subject sums (`lam_sub` carries the subject weights)."""
    mu_sub = np.exp(ws.Z @ beta) * lam_sub
    grad = ws.Z.T @ (ws.count_sum - mu_sub)
    hess = -(ws.Z * mu_sub[:, None]).T @ ws.Z
    return grad, hess


def _profile_derivs(ws: _CauseWorkspace, beta: np.ndarray, values: np.ndarray,
                    exposure: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradient and Hessian of l_p at beta; per block B, a run of equal
    `values` (each N_B / E_B for the isotonic baseline at beta), the
    exp(beta'z)-weighted mean m_B of z over its epochs; and each epoch's
    block.  By the envelope theorem the gradient is the fixed-baseline
    one; the Hessian is the fixed-baseline one plus sum_B N_B m_B m_B'.
    `exposure` is as in `_CauseWorkspace.baseline_values`."""
    if exposure is None:
        exposure = ws.exposure(beta)
    lam_sub = ws.w * np.bincount(ws.subj, weights=values[ws.inverse], minlength=ws.n)
    grad, hess = _profile_grad_hess(ws, lam_sub, beta)
    block_t = np.cumsum(np.r_[False, np.diff(values) > 0])
    block, wez = block_t[ws.inverse], ws.w * ws.exp_lp(beta)
    mean = np.array([np.bincount(block, weights=(wez * z)[ws.subj]) for z in ws.Z.T]).T
    mean /= np.bincount(block_t, weights=exposure)[:, None]
    count = np.bincount(block_t, weights=ws.count_total)
    return grad, hess + (mean * count[:, None]).T @ mean, mean, block


def _inverse_information(hess: np.ndarray, z_range: np.ndarray) -> np.ndarray:
    """(-hess)^-1, after a condition test in units of beta * z_range."""
    unit = np.outer(z_range, z_range)
    scaled = -hess * unit
    eig, vec = np.linalg.eigh(scaled) if np.all(np.isfinite(scaled)) else (np.zeros(1), None)
    if eig[0] <= eig[-1] / _MAX_CONDITION:  # or not finite, or all zero
        raise NumericError("singular information matrix: covariates are collinear, "
                           "or constant within the baseline's blocks")
    return (vec / eig) @ vec.T * unit


@dataclass
class _Path:
    """Accepted Newton iterates: each objective value; the last beta and state."""

    trace: list[float] = field(default_factory=list)
    beta: np.ndarray | None = None
    state: object = None

    def accept(self, beta: np.ndarray, obj: float, state) -> None:
        self.trace.append(obj)
        self.beta, self.state = beta, state


def _newton(ws: _CauseWorkspace, beta: np.ndarray, evaluate, derivs, path: _Path) -> bool:
    """Maximize a concave objective in beta by damped Newton steps.

    `evaluate(beta)` gives (objective, state), `derivs(beta, state)` the
    gradient and Hessian.  Steps halve until the objective does not drop;
    a trial point with some |beta'z| > _MAX_LP is skipped unevaluated, so
    exp(beta'z) stays inside the float range.  Accepted iterates, the start
    first, go to `path`.  True once the gradient in beta * z_range units
    (a stop that ignores the covariates' units) is within _NEWTON_TOL;
    False after _MAX_STEPS steps.
    """
    path.accept(beta, *evaluate(beta))
    if not np.isfinite(path.trace[0]):
        raise NumericError("objective not finite at the starting point")
    while path.beta.size:  # no coefficients: the start is the maximizer
        _check_divergence(path.beta, ws.z_range)
        grad, hess = derivs(path.beta, path.state)
        if np.linalg.norm(grad / ws.z_range) <= _NEWTON_TOL:
            return True
        if len(path.trace) > _MAX_STEPS:
            return False
        step = _inverse_information(hess, ws.z_range) @ grad
        floor = path.trace[-1] - 1e-12 * max(1.0, abs(path.trace[-1]))
        for halving in range(_MAX_HALVINGS):
            cand = path.beta + 0.5 ** halving * step
            if np.max(np.abs(ws.Z @ cand)) <= _MAX_LP:
                obj, state = evaluate(cand)
                if obj >= floor:
                    path.accept(cand, obj, state)
                    break
        else:
            raise ConvergenceError("Newton step could not improve the objective (or |beta'z| "
                                   f"reached {_MAX_LP:g}: center covariates far from 0)",
                                   last_beta=path.beta)
    return True


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
    """Exact coefficient maximizer at fixed baseline (fit's Newton loop)."""
    if data.d == 0:
        raise ValueError("beta step needs at least one covariate")
    ws = _CauseWorkspace(data, cause)
    if ws.times[0] < baseline.knots[0] or ws.times[-1] > baseline.knots[-1]:
        raise ValueError("baseline knots do not cover the observation times")
    lam_sub = np.bincount(ws.subj, weights=baseline(ws.times)[ws.inverse], minlength=ws.n)
    path = _Path()
    if not _newton(ws, _as_beta(beta_start, ws.d).copy(),
                   lambda b: (float(ws.count_sum @ (ws.Z @ b) - ws.exp_lp(b) @ lam_sub), None),
                   lambda b, _: _profile_grad_hess(ws, lam_sub, b), path):
        raise ConvergenceError(f"beta step did not converge in {_MAX_STEPS} Newton "
                               "iterations", last_beta=path.beta)
    return path.beta


def _as_beta(beta, d: int) -> np.ndarray:
    if beta is None:
        return np.zeros(d)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if beta.size != d:
        raise ValueError(f"beta has length {beta.size}, expected {d}")
    return beta


def _fit_cause(data: PanelDataset, cause: int, weights: np.ndarray | None = None,
               start: np.ndarray | None = None) -> CauseFit:
    """Fit one cause with subject `weights` (see _CauseWorkspace) by Newton
    steps from `start` (default beta = 0).  l_p is concave, so the start
    changes the path, not the maximizer; the bootstrap starts each
    replicate at the full-data beta."""
    ws = _CauseWorkspace(data, cause, weights)

    def profile(beta):
        exposure = ws.exposure(beta)
        values = ws.baseline_values(beta, exposure)
        return ws.loglik(beta, values, exposure), (values, exposure)

    path = _Path()
    try:
        converged, error = _newton(ws, np.zeros(ws.d) if start is None else start, profile,
                                   lambda b, state: _profile_derivs(ws, b, *state)[:2],
                                   path), None
    except (ConvergenceError, NumericError) as exc:
        converged, error = False, str(exc)

    _assert_ascending(path.trace)
    return CauseFit(
        cause=cause,
        beta=path.beta,
        baseline=StepFunction(ws.times.copy(), path.state[0]),
        loglik_trace=path.trace,
        iterations=max(len(path.trace) - 1, 1),
        converged=converged,
        error=error,
    )


def _assert_ascending(trace: list[float]) -> None:
    for a, b in zip(trace, trace[1:]):
        if b < a - 1e-9 * max(1.0, abs(a)):
            raise NumericError("log-likelihood trace decreased")


def fit(data: PanelDataset) -> list[CauseFit]:
    """Fit every recurrence mode independently.

    Each fit starts at beta = 0, where the baseline is the plain
    no-covariate isotonic estimator, and takes Newton steps to the
    gradient stop; one that reaches _MAX_STEPS steps first is returned
    with converged False and no error.

    Causes are separable (the joint objective is the sum of per-cause
    objectives), so each is maximized on its own.  A divergence in one
    cause is reported on its CauseFit (error set, converged False) and
    does not stop the others.
    """
    return [_fit_cause(data, j) for j in range(1, data.k + 1)]


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
