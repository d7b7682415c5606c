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

Fits run as columns.  A column is one cause, one vector of subject
weights (integer multiplicities: a bootstrap replicate is the weights of
its draw) and one starting beta, and one Newton loop steps all columns
of a call in lockstep.  _CauseWorkspace makes every sum over epochs, as
sparse products with the time x subject incidence matrix taken for all
columns at once, and every derivative of l.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_array, csr_array

from .data import PanelDataset, _check_cause
from .errors import ConvergenceError, NumericError
from .isotonic import StepFunction, _isotonic_baseline

_MAX_HALVINGS = 30
_BETA_BOUND = 15.0  # on |beta_l| * z_range_l, see _newton
_MAX_STEPS = 50  # Newton steps of fit and of beta_step
_NEWTON_TOL = 1e-8  # norm of gradient / z_range at which Newton stops
_MAX_CONDITION = 1e12  # of the range-scaled information; beyond it, singular
_MAX_LP = 600.0  # on |beta'z| at a trial point; e^600 ~ 1e261 leaves sums and ratios room
_CHUNK_FLOATS = 2**15  # per (subjects or times) x columns array of one lockstep call
_ONE = np.arange(1)  # the column of a one-column workspace

_SINGULAR = ("singular information matrix: covariates are collinear, "
             "or constant within the baseline's blocks")


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
    """m fit columns over one dataset's flat arrays: the one place their
    epochs are summed and l is differentiated.

    Column c fits cause `causes[c]` with subject weights `weights[:, c]`
    (default all 1, summed like any other weights: counts are integers,
    so their sums are exact in any order).  Only subjects of positive
    weight, and the distinct times they are observed at (the column's
    used times), take part, so a column is the explicitly resampled data
    with repeats summed.

    Epochs are the pooled (subject, observation) pairs.  They are summed
    through the time x subject incidence `inc` (one 1 per epoch), its
    transpose `inc_t` and, for counts, each cause's `count_inc` (the
    epoch's count in place of the 1): per-time sums of per-subject values
    X (n x m) are `inc @ X`, and per-subject sums of per-time values V
    (r x m) are `inc_t @ V`.  Per-time and per-subject results are kept
    with one row per column, so sums over times run along rows, and the
    products with Z (linear predictors, gradients, Hessians) are made
    column by column.  Each sum adds a column's terms in a fixed order,
    so no column's numbers depend on the other columns of the call.

    Per column and time, `total` holds the weighted count total C_q; per
    column, `zcs` holds Z' times the weighted per-subject count totals
    (the beta-linear part of l) and `z_range` each covariate's range over
    the column's subjects (|z_l| if all share it, 1 if that is 0): the
    unit in which beta_l * z_l is judged.  `evaluate`, `fixed_derivs`
    and `derivs` serve every Newton loop, and `residual_sums` the
    sandwich estimator.

    A scalar `cause` (no weights) makes the one-column view of the full
    data, which also holds 1-D arrays: on the distinct times `times`, `r`,
    the observation count `n_obs`, `count_total` and their ratio
    `mean_count`; per subject the count total `count_sum`.  `subj` and
    `inverse` are the dataset's epoch arrays (see PanelArrays).
    """

    def __init__(self, data: PanelDataset, cause, weights: np.ndarray | None = None):
        self.causes = causes = np.atleast_1d(cause)
        for j in set(causes.tolist()):
            _check_cause(data, j)
        a = data.arrays
        n, r, m = data.n, a.times.size, causes.size
        self.d, self.n, self.Z = data.d, n, a.Z
        self.subj, self.inverse, self.times = a.subj, a.inverse, a.times
        bounds = np.searchsorted(a.subj, np.arange(n + 1))  # subject i: bounds[i]:bounds[i+1]
        self.inc_t = csr_array((np.ones(a.subj.size), a.inverse, bounds), shape=(n, r))
        self.inc = self.inc_t.T  # a CSC view: still adds a time's epochs in subject order
        self.count_inc = {j: csc_array((a.counts[j - 1], self.inc.indices, self.inc.indptr),
                                       shape=(r, n)) for j in set(causes.tolist())}

        w = np.ones((n, m)) if weights is None else weights
        self.w = np.asarray(w, dtype=float).reshape(n, m)
        self.active = None if self.w.min() > 0 else self.w > 0
        obs = np.ascontiguousarray((self.inc @ self.w).T)
        self.total = np.empty((m, r))
        self.zcs = np.empty((m, self.d))
        for j, inc_counts in self.count_inc.items():
            col = causes == j
            self.total[col] = (inc_counts @ self.w[:, col]).T
            count_sum = np.bincount(a.subj, weights=a.counts[j - 1], minlength=n)
            for c in np.flatnonzero(col):  # row by row: one matrix product rounds otherwise
                self.zcs[c] = a.Z.T @ (self.w[:, c] * count_sum)
        self.no_count = (self.total == 0).astype(float)
        self.z_range = _z_range(a.Z, self.active, m)

        # per column, what its PAVA needs: its used times, for each time the
        # used time at or before it (the first before any), and the
        # observation counts and mean counts there
        used = obs > 0
        fill = np.maximum(np.cumsum(used, axis=1) - 1, 0)
        self._pava = [(u, fill[c], obs[c, u], self.total[c, u] / obs[c, u])
                      for c, u in enumerate(map(np.flatnonzero, used))]

        if np.ndim(cause) == 0:
            _, _, self.n_obs, self.mean_count = self._pava[0]
            self.count_total = self.total[0]
            self.count_sum = count_sum  # of the one cause

    @property
    def r(self) -> int:
        return self.times.size

    def linear_predictor(self, beta: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Per subject and column in `cols`, beta'z at that column's row of
        `beta` (len(cols) x d); 0 off the column's subjects."""
        lp = np.array([self.Z @ b for b in beta]).reshape(-1, self.n).T.copy()
        if self.active is not None:
            lp *= self.active[:, cols]
        return lp

    def _weighted_exp(self, lp: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """w exp(lp), in the place of `lp`."""
        e = np.exp(lp, out=lp)
        e *= self.w[:, cols]
        return e

    def exposure(self, beta: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Per column and time, S_q: the weighted sum of exp(beta'z) over its epochs."""
        return self._exposure(self._weighted_exp(self.linear_predictor(beta, cols), cols))

    def _exposure(self, wez: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray((self.inc @ wez).T)

    def baseline_values(self, exposure: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Per column and time, the isotonic baseline at fixed beta, given
        `exposure` = `self.exposure(beta, cols)`; one PAVA per column on
        its used times, whose values the unused times repeat."""
        values = np.empty_like(exposure)
        for i, c in enumerate(cols):
            u, fill, n_obs, mean_count = self._pava[c]
            values[i] = _isotonic_baseline(mean_count, n_obs, exposure[i, u] / n_obs)[fill]
        return values

    def loglik(self, beta: np.ndarray, values: np.ndarray, exposure: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
        """Full objective of each column at (beta, baseline values), from
        per-time sums: sum_q C_q log v_q + beta'zcs - S'v, with S the
        `exposure` at beta; -inf if a positive count sits on a zero value."""
        terms = values + self.no_count[cols]
        with np.errstate(divide="ignore"):  # log 0 = -inf: kept where C_q > 0
            np.log(terms, out=terms)
        terms *= self.total[cols]
        terms -= exposure * values
        return terms.sum(axis=1) + (beta * self.zcs[cols]).sum(axis=1)

    def evaluate(self, beta: np.ndarray, cols: np.ndarray, values: np.ndarray | None = None):
        """l_p of each column in `cols` at its row of `beta`, or l at its
        row of fixed baseline `values` if given (-inf where some
        |beta'z| > _MAX_LP, see _newton), and the state (baseline values,
        exposure) its derivatives reuse."""
        lp = self.linear_predictor(beta, cols)
        over = np.zeros(len(cols), dtype=bool)
        if not (lp.max(initial=0.0) <= _MAX_LP and -lp.min(initial=0.0) <= _MAX_LP):  # rare
            over = ~(np.abs(lp).max(axis=0) <= _MAX_LP)  # or not a number
            lp[:, over] = 0.0
        exposure = self._exposure(self._weighted_exp(lp, cols))
        if values is None:
            values = self.baseline_values(exposure, cols)
        ll = self.loglik(beta, values, exposure, cols)
        ll[over] = -np.inf
        return ll, (values, exposure)

    def _fixed_grad_hess(self, wez: np.ndarray, lam: np.ndarray,
                         cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient (rows) and Hessian of l in beta at a fixed baseline for
        each column in `cols`, from w exp(beta'z) `wez` (subjects x
        columns) and `lam`, per column (rows) and subject the sum of the
        baseline's values at its epochs."""
        mu = lam * wez.T
        m, d = mu.shape[0], self.d
        grad = self.zcs[cols] - np.array([self.Z.T @ row for row in mu]).reshape(m, d)
        hess = -np.array([(self.Z * row[:, None]).T @ self.Z for row in mu]).reshape(m, d, d)
        return grad, hess

    def fixed_derivs(self, beta: np.ndarray, state, cols: np.ndarray):
        """Gradient (rows) and Hessian of l at beta and the fixed baseline
        values state[0] for each column in `cols`, and w exp(beta'z)."""
        wez = self._weighted_exp(self.linear_predictor(beta, cols), cols)
        lam = np.ascontiguousarray((self.inc_t @ state[0].T).T)
        return (*self._fixed_grad_hess(wez, lam, cols), wez)

    def derivs(self, beta: np.ndarray, state, cols: np.ndarray):
        """Gradient (rows) and Hessian of l_p at beta for each column in
        `cols`; per block B, a run of equal `values` (each N_B / E_B for
        the isotonic baseline at beta), the exp(beta'z)-weighted mean m_B
        of z over its epochs; and where each block starts, as a flat index
        into the (column, time) cells.  By the envelope theorem the
        gradient is the fixed-baseline one; the Hessian is the
        fixed-baseline one plus sum_B N_B m_B m_B'.  `state` is (values,
        exposure) as `evaluate` gives it."""
        values, exposure = state
        m, r, d = values.shape[0], values.shape[1], self.d
        grad, hess, wez = self.fixed_derivs(beta, state, cols)
        # blocks in (column, time) order: each column's first at its first time
        new = np.ones((m, r), dtype=bool)
        np.greater(values[:, 1:], values[:, :-1], out=new[:, 1:])
        start = np.flatnonzero(new)
        mean = np.empty((start.size, d))
        for l, z in enumerate(self.Z.T):  # per block, sum of w exp(beta'z) z_l over its epochs
            mean[:, l] = np.add.reduceat((self.inc @ (wez * z[:, None])).T.ravel(), start)
        mean /= np.add.reduceat(exposure.ravel(), start)[:, None]
        count = np.add.reduceat(self.total[cols].ravel(), start)
        hess += np.add.reduceat(count[:, None, None] * mean[:, :, None] * mean[:, None, :],
                                np.searchsorted(start, np.arange(0, m * r, r)), axis=0)
        return grad, hess, mean, start

    def residual_sums(self, beta: np.ndarray, values: np.ndarray,
                      x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For the one-column view at beta and the baseline `values` (one
        per time), per subject i: R_i, the sum of its residuals
        N_ip - v_p exp(beta'z_i) over its epochs p, and M_i (n x d), the
        same sum with residual p weighted by the row of `x` (r x d) at its
        epoch's time."""
        ez = self._weighted_exp(self.linear_predictor(beta[None], _ONE), _ONE)
        per_time = np.column_stack([np.ones(self.r), x])
        resid = self.count_inc[self.causes[0]].T @ per_time
        resid -= (self.inc_t @ (values[:, None] * per_time)) * ez
        return resid[:, 0], resid[:, 1:]

    def cause_fit(self, path: "_Path", c: int) -> CauseFit:
        """Column c of `path` as a CauseFit."""
        u = self._pava[c][0]
        error = path.error[c]
        return CauseFit(
            cause=int(self.causes[c]),
            beta=path.beta[c].copy(),
            baseline=StepFunction(self.times[u], path.state[0][c, u]),
            loglik_trace=path.trace[c],
            iterations=max(len(path.trace[c]) - 1, 1),
            converged=bool(path.converged[c]),
            error=None if error is None else str(error),
        )


def _z_range(Z: np.ndarray, active: np.ndarray | None, m: int) -> np.ndarray:
    """Each covariate's range over each column's subjects (m x d), |z_l|
    when they all share it, 1 when that is 0; computed once when every
    column has every subject."""
    if active is None:
        zt = Z.T.copy()  # reductions along contiguous rows are much faster
        hi, lo = zt.max(axis=1, initial=-np.inf)[None], zt.min(axis=1, initial=np.inf)[None]
    else:
        hi, lo = np.empty((m, Z.shape[1])), np.empty((m, Z.shape[1]))
        for l, z in enumerate(Z.T):
            hi[:, l] = np.where(active, z[:, None], -np.inf).max(axis=0)
            lo[:, l] = np.where(active, z[:, None], np.inf).min(axis=0)
    spread = hi - lo
    shared = np.where(spread > 0, spread, np.abs(hi))
    return np.broadcast_to(np.where(shared > 0, shared, 1.0), (m, Z.shape[1]))


def _profile_grad_hess(ws: _CauseWorkspace, lam_sub: np.ndarray,
                       beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The workspace's fixed-baseline gradient and Hessian of l in beta for
    a one-column workspace, given `lam_sub`: per subject, the sum of the
    baseline's values at its epochs."""
    wez = ws._weighted_exp(ws.linear_predictor(beta[None], _ONE), _ONE)
    grad, hess = ws._fixed_grad_hess(wez, lam_sub[None], _ONE)
    return grad[0], hess[0]


def _inverse_information(hess: np.ndarray, z_range: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-hess)^-1 of each column (hess is m x d x d), after a condition
    test in units of beta * z_range; and which columns fail the test."""
    unit = z_range[:, :, None] * z_range[:, None, :]
    scaled = -hess * unit
    finite = np.all(np.isfinite(scaled), axis=(1, 2))
    eig, vec = np.linalg.eigh(np.where(finite[:, None, None], scaled, 0.0))
    singular = eig[:, 0] <= eig[:, -1] / _MAX_CONDITION  # or not finite, or all zero
    eig[singular] = 1.0
    return (vec / eig[:, None, :]) @ vec.transpose(0, 2, 1) * unit, singular


@dataclass
class _Path:
    """Each column's accepted Newton iterates (its objective values, its
    last beta row and state), whether it converged and why it stopped."""

    trace: list[list[float]]
    beta: np.ndarray
    state: tuple
    converged: np.ndarray
    error: list

    def accept(self, cols: np.ndarray, beta: np.ndarray, obj: np.ndarray, state) -> None:
        self.beta[cols] = beta
        for full, part in zip(self.state, state):
            full[cols] = part
        for c, o in zip(cols, obj.tolist()):
            self.trace[c].append(o)


def _newton(ws: _CauseWorkspace, beta: np.ndarray, evaluate, derivs) -> _Path:
    """Maximize a concave objective in beta for each column by damped
    Newton steps, all columns in lockstep.

    `beta` holds a starting row per column.  `evaluate(beta, cols)` gives
    the objective of columns `cols` at the rows of beta (-inf, unevaluated,
    where some |beta'z| > _MAX_LP, so exp(beta'z) stays inside the float
    range), and a state: a tuple of arrays with a row per column.
    `derivs(beta, state, cols)` gives their gradients (rows) and Hessians.
    A column's steps halve until its objective does not drop.  Accepted
    iterates, the start first, go to the returned path.  A column
    converges once its gradient in beta * z_range units (a stop that
    ignores the covariates' units) is within _NEWTON_TOL, stops
    unconverged after _MAX_STEPS steps, and stops with an error on the
    path when it diverges, its information is singular or no halving
    improves it.
    """
    m = beta.shape[0]
    obj, state = evaluate(beta, np.arange(m))
    path = _Path([[o] for o in obj.tolist()], beta.copy(), state, np.zeros(m, dtype=bool),
                 [None] * m)
    run = np.isfinite(obj)
    for c in np.flatnonzero(~run):
        path.error[c] = NumericError("objective not finite at the starting point")
    if not beta.shape[1]:  # no coefficients: the start is the maximizer
        path.converged[:], run[:] = run, False
    while run.any():
        cols = np.flatnonzero(run)
        run[:] = False
        b, z_range = path.beta[cols], ws.z_range[cols]
        grad, hess = derivs(b, tuple(s[cols] for s in path.state), cols)[:2]
        diverged = np.any(np.abs(b) * z_range > _BETA_BOUND, axis=1)
        done = ~diverged & (np.linalg.norm(grad / z_range, axis=1) <= _NEWTON_TOL)
        path.converged[cols[done]] = True
        for c in cols[diverged]:
            path.error[c] = _diverged(path.beta[c])
        stepping = ~diverged & ~done & (np.array([len(path.trace[c]) for c in cols]) <= _MAX_STEPS)
        if not stepping.any():
            continue
        cols, b, grad = cols[stepping], b[stepping], grad[stepping]
        inv, singular = _inverse_information(hess[stepping], z_range[stepping])
        for c in cols[singular]:
            path.error[c] = NumericError(_SINGULAR)
        cols, b, grad, inv = cols[~singular], b[~singular], grad[~singular], inv[~singular]
        step = (inv @ grad[:, :, None])[:, :, 0]
        last = np.array([path.trace[c][-1] for c in cols])
        floor = last - 1e-12 * np.maximum(1.0, np.abs(last))
        pending = np.ones(cols.size, dtype=bool)
        for halving in range(_MAX_HALVINGS):
            if not pending.any():
                break
            cand = b + 0.5 ** halving * step
            obj, state = evaluate(cand[pending], cols[pending])
            better = obj >= floor[pending]
            took = np.flatnonzero(pending)[better]
            path.accept(cols[took], cand[took], obj[better], (s[better] for s in state))
            pending[took] = False
        run[cols[~pending]] = True
        for c in cols[pending]:
            path.error[c] = ConvergenceError(
                "Newton step could not improve the objective (or |beta'z| "
                f"reached {_MAX_LP:g}: center covariates far from 0)",
                last_beta=path.beta[c].copy())
    for c in range(m):
        try:
            _assert_ascending(path.trace[c])
        except NumericError as exc:
            path.converged[c], path.error[c] = False, exc
    return path


def _diverged(beta: np.ndarray) -> ConvergenceError:
    """A coefficient that moves exp(beta'z) by more than e^15 across its
    covariate's range means the profile maximum is at infinity.  On a
    covariate level with no events each Newton step moves |beta_l| * z_range_l
    by about 1, so the check fires after the same steps in any unit."""
    return ConvergenceError(
        "beta diverged (coefficient times covariate range beyond "
        f"{_BETA_BOUND:g}); the profile maximum is at infinity, e.g. a "
        "covariate level with no observed events",
        last_beta=beta.copy(),
    )


def _lockstep(data: PanelDataset, causes: np.ndarray, start: np.ndarray, weights=None):
    """Fit column c, cause `causes[c]` from the row `start[c]`, with the
    subject weights `weights(cols)` gives (n x len(cols); default all 1).

    Columns run in chunks, so that no array of a chunk holds more than
    _CHUNK_FLOATS floats per subject or distinct time.  Yields each
    chunk's column indices, workspace and path."""
    size = max(1, _CHUNK_FLOATS // max(data.n, data.arrays.times.size))
    for lo in range(0, len(causes), size):
        cols = np.arange(lo, min(lo + size, len(causes)))
        ws = _CauseWorkspace(data, causes[cols], None if weights is None else weights(cols))
        yield cols, ws, _newton(ws, start[cols], ws.evaluate, ws.derivs)


def aggregate(data: PanelDataset, cause: int) -> _CauseWorkspace:
    """Group all observation epochs by distinct time for one cause: the
    cause's workspace, whose `times`, `n_obs` (observations per time),
    `mean_count` (their mean cumulative count) and `r` (number of times)
    the fit uses.  Times and observation counts are shared across causes."""
    return _CauseWorkspace(data, cause)


def log_pseudo_likelihood(data: PanelDataset, cause: int, beta,
                          baseline: StepFunction) -> float:
    """Evaluate the per-cause objective at (beta, baseline).

    Uses the 0*log(0) = 0 convention and returns -inf when a positive
    count falls where the baseline is zero.  The baseline knots must span
    all observation times of the dataset.
    """
    ws = _CauseWorkspace(data, cause)
    beta = _as_beta(beta, ws.d)[None]
    return float(ws.loglik(beta, _values_at(ws, baseline), ws.exposure(beta, _ONE), _ONE)[0])


def baseline_step(data: PanelDataset, cause: int, beta) -> StepFunction:
    """Exact baseline maximizer at fixed beta (profile step)."""
    ws = _CauseWorkspace(data, cause)
    exposure = ws.exposure(_as_beta(beta, ws.d)[None], _ONE)
    return StepFunction(ws.times.copy(), ws.baseline_values(exposure, _ONE)[0])


def beta_step(data: PanelDataset, cause: int, baseline: StepFunction, beta_start) -> np.ndarray:
    """Exact coefficient maximizer at fixed baseline (fit's Newton loop)."""
    if data.d == 0:
        raise ValueError("beta step needs at least one covariate")
    ws = _CauseWorkspace(data, cause)
    values = _values_at(ws, baseline)
    path = _newton(ws, _as_beta(beta_start, ws.d)[None],
                   lambda b, cols: ws.evaluate(b, cols, values[cols]), ws.fixed_derivs)
    if path.error[0] is not None:
        raise path.error[0]
    if not path.converged[0]:
        raise ConvergenceError(f"beta step did not converge in {_MAX_STEPS} Newton "
                               "iterations", last_beta=path.beta[0])
    return path.beta[0]


def _values_at(ws: _CauseWorkspace, baseline: StepFunction) -> np.ndarray:
    """The baseline at the view's times, as its one row."""
    if ws.times[0] < baseline.knots[0] or ws.times[-1] > baseline.knots[-1]:
        raise ValueError("baseline knots do not cover the observation times")
    return baseline(ws.times)[None]


def _as_beta(beta, d: int) -> np.ndarray:
    if beta is None:
        return np.zeros(d)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if beta.size != d:
        raise ValueError(f"beta has length {beta.size}, expected {d}")
    return beta


def _assert_ascending(trace: list[float]) -> None:
    for a, b in zip(trace, trace[1:]):
        if b < a - 1e-9 * max(1.0, abs(a)):
            raise NumericError("log-likelihood trace decreased")


def fit(data: PanelDataset) -> list[CauseFit]:
    """Fit every recurrence mode independently.

    Each cause is a column of one lockstep Newton loop (see _lockstep),
    with unit weights.  Each fit starts at beta = 0, where the baseline is
    the plain no-covariate isotonic estimator, and takes Newton steps to
    the gradient stop; one that reaches _MAX_STEPS steps first is returned
    with converged False and no error.

    Causes are separable (the joint objective is the sum of per-cause
    objectives), so each is maximized on its own.  A divergence in one
    cause is reported on its CauseFit (error set, converged False) and
    does not stop the others.
    """
    causes = np.arange(1, data.k + 1)
    return [ws.cause_fit(path, i)
            for cols, ws, path in _lockstep(data, causes, np.zeros((data.k, data.d)))
            for i in range(cols.size)]


def _replicate_betas(B: int, fit_replicate) -> tuple[list[np.ndarray], int]:
    """The (k, d) coefficients of each replicate b in 0..B-1 whose causes all
    converge, and how many replicates did not; `fit_replicate(b)` returns
    replicate b's CauseFits."""
    betas, failures = [], 0
    for b in range(B):
        try:
            fits = fit_replicate(b)
        except (ConvergenceError, NumericError):
            failures += 1
            continue
        if all(cf.converged for cf in fits):
            betas.append(np.array([cf.beta for cf in fits]))
        else:
            failures += 1
    return betas, failures


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
