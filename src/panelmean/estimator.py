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
of a call in lockstep, every call covering every column.  _CauseWorkspace
makes every sum over epochs, as sparse products with the time x subject
incidence matrix taken for all columns at once, and every derivative of
l, which reads the state of the evaluation it follows.  l depends on the
times only through their order within a dataset, so several datasets fit
as one stack: their subjects one after another on a shared axis of time
ranks, each (dataset, cause) a column weighted 0 off its own subjects.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .data import PanelArrays, PanelDataset, _check_cause, _subject_bounds
from .errors import ConvergenceError, NumericError
from .isotonic import StepFunction, _isotonic_baseline

_MAX_HALVINGS = 30
_BETA_BOUND = 15.0  # on |beta_l| * z_range_l, see _newton
_MAX_STEPS = 50  # Newton steps of fit and of beta_step
_NEWTON_TOL = 1e-8  # norm of gradient / z_range at which Newton stops
_MAX_CONDITION = 1e12  # of the range-scaled information; beyond it, singular
_MAX_LP = 600.0  # on |beta'z| at a trial point; e^600 ~ 1e261 leaves sums and ratios room
_CHUNK_FLOATS = 2**15  # per (subjects or times) x columns array of one lockstep call,
                       # and epochs x columns of a stack of several datasets

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
    # set by `fit` alone: the arrays fitted, and for a converged fit with
    # covariates the state of its last evaluation (see _FitState)
    _arrays: PanelArrays | None = field(default=None, init=False, repr=False, compare=False)
    _state: _FitState | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class _FitState:
    """What the sandwich estimator reads of a fit's last evaluation, made
    at `beta` with unit weights: the baseline `values` at every distinct
    time, w exp(beta'z) per subject `wez`, and from the derivatives at that
    evaluation the profile Hessian `hess`, the mean of z in each baseline
    block `block_mean` and the time index each block starts at,
    `block_start`.  The arrays are views of the fit's own, not copies."""

    beta: np.ndarray
    values: np.ndarray
    wez: np.ndarray
    hess: np.ndarray
    block_mean: np.ndarray
    block_start: np.ndarray


class _CauseWorkspace:
    """m fit columns over the flat arrays of one dataset or of a stack of
    datasets: the one place their epochs are summed and l is
    differentiated.

    Column c fits cause `causes[c]` with subject weights `weights[:, c]`
    (default all 1, summed like any other weights: counts are integers,
    so their sums are exact in any order).  Only subjects of positive
    weight, and the distinct times they are observed at (the column's
    used times), take part, so a column is the explicitly resampled data
    with repeats summed.

    A stack is a list of datasets of one k and d.  Its subjects follow one
    another, dataset by dataset, and each epoch keeps its own dataset's
    `inverse`, its time's rank within that dataset, so the time axis is as
    long as the longest dataset's and no two datasets' times are merged.
    Its columns are its datasets', m / len(stack) each, dataset by dataset:
    `owner[c]` is column c's dataset, on whose subjects its default
    weights are 1 (0 elsewhere); `first` gives where each dataset's
    subjects start.  A single dataset is a stack of one.

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
    unit in which beta_l * z_l is judged.  Every method covers all m
    columns.  `evaluate` serves every Newton loop; its state (baseline
    values, exposure, w exp(beta'z)) is what `fixed_derivs` and `derivs`
    read, so neither forms exp(beta'z) again; `fit_state` keeps a column's
    share of it for the sandwich estimator.

    `times` are a single dataset's distinct times (None for a stack of
    several, whose axis is ranks), `r` the length of the time axis.  A
    scalar `cause` (no weights) makes the one-column view of the full data
    of one dataset, which also holds 1-D arrays: on the distinct times the
    observation count `n_obs` and the mean count `mean_count`; per subject
    the count total `count_sum`.  `subj` and `inverse` are the epoch
    arrays (see PanelArrays).
    """

    def __init__(self, data, cause, weights: np.ndarray | None = None):
        parts = [data] if isinstance(data, PanelDataset) else list(data)
        self.causes = causes = np.atleast_1d(cause)
        for j in set(causes.tolist()):
            _check_cause(parts[0], j)
        n_sub = [p.n for p in parts]
        self.parts, self.first = parts, np.r_[0, np.cumsum(n_sub)]
        n, m = int(self.first[-1]), causes.size
        self.owner = np.repeat(np.arange(len(parts)), m // len(parts))
        self.d, self.n = parts[0].d, n
        if len(parts) == 1:
            a = parts[0].arrays
            self.times, self.r = a.times, a.times.size
            self.Z, self.subj, self.inverse, counts = a.Z, a.subj, a.inverse, a.counts
        else:
            arrays = [p.arrays for p in parts]
            self.times, self.r = None, max(a.times.size for a in arrays)
            self.Z = np.concatenate([a.Z for a in arrays])
            self.subj = np.concatenate([a.subj + lo for a, lo in zip(arrays, self.first)])
            self.inverse = np.concatenate([a.inverse for a in arrays])
            counts = np.concatenate([a.counts for a in arrays], axis=1)
        r = self.r
        self.inc_t = _subject_incidence(self.subj, self.inverse, n, r)
        self.inc = self.inc_t.T  # a CSC view: still adds a time's epochs in subject order
        self.count_inc = {j: _with_counts(self.inc, counts[j - 1])
                          for j in set(causes.tolist())}

        if weights is None:
            weights = np.repeat(np.arange(len(parts)), n_sub)[:, None] == self.owner
        self.w = np.asarray(weights, dtype=float).reshape(n, m)
        self.active = None if self.w.min() > 0 else self.w > 0
        obs = np.ascontiguousarray((self.inc @ self.w).T)
        self.total = np.empty((m, r))
        self.zcs = np.empty((m, self.d))
        for j, inc_counts in self.count_inc.items():
            col = causes == j
            self.total[col] = (inc_counts @ self.w[:, col]).T
            count_sum = np.bincount(self.subj, weights=counts[j - 1], minlength=n)
            for c in np.flatnonzero(col):  # row by row: one matrix product rounds otherwise
                self.zcs[c] = self.Z.T @ (self.w[:, c] * count_sum)
        self.no_count = (self.total == 0).astype(float)
        self.z_range = _z_range(self.Z, self.active, m)

        # per column, what its PAVA needs: its used times, for each time the
        # used time at or before it (the first before any), and the
        # observation counts and mean counts there
        used = obs > 0
        fill = np.maximum(np.cumsum(used, axis=1) - 1, 0)
        self._pava = [(u, fill[c], obs[c, u], self.total[c, u] / obs[c, u])
                      for c, u in enumerate(map(np.flatnonzero, used))]

        if np.ndim(cause) == 0:
            _, _, self.n_obs, self.mean_count = self._pava[0]
            self.count_sum = count_sum  # of the one cause

    def linear_predictor(self, beta: np.ndarray) -> np.ndarray:
        """Per subject and column, beta'z at the column's row of `beta`
        (m x d); 0 off the column's subjects."""
        lp = np.array([self.Z @ b for b in beta]).reshape(-1, self.n).T.copy()
        if self.active is not None:
            lp *= self.active
        return lp

    def _weighted_exp(self, lp: np.ndarray) -> np.ndarray:
        """w exp(lp), in the place of `lp`."""
        e = np.exp(lp, out=lp)
        e *= self.w
        return e

    def exposure(self, beta: np.ndarray) -> np.ndarray:
        """Per column and time, S_q: the weighted sum of exp(beta'z) over its epochs."""
        return self._exposure(self._weighted_exp(self.linear_predictor(beta)))

    def _exposure(self, wez: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray((self.inc @ wez).T)

    def baseline_values(self, exposure: np.ndarray) -> np.ndarray:
        """Per column and time, the isotonic baseline at fixed beta, given
        `exposure` = `self.exposure(beta)`; one PAVA per column on its
        used times, whose values the unused times repeat."""
        values = np.empty_like(exposure)
        for c, (u, fill, n_obs, mean_count) in enumerate(self._pava):
            values[c] = _isotonic_baseline(mean_count, n_obs, exposure[c, u] / n_obs)[fill]
        return values

    def loglik(self, beta: np.ndarray, values: np.ndarray, exposure: np.ndarray) -> np.ndarray:
        """Full objective of each column at (beta, baseline values), from
        per-time sums: sum_q C_q log v_q + beta'zcs - S'v, with S the
        `exposure` at beta; -inf if a positive count sits on a zero value."""
        terms = values + self.no_count
        with np.errstate(divide="ignore"):  # log 0 = -inf: kept where C_q > 0
            np.log(terms, out=terms)
        terms *= self.total
        terms -= exposure * values
        return terms.sum(axis=1) + (beta * self.zcs).sum(axis=1)

    def evaluate(self, beta: np.ndarray, values: np.ndarray | None = None):
        """l_p of each column at its row of `beta`, or l at its row of
        fixed baseline `values` if given (-inf where some |beta'z| >
        _MAX_LP, see _newton), and the state its derivatives read: the
        baseline values, the exposure and w exp(beta'z) (one row per
        column; at beta'z = 0 where -inf, so it stays finite)."""
        lp = self.linear_predictor(beta)
        over = np.zeros(beta.shape[0], dtype=bool)
        if not (lp.max(initial=0.0) <= _MAX_LP and -lp.min(initial=0.0) <= _MAX_LP):  # rare
            over = ~(np.abs(lp).max(axis=0) <= _MAX_LP)  # or not a number
            lp[:, over] = 0.0
        wez = self._weighted_exp(lp)
        exposure = self._exposure(wez)
        if values is None:
            values = self.baseline_values(exposure)
        ll = self.loglik(beta, values, exposure)
        ll[over] = -np.inf
        return ll, (values, exposure, wez.T)

    def _fixed_grad_hess(self, wez: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient (rows) and Hessian of l in beta at a fixed baseline for
        each column, from w exp(beta'z) `wez` and `lam`, per column (rows)
        and subject the sum of the baseline's values at its epochs."""
        mu = lam * wez
        m, d = mu.shape[0], self.d
        grad = self.zcs - np.array([self.Z.T @ row for row in mu]).reshape(m, d)
        hess = -np.array([(self.Z * row[:, None]).T @ self.Z for row in mu]).reshape(m, d, d)
        return grad, hess

    def fixed_derivs(self, state) -> tuple[np.ndarray, np.ndarray]:
        """Gradient (rows) and Hessian of l of each column at the fixed
        baseline values of `state`, as `evaluate` gives it."""
        values, _, wez = state
        lam = np.ascontiguousarray((self.inc_t @ values.T).T)
        return self._fixed_grad_hess(wez, lam)

    def derivs(self, state):
        """Gradient (rows) and Hessian of l_p of each column at the state
        `evaluate` gives; per block B, a run of equal `values` (each
        N_B / E_B for the isotonic baseline at beta), the exp(beta'z)-
        weighted mean m_B of z over its epochs; and where each block
        starts, as a flat index into the (column, time) cells.  By the
        envelope theorem the gradient is the fixed-baseline one; the
        Hessian is the fixed-baseline one plus sum_B N_B m_B m_B'."""
        values, exposure, wez = state
        m, r, d = values.shape[0], values.shape[1], self.d
        grad, hess = self.fixed_derivs(state)
        # blocks in (column, time) order: each column's first at its first time
        new = np.ones((m, r), dtype=bool)
        np.greater(values[:, 1:], values[:, :-1], out=new[:, 1:])
        start = np.flatnonzero(new)
        mean = np.empty((start.size, d))
        for l, z in enumerate(self.Z.T):  # per block, sum of w exp(beta'z) z_l over its epochs
            mean[:, l] = np.add.reduceat((self.inc @ (wez.T * z[:, None])).T.ravel(), start)
        mean /= np.add.reduceat(exposure.ravel(), start)[:, None]
        count = np.add.reduceat(self.total.ravel(), start)
        hess += np.add.reduceat(count[:, None, None] * mean[:, :, None] * mean[:, None, :],
                                np.searchsorted(start, np.arange(0, m * r, r)), axis=0)
        return grad, hess, mean, start

    def fit_state(self, c: int, beta: np.ndarray, state, derivs) -> _FitState:
        """Column c's _FitState at its row of `beta`, from the `state`
        `evaluate` gives there and what `derivs` gives at that state, cut
        to its own dataset's times and subjects."""
        values, _, wez = state
        _, hess, mean, start = derivs
        j = self.owner[c]
        lo, hi = np.searchsorted(start, [c * self.r, (c + 1) * self.r])
        return _FitState(beta[c], values[c, :self.parts[j].arrays.times.size],
                         wez[c, self.first[j]:self.first[j + 1]], hess[c], mean[lo:hi],
                         start[lo:hi] - c * self.r)

    def cause_fit(self, path: "_Path", c: int) -> CauseFit:
        """Column c of `path` as a CauseFit, its knots at its own dataset's
        times."""
        u = self._pava[c][0]
        error = path.error[c]
        return CauseFit(
            cause=int(self.causes[c]),
            beta=path.beta[c].copy(),
            baseline=StepFunction(self.parts[self.owner[c]].arrays.times[u],
                                  path.state[0][c, u]),
            loglik_trace=path.trace[c],
            iterations=max(len(path.trace[c]) - 1, 1),
            converged=bool(path.converged[c]),
            error=None if error is None else str(error),
        )


def _subject_incidence(subj: np.ndarray, inverse: np.ndarray, n: int, r: int) -> csr_array:
    """The n x r subject x time incidence of the epochs, which are grouped
    by subject `subj` and at time index `inverse`: a 1 at each epoch's
    subject and time."""
    return csr_array((np.ones(subj.size), inverse, _subject_bounds(subj, n)), shape=(n, r))


def _with_counts(inc, counts: np.ndarray):
    """The incidence `inc` (either orientation) with each epoch's count
    `counts` in place of its 1."""
    return type(inc)((counts, inc.indices, inc.indptr), shape=inc.shape)


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
    wez = ws._weighted_exp(ws.linear_predictor(beta[None])).T
    grad, hess = ws._fixed_grad_hess(wez, lam_sub[None])
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
    last beta row and state), whether it converged and why it stopped, and
    the output of the last `derivs` call, which saw every converged column
    at its last state (None if no call was made)."""

    trace: list[list[float]]
    beta: np.ndarray
    state: tuple
    converged: np.ndarray
    error: list
    derivs: tuple | None = None

    def accept(self, took: np.ndarray, beta: np.ndarray, obj: np.ndarray, state) -> None:
        """Accept the rows of beta, obj and state that the mask `took` marks."""
        self.beta[took] = beta[took]
        for full, part in zip(self.state, state):
            full[took] = part[took]
        for c, o in zip(np.flatnonzero(took), obj[took].tolist()):
            self.trace[c].append(o)


def _newton(ws: _CauseWorkspace, beta: np.ndarray, evaluate, derivs) -> _Path:
    """Maximize a concave objective in beta for each column by damped
    Newton steps, all columns in lockstep.

    `beta` holds a starting row per column.  `evaluate(beta)` gives the
    objective of every column at its row of beta (-inf, unevaluated, where
    some |beta'z| > _MAX_LP, so exp(beta'z) stays inside the float range),
    and a state: a tuple of arrays with a row per column.  `derivs(state)`
    gives their gradients (rows) and Hessians.  Every call covers every
    column; a column that has stopped is evaluated at its last iterate and
    the result dropped.  A column's steps halve until its objective does
    not drop.  Accepted iterates, the start first, go to the returned
    path.  A column converges once its gradient in beta * z_range units (a
    stop that ignores the covariates' units) is within _NEWTON_TOL, stops
    unconverged after _MAX_STEPS steps, and stops with an error on the
    path when it diverges, its information is singular or no halving
    improves it.
    """
    m = beta.shape[0]
    obj, state = evaluate(beta)
    path = _Path([[o] for o in obj.tolist()], beta.copy(), state, np.zeros(m, dtype=bool),
                 [None] * m)
    run = np.isfinite(obj)
    for c in np.flatnonzero(~run):
        path.error[c] = NumericError("objective not finite at the starting point")
    if not beta.shape[1]:  # no coefficients: the start is the maximizer
        path.converged[:], run[:] = run, False
    steps = np.zeros(m, dtype=int)
    while run.any():
        path.derivs = derivs(path.state)
        grad, hess = path.derivs[:2]
        diverged = run & np.any(np.abs(path.beta) * ws.z_range > _BETA_BOUND, axis=1)
        done = run & ~diverged & (np.linalg.norm(grad / ws.z_range, axis=1) <= _NEWTON_TOL)
        path.converged |= done
        for c in np.flatnonzero(diverged):
            path.error[c] = _diverged(path.beta[c])
        stepping = run & ~diverged & ~done & (steps < _MAX_STEPS)
        if not stepping.any():
            break
        inv, singular = _inverse_information(hess, ws.z_range)
        singular &= stepping
        for c in np.flatnonzero(singular):
            path.error[c] = NumericError(_SINGULAR)
        step = (inv @ grad[:, :, None])[:, :, 0]
        last = np.array([trace[-1] for trace in path.trace])
        floor = last - 1e-12 * np.maximum(1.0, np.abs(last))
        pending = stepping & ~singular
        for halving in range(_MAX_HALVINGS):
            if not pending.any():
                break
            cand = np.where(pending[:, None], path.beta + 0.5 ** halving * step, path.beta)
            obj, state = evaluate(cand)
            took = pending & (obj >= floor)
            path.accept(took, cand, obj, state)
            pending &= ~took
        run = stepping & ~singular & ~pending
        steps += run
        for c in np.flatnonzero(pending):
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


def _lockstep(data, causes: np.ndarray, start: np.ndarray, weights=None):
    """Fit column c, cause `causes[c]` from the row `start[c]`, with the
    subject weights `weights(cols)` gives (n x len(cols); default all 1
    on the column's own dataset, see _CauseWorkspace).  `data` is a
    dataset or a stack of them.

    Columns run in chunks, so that no array of a chunk holds more than
    _CHUNK_FLOATS floats per subject or distinct time; a stack of several
    datasets from _stacks is always one chunk.  Yields each chunk's column
    indices, workspace and path."""
    parts = [data] if isinstance(data, PanelDataset) else data
    n, r = sum(p.n for p in parts), max(p.arrays.times.size for p in parts)
    size = max(1, _CHUNK_FLOATS // max(n, r))
    for lo in range(0, len(causes), size):
        cols = np.arange(lo, min(lo + size, len(causes)))
        ws = _CauseWorkspace(data, causes[cols], None if weights is None else weights(cols))
        yield cols, ws, _newton(ws, start[cols], ws.evaluate, ws.derivs)


def _stacks(datasets):
    """The datasets of an iterable in stacks of consecutive ones: each as
    many as keep its epochs times its columns (k per dataset) within
    _CHUNK_FLOATS, at least one.  Each column's products run over every
    epoch of its stack, so a stack's cost grows with the square of its
    size.  Reads one dataset past each stack it yields."""
    stack, epochs = [], 0
    for data in datasets:
        epochs += data.arrays.t.size
        if stack and epochs * data.k * (len(stack) + 1) > _CHUNK_FLOATS:
            yield stack
            stack, epochs = [], data.arrays.t.size
        stack.append(data)
    if stack:
        yield stack


def aggregate(data: PanelDataset, cause: int) -> _CauseWorkspace:
    """Group all observation epochs by distinct time for one cause: the
    cause's workspace, whose `times`, `n_obs` (observations per time),
    `mean_count` (their mean cumulative count) and `r` (number of times)
    the fit uses.  Times and observation counts are shared across causes."""
    return _CauseWorkspace(data, cause)


def log_pseudo_likelihood(data: PanelDataset, cause: int, beta,
                          baseline: StepFunction) -> float:
    """Evaluate the per-cause objective at (beta, baseline).

    Uses the 0*log(0) = 0 and 0*inf = 0 conventions and returns -inf
    when a positive count falls where the baseline is zero.  The baseline
    knots must span all observation times of the dataset.
    """
    ws = _CauseWorkspace(data, cause)
    beta = _as_beta(beta, ws.d)[None]
    values = _values_at(ws, baseline)
    # no |beta'z| guard here, so exp(beta'z) may overflow; S_q v_q is 0 where v_q is
    exposure = np.where(values > 0, ws.exposure(beta), 0.0)
    return float(ws.loglik(beta, values, exposure)[0])


def baseline_step(data: PanelDataset, cause: int, beta) -> StepFunction:
    """Exact baseline maximizer at fixed beta (profile step)."""
    ws = _CauseWorkspace(data, cause)
    exposure = ws.exposure(_as_beta(beta, ws.d)[None])
    return StepFunction(ws.times.copy(), ws.baseline_values(exposure)[0])


def beta_step(data: PanelDataset, cause: int, baseline: StepFunction, beta_start) -> np.ndarray:
    """Exact coefficient maximizer at fixed baseline (fit's Newton loop)."""
    if data.d == 0:
        raise ValueError("beta step needs at least one covariate")
    ws = _CauseWorkspace(data, cause)
    values = _values_at(ws, baseline)
    path = _newton(ws, _as_beta(beta_start, ws.d)[None],
                   lambda b: ws.evaluate(b, values), ws.fixed_derivs)
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


def fit(data: PanelDataset | Sequence[PanelDataset]) -> list[CauseFit]:
    """Fit every recurrence mode independently, of one dataset or of each
    dataset of a sequence with one k and d.

    Each cause is a column of one lockstep Newton loop (see _lockstep),
    with unit weights.  Consecutive datasets of a sequence are fitted
    together in stacks (see _stacks and _CauseWorkspace): one column per
    (dataset, cause), weighted 0 off its own dataset, on an axis of time
    ranks; the knots are each dataset's own times.  A stacked fit sums
    over zeros a fit alone does not, so its beta and baseline may differ
    from that fit's in the last bits.  The fits come back as one flat
    list, dataset by dataset, then cause by cause.

    Each fit starts at beta = 0, where the baseline is the plain
    no-covariate isotonic estimator, and takes Newton steps to the
    gradient stop; one that reaches _MAX_STEPS steps first is returned
    with converged False and no error.

    Causes are separable (the joint objective is the sum of per-cause
    objectives), so each is maximized on its own.  A divergence in one
    cause is reported on its CauseFit (error set, converged False) and
    does not stop the others.  A NumericError raised from the baseline
    step stops the whole stack.

    Each CauseFit keeps, by reference, the arrays of the dataset it was
    fitted on and, if it converged, its last evaluation and the
    derivatives of the stop test there (see _FitState), which
    `sandwich_se` reads instead of forming them again.
    """
    datasets = [data] if isinstance(data, PanelDataset) else list(data)
    if len({(d.k, d.d) for d in datasets}) > 1:
        raise ValueError("datasets fitted together need the same numbers of causes and covariates")
    fits = []
    for stack in _stacks(datasets):
        k, d = stack[0].k, stack[0].d
        for cols, ws, path in _lockstep(stack, np.tile(np.arange(1, k + 1), len(stack)),
                                        np.zeros((len(stack) * k, d))):
            for c in range(cols.size):
                cf = ws.cause_fit(path, c)
                cf._arrays = ws.parts[ws.owner[c]].arrays
                if cf.converged and path.derivs is not None:
                    cf._state = ws.fit_state(c, path.beta, path.state, path.derivs)
                fits.append(cf)
    return fits


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
