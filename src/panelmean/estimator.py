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
makes every sum over epochs, as products with the time x subject
incidence matrix taken for all columns at once (an _Incidence: SciPy's
compiled sparse kernels, without scipy.sparse), and every derivative of
l, which reads the state of the evaluation it follows.  Several datasets
fit as one stack: their subjects and their times one after another, each
(dataset, cause) a column that sums and multiplies over its own dataset
only.  This module is the one place epochs are summed, the sandwich's
too (see _sandwich_cov): `inference` forms no sums of its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import PanelArrays, PanelDataset, _check_cause, _subject_bounds
from .errors import ConvergenceError, NumericError
from .isotonic import StepFunction, _load_compiled, _pava_runs

# SciPy's compiled sparse matrix-vector kernels, the ones behind a
# scipy.sparse product with a dense array: a private module, in SciPy
# since before 1.12, the floor in pyproject.toml.  This is the one place
# that names it, with no fallback (CI checks); it is loaded as
# isotonic's PAVA is, so scipy.sparse's __init__ never runs.
_sparsetools = _load_compiled("scipy.sparse._sparsetools")

_MAX_HALVINGS = 30
_BETA_BOUND = 15.0  # on |beta_l| * z_range_l, see _STOPS
_MAX_STEPS = 50  # Newton steps of fit and of beta_step
_NEWTON_TOL = 1e-8  # norm of gradient / z_range at which Newton stops
_MAX_CONDITION = 1e12  # of the range-scaled information; beyond it, singular
_MAX_LP = 600.0  # on |beta'z| at a trial point; e^600 ~ 1e261 leaves sums and ratios room
_CHUNK_FLOATS = 2**15  # a quarter of a lockstep call's footprint (see _chunk_columns),
                       # and epochs x columns of a stack of several datasets (see _stacks)

# How a Newton column stopped: its code in _Path.stop, and the error type
# `beta_step` raises for it with its message, which a CauseFit's `error`
# holds for every code but `gradient` (converged) and `step_cap` (_MAX_STEPS
# steps taken).  `diverged`: a coefficient that moves exp(beta'z) by more
# than e^15 across its covariate's range means the profile maximum is at
# infinity.  On a covariate level with no events each Newton step moves
# |beta_l| * z_range_l by about 1, so the check fires after the same steps
# in any unit.  `descent`: an accepted objective below the one before,
# which the halvings' floor rules out.
_STOPS = {
    "gradient": (None, None),
    "step_cap": (ConvergenceError, f"beta step did not converge in {_MAX_STEPS} Newton iterations"),
    "diverged": (ConvergenceError, "beta diverged (coefficient times covariate range beyond "
                 f"{_BETA_BOUND:g}); the profile maximum is at infinity, e.g. a covariate "
                 "level with no observed events"),
    "singular": (NumericError, "singular information matrix: covariates are collinear, "
                 "or constant within the baseline's blocks"),
    "no_ascent": (ConvergenceError, "Newton step could not improve the objective (or "
                  f"|beta'z| reached {_MAX_LP:g}: center covariates far from 0)"),
    "not_finite": (NumericError, "objective not finite at the starting point"),
    "descent": (NumericError, "log-likelihood trace decreased"),
}


@dataclass
class CauseFit:
    """Fitted coefficients and baseline for one recurrence mode.

    `loglik_trace` is l_p at the start (beta = 0 for `fit`) and after
    each Newton step, which `iterations` counts (1 when none is taken).
    `stop` says how the Newton loop stopped, one code of _STOPS:
    `gradient` (converged), `step_cap`, `diverged`, `singular`,
    `no_ascent`, `not_finite` or `descent`; None for a fit built by hand."""

    cause: int
    beta: np.ndarray
    baseline: StepFunction
    loglik_trace: list[float] = field(repr=False)
    iterations: int = 0
    converged: bool = False
    error: str | None = None
    stop: str | None = None
    # set by `fit` alone: the arrays fitted, and for a converged fit with
    # covariates the state of its last evaluation (see _FitState)
    _arrays: PanelArrays | None = field(default=None, init=False, repr=False, compare=False)
    _state: _FitState | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class _FitState:
    """What the sandwich estimator reads of a fit's last evaluation, made
    for `cause` at `beta` with unit weights: the baseline `values` at every
    distinct time, w exp(beta'z) per subject `wez`, each covariate's range
    over the subjects `z_range` (the unit of the condition test), and from
    the derivatives at that evaluation the profile Hessian `hess`, the mean
    of z in each baseline block `block_mean` and the time index each block
    starts at, `block_start`.  The arrays are views of the fit's own, not
    copies."""

    cause: int
    beta: np.ndarray
    values: np.ndarray
    wez: np.ndarray
    z_range: np.ndarray
    hess: np.ndarray
    block_mean: np.ndarray
    block_start: np.ndarray


class _CauseWorkspace:
    """Fit columns over the flat arrays of one dataset or of a stack of
    datasets: the one place their epochs are summed and l is
    differentiated.

    A stack is a list of datasets of one k and d; a single dataset is a
    stack of one.  Every dataset has the same `kk` columns: column
    c = j * kk + i, column i of dataset j = `owner[c]`, fits cause
    `causes[i]` with the subject weights `weights[:, i]` on that dataset's
    subjects (default all 1, summed like any other weights: counts are
    integers, so their sums are exact in any order).  Only subjects of
    positive weight, and the distinct times they are observed at (the
    column's used times), take part, so a column is the explicitly
    resampled data with repeats summed.

    The stack's subjects follow one another, dataset by dataset, from
    `first[j]`, and so do its distinct times, from `tfirst[j]`, on a time
    axis of `r` rows, one per (dataset, time) pair.  Per-subject arrays
    are n x kk and per-time arrays kk x r, so column c reads and writes
    only dataset j's part of column (or row) i.  Epochs are the pooled
    (subject, observation) pairs.  They are summed through the time x
    subject incidence `inc` (one 1 per epoch), its transpose `inc_t`, each
    cause's `count_inc` (the epoch's count in place of the 1) and each
    covariate's `z_inc` (the epoch's z_l, see PanelArrays): per-time sums
    of per-subject values X (n x kk) are `inc @ X`, and per-subject sums
    of per-time values V (r x kk) are `inc_t @ V`.  Sums over a column's
    times run over its own rows only, and the matrix-vector products with
    Z are made column by column with its own dataset's arrays: its linear
    predictor with Z, and its gradient and Hessian as one product with the
    covariate products z, z_l z_m that every workspace of the dataset
    shares (see PanelArrays and `_fixed_grad_hess`).  Each sum adds a
    column's terms in a fixed order, so no column's numbers depend on the
    other columns of the call or the other datasets of its stack: a
    stacked fit is its dataset's fit alone, bit for bit.

    Per column and time, `total` holds the weighted count total C_q and
    `obs` the weighted observation count; `n_obs` and `mean_count` (C_q /
    obs) hold them at the used cells only, in cell order, so each column's
    used times are one run of them.  `_firsts` holds each column's first
    cell and `_edges` bounds the runs, both in cell order (row i of each
    dataset in turn, row by row), and `_within` marks the runs for the
    PAVA (see isotonic._drops).  `_used` indexes the used cells, and
    `_gather` gives each cell the used cell whose baseline value it takes:
    itself if used, else its column's last used time before it, else its
    first.  Per column, `zcs` holds Z' times the weighted per-subject count
    totals (the beta-linear part of l) and `z_range` each covariate's range
    over the column's subjects (|z_l| if all share it, 1 if that is 0):
    the unit in which beta_l * z_l is judged.  `active` marks each column's
    subjects (w > 0), for `_z_range` and `evaluate`'s tripped guard only.
    Unit weights are weights like any other: every subject is active, and a
    column that uses every time gathers each cell from itself.  Every method
    covers all m columns.  `evaluate` serves every Newton loop; its state
    (baseline values, exposure, w exp(beta'z)) is what `fixed_derivs` and
    `derivs` read, so neither forms exp(beta'z) again; `fit_state` keeps a
    column's share of it for the sandwich estimator.

    `times` are a single dataset's distinct times (None for a stack of
    several).  A scalar `cause` (no weights) makes the one-column view of
    one dataset's full data: `n_obs` and `mean_count` per distinct time,
    and `count_sum` per subject.  `Z`, `subj` and `inverse` (each epoch's
    time row) are the stack's (see PanelArrays).
    """

    def __init__(self, data, cause, weights: np.ndarray | None = None):
        parts = [data] if isinstance(data, PanelDataset) else list(data)
        arrays = [p.arrays for p in parts]
        self.causes = causes = np.atleast_1d(cause)
        for j in set(causes.tolist()):
            _check_cause(parts[0], j)
        kk = causes.size
        self.parts, self.kk, self.d = parts, kk, parts[0].d
        self.first = np.r_[0, np.cumsum([p.n for p in parts])]
        self.tfirst = np.r_[0, np.cumsum([a.times.size for a in arrays])]
        self.n, self.r = n, r = int(self.first[-1]), int(self.tfirst[-1])
        self.times = arrays[0].times if len(parts) == 1 else None
        self.owner = np.repeat(np.arange(len(parts)), kk)
        self.Z = _joined([a.Z for a in arrays])
        self.subj = _joined([a.subj for a in arrays], self.first)
        self.inverse = _joined([a.inverse for a in arrays], self.tfirst)
        counts = _joined([a.counts for a in arrays], axis=1)
        self.inc_t = _subject_incidence(self.subj, self.inverse, n, r)
        self.inc = self.inc_t.T  # a CSC view: still adds a time's epochs in subject order
        self.count_inc = {j: _with_counts(self.inc, counts[j - 1]) for j in set(causes.tolist())}
        self.z_inc = [_with_counts(self.inc, z)
                      for z in _joined([a._epoch_covariates for a in arrays], axis=1)]
        # per dataset, its time rows, its subjects and its Z; per column, its
        # index i and its dataset's
        self._spans = [(slice(*self.tfirst[j:j + 2]), slice(*self.first[j:j + 2]), a.Z)
                       for j, a in enumerate(arrays)]
        self._cols = [(i, *span) for span in self._spans for i in range(kk)]

        self.w = np.ones((n, kk)) if weights is None else \
            np.asarray(weights, dtype=float).reshape(n, kk)
        self.active = self.w > 0
        self.obs = obs = np.ascontiguousarray((self.inc @ self.w).T)
        self.total = np.empty((kk, r))
        count_sum = {}
        for j, inc_counts in self.count_inc.items():
            col = causes == j
            self.total[col] = (inc_counts @ self.w[:, col]).T
            count_sum[j] = np.bincount(self.subj, weights=counts[j - 1], minlength=n)
        self.zcs = np.array([Z.T @ (self.w[s, i] * count_sum[causes[i]][s])
                             for i, _, s, Z in self._cols]).reshape(len(self._cols), self.d)
        self.no_count = (self.total == 0).astype(float)
        self.z_range = np.concatenate([_z_range(Z, a._covariate_order, self.active[s])
                                       for (_, s, Z), a in zip(self._spans, arrays)])
        # per (l, m), the row of z_l z_m in a dataset's covariate products
        upper = np.triu_indices(self.d)
        self._pair = np.empty((self.d, self.d), dtype=np.intp)
        self._pair[upper] = self._pair.T[upper] = self.d + np.arange(upper[0].size)

        used = obs > 0
        self._used = np.flatnonzero(used)
        self.n_obs = obs.ravel()[self._used]
        self.mean_count = self.total.ravel()[self._used] / self.n_obs
        # each column's first cell, in cell order (column i of every
        # dataset, then i + 1); the used cells before it are where its run
        # starts
        self._firsts = np.add.outer(np.arange(0, kk * r, r), self.tfirst[:-1]).ravel()
        bounds = np.r_[self._firsts, kk * r]
        runs = np.r_[0, np.cumsum(used)]
        self._edges = runs[bounds]
        start = np.zeros(self.n_obs.size + 1, dtype=bool)
        start[self._edges] = True
        self._within = ~start[1:-1]
        self._scratch = np.empty(np.diff(self._edges).max() + 1, dtype=np.intp)
        # per cell, the last used cell at or before it, else its run's first
        self._gather = np.maximum(runs[1:] - 1, np.repeat(self._edges[:-1], np.diff(bounds)))
        self._gather = self._gather.reshape(kk, r)

        if np.ndim(cause) == 0:
            self.count_sum = count_sum[int(cause)]

    def _cells(self, columns: np.ndarray):
        """The per-time (kk x r) and per-subject (n x kk) cells of the
        columns the mask `columns` (m) marks."""
        mask = columns.reshape(-1, self.kk)
        return mask.T.repeat(np.diff(self.tfirst), axis=1), mask.repeat(np.diff(self.first), axis=0)

    def linear_predictor(self, beta: np.ndarray) -> np.ndarray:
        """Per subject and column i of each dataset (n x kk), beta'z at the
        row of `beta` (m x d) of its column, zero weight or not."""
        lp = np.empty((self.n, self.kk))
        for (i, _, s, Z), b in zip(self._cols, beta):
            lp[s, i] = Z @ b
        return lp

    def _weighted_exp(self, lp: np.ndarray) -> np.ndarray:
        """w exp(lp), in the place of `lp`."""
        e = np.exp(lp, out=lp)
        e *= self.w
        return e

    def exposure(self, beta: np.ndarray) -> np.ndarray:
        """Per column i of each dataset and time, S_q: the weighted sum of
        exp(beta'z) over its epochs (no guard: exp(beta'z) * 0 at zero weight)."""
        return self._exposure(self._weighted_exp(self.linear_predictor(beta)))

    def _exposure(self, wez: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray((self.inc @ wez).T)

    def baseline_values(self, exposure: np.ndarray) -> np.ndarray:
        """Per column i of each dataset and time, the isotonic baseline at
        fixed beta, given `exposure` = `self.exposure(beta)`: with e the
        exposure per observation at the used cells, checked once, the PAVA
        of mean_count / e weighted by n_obs * e over each column's run,
        solved in place for the runs that drop, whose values its other
        times repeat (see `_gather`)."""
        e = exposure.ravel()[self._used] / self.n_obs
        if not ((e > 0) & (e < np.inf)).all():
            raise NumericError("exposure must be finite and strictly positive")
        y, w = self.mean_count / e, self.n_obs * e
        _pava_runs(y, w, self._edges, self._within, self._scratch)
        return y[self._gather]

    def loglik(self, beta: np.ndarray, values: np.ndarray, exposure: np.ndarray) -> np.ndarray:
        """Full objective of each column at (beta, baseline values), from
        per-time sums: sum_q C_q log v_q + beta'zcs - S'v, with S the
        `exposure` at beta; -inf if a positive count sits on a zero value."""
        terms = values + self.no_count
        with np.errstate(divide="ignore"):  # log 0 = -inf: kept where C_q > 0
            np.log(terms, out=terms)
        terms *= self.total
        terms -= exposure * values
        sums = np.array([terms[:, t].sum(axis=1) for t, _, _ in self._spans])
        return sums.ravel() + (beta * self.zcs).sum(axis=1)

    def evaluate(self, beta: np.ndarray, values: np.ndarray | None = None):
        """l_p of each column at its row of `beta`, or l at its row of
        fixed baseline `values` if given (-inf where some |beta'z| > _MAX_LP
        at a positive weight, see _newton; zero weights are masked only if
        the guard trips, since exp(beta'z) * 0 = 0 otherwise), and the state
        its derivatives read: the baseline values, the exposure and w
        exp(beta'z) (kk x r, kk x r and kk x n; finite: at beta'z = 0 where -inf)."""
        lp = self.linear_predictor(beta)
        over = np.zeros(beta.shape[0], dtype=bool)
        if not (lp.max(initial=0.0) <= _MAX_LP and -lp.min(initial=0.0) <= _MAX_LP):  # rare
            lp *= self.active  # zero weight flags no column; NaN fails the test
            over = ~(np.maximum.reduceat(np.abs(lp), self.first[:-1]).ravel() <= _MAX_LP)
            lp[self._cells(over)[1]] = 0.0
        wez = self._weighted_exp(lp)
        exposure = self._exposure(wez)
        if values is None:
            values = self.baseline_values(exposure)
        ll = self.loglik(beta, values, exposure)
        ll[over] = -np.inf
        return ll, (values, exposure, wez.T)

    def accept(self, state, new, columns: np.ndarray) -> None:
        """Copy into the arrays of the evaluation `state` the cells of
        those of `new` of the columns the mask `columns` marks."""
        times, subjects = self._cells(columns)
        for full, part, cells in zip(state, new, (times, times, subjects.T)):
            np.copyto(full, part, where=cells)

    def _fixed_grad_hess(self, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient (rows) and Hessian of l in beta at a fixed baseline for
        each column, from `mu` (n x kk): per subject and column i of each
        dataset, w exp(beta'z) times the sum of the baseline's values at
        its epochs.  Each column's sums of mu z and mu z z' are one
        matrix-vector product of its dataset's covariate products (see
        PanelArrays) with its contiguous part of mu: the same BLAS call,
        of the same shape, whichever columns and datasets share the call."""
        d = self.d
        products = [p.arrays._covariate_products for p in self.parts]
        sums = np.empty((len(self._cols), products[0].shape[0]))
        for c, (i, _, s, _) in enumerate(self._cols):
            # BLAS sums a strided vector in another order
            sums[c] = products[self.owner[c]] @ np.ascontiguousarray(mu[s, i])
        return self.zcs - sums[:, :d], -sums[:, self._pair]

    def fixed_derivs(self, state) -> tuple[np.ndarray, np.ndarray]:
        """Gradient (rows) and Hessian of l of each column at the fixed
        baseline values of `state`, as `evaluate` gives it."""
        values, _, wez = state
        mu = self.inc_t @ values.T
        mu *= wez.T
        return self._fixed_grad_hess(mu)

    def derivs(self, state):
        """Gradient (rows) and Hessian of l_p of each column at the state
        `evaluate` gives; per block B, a run of equal `values` (each
        N_B / E_B for the isotonic baseline at beta) within a column's
        times, the exp(beta'z)-weighted mean m_B of z over its epochs; and
        where each block starts, as a flat index into the kk x r cells.
        `z_inc` sums w exp(beta'z) z_l with the bits of `inc` on the formed
        products.  By the envelope theorem the gradient is the fixed-baseline
        one; the Hessian is the fixed-baseline one plus sum_B N_B m_B m_B'."""
        values, exposure, wez = state
        kk, r, d = self.kk, self.r, self.d
        grad, hess = self.fixed_derivs(state)
        # blocks in cell order: each column's first at its first time
        new = np.ones((kk, r), dtype=bool)
        np.greater(values[:, 1:], values[:, :-1], out=new[:, 1:])
        new[:, self.tfirst[:-1]] = True
        start = np.flatnonzero(new)
        mean = np.empty((start.size, d))
        for l, inc_l in enumerate(self.z_inc):  # per block, sum of w exp(beta'z) z_l
            mean[:, l] = np.add.reduceat((inc_l @ wez.T).T.ravel(), start)
        mean /= np.add.reduceat(exposure.ravel(), start)[:, None]
        count = np.add.reduceat(self.total.ravel(), start)
        # each column's blocks summed, in cell order, then put in column order
        blocks = np.add.reduceat(count[:, None, None] * mean[:, :, None] * mean[:, None, :],
                                 np.searchsorted(start, self._firsts), axis=0)
        hess += blocks.reshape(kk, -1, d, d).swapaxes(0, 1).reshape(hess.shape)
        return grad, hess, mean, start

    def fit_state(self, c: int, beta: np.ndarray, state, derivs) -> _FitState:
        """Column c's _FitState at its row of `beta`, from the `state`
        `evaluate` gives there and what `derivs` gives at that state, cut
        to its own dataset's times and subjects."""
        values, _, wez = state
        _, hess, mean, start = derivs
        i, t, s, _ = self._cols[c]
        cell = i * self.r + t.start
        lo, hi = np.searchsorted(start, [cell, cell + t.stop - t.start])
        return _FitState(int(self.causes[i]), beta[c], values[i, t], wez[i, s], self.z_range[c],
                         hess[c], mean[lo:hi], start[lo:hi] - cell)

    def cause_fit(self, path: "_Path", c: int) -> CauseFit:
        """Column c of `path` as a CauseFit, its knots at its own dataset's
        times."""
        i, t, _, _ = self._cols[c]
        used = self.obs[i, t] > 0
        return CauseFit(
            cause=int(self.causes[i]),
            beta=path.beta[c].copy(),
            baseline=StepFunction(self.parts[self.owner[c]].arrays.times[used],
                                  path.state[0][i, t][used]),
            loglik_trace=path.trace[c],
            iterations=max(len(path.trace[c]) - 1, 1),
            converged=path.stop[c] == "gradient",
            error=None if path.stop[c] == "step_cap" else _STOPS[path.stop[c]][1],
            stop=path.stop[c],
        )


def _joined(pieces: list[np.ndarray], starts=None, axis: int = 0) -> np.ndarray:
    """The arrays `pieces` one after another along `axis`, each index
    array plus its piece's entry of `starts` if given; a single piece as
    it is, so a dataset's own workspace holds its arrays, not copies."""
    if len(pieces) == 1:
        return pieces[0]
    if starts is not None:
        pieces = [p + lo for p, lo in zip(pieces, starts)]
    return np.concatenate(pieces, axis=axis)


class _Incidence:
    """A sparse matrix in SciPy's compressed layout, `fmt` "csr" (`indptr`
    bounds each row's entries) or "csc" (each column's), and its products
    with dense arrays.  `@` dispatches as scipy.sparse's does, to the same
    compiled kernel with the same operand, so a product adds its terms in
    SciPy's order and has its bits: an operand of shape (N,) or (N, 1)
    goes to `<fmt>_matvec`, a wider one to `<fmt>_matvecs` in C order.
    The kernels check neither format nor shape, so the construction makes
    SciPy's O(1) format checks and `@` its shape check.  SciPy's wrapper
    of the kernels copies an array that is not contiguous on every call,
    so each incidence's `data` is a contiguous row (see PanelArrays)."""

    __slots__ = ("fmt", "shape", "indptr", "indices", "data")

    def __init__(self, fmt: str, shape: tuple[int, int], indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray):
        major = shape[0] if fmt == "csr" else shape[1]
        if not (indptr.size == major + 1 and indptr[0] == 0
                and indptr[-1] == indices.size == data.size):
            raise ValueError(f"malformed {fmt} index pointer for shape {shape} and "
                             f"{indices.size} entries")
        self.fmt, self.shape = fmt, shape
        self.indptr, self.indices, self.data = indptr, indices, data

    @property
    def T(self) -> _Incidence:
        """The transpose: the same arrays in the other layout."""
        return _Incidence("csc" if self.fmt == "csr" else "csr", self.shape[::-1],
                          self.indptr, self.indices, self.data)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        m, n = self.shape
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError(f"matmul: dimension mismatch, {self.shape} @ {x.shape}")
        dtype = np.result_type(self.data, x)
        if x.ndim == 1 or x.shape[1] == 1:
            out = np.zeros(m, dtype=dtype)
            getattr(_sparsetools, self.fmt + "_matvec")(m, n, self.indptr, self.indices,
                                                        self.data, x.ravel(), out)
            return out.reshape(m, *x.shape[1:])
        out = np.zeros((m, x.shape[1]), dtype=dtype)
        getattr(_sparsetools, self.fmt + "_matvecs")(m, n, x.shape[1], self.indptr, self.indices,
                                                     self.data, x.ravel(), out.ravel())
        return out


def _subject_incidence(subj: np.ndarray, inverse: np.ndarray, n: int, r: int) -> _Incidence:
    """The n x r subject x time incidence of the epochs, which are grouped
    by subject `subj` and at time index `inverse`: a 1 at each epoch's
    subject and time."""
    return _Incidence("csr", (n, r), _subject_bounds(subj, n), inverse, np.ones(subj.size))


def _with_counts(inc: _Incidence, counts: np.ndarray) -> _Incidence:
    """The incidence `inc` (either orientation) with each epoch's count
    `counts` in place of its 1."""
    return _Incidence(inc.fmt, inc.shape, inc.indptr, inc.indices, counts)


def _z_range(Z: np.ndarray, order: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Each covariate's range over the subjects of each column (m x d),
    the n x m mask `active` marking them; |z_l| when they all share it, 1
    when that is 0.  A column's extremes of z_l are at its first and last
    active subjects in z_l's sort order, `order[l]` (inf for a column with
    none, as the max and min of no value would give)."""
    ranked = active[order]  # per covariate, the columns' masks in its sort order: d x n x m
    rows = np.arange(order.shape[0])[:, None]
    lo = Z[order[rows, ranked.argmax(axis=1)], rows]  # d x m
    hi = Z[order[rows, active.shape[0] - 1 - ranked[:, ::-1].argmax(axis=1)], rows]
    spread = hi - lo
    shared = np.where(spread > 0, spread, np.abs(hi))
    return np.where(active.any(axis=0), np.where(shared > 0, shared, 1.0), np.inf).T


def _profile_grad_hess(ws: _CauseWorkspace, lam_sub: np.ndarray,
                       beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The workspace's fixed-baseline gradient and Hessian of l in beta for
    a one-column workspace, given `lam_sub`: per subject, the sum of the
    baseline's values at its epochs (no guard, as in `exposure`)."""
    mu = ws._weighted_exp(ws.linear_predictor(beta[None]))
    mu *= lam_sub[:, None]
    grad, hess = ws._fixed_grad_hess(mu)
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
    last beta row and state), how it stopped (a code of _STOPS, "" while it
    runs), and the output of the last `derivs` call, which saw every
    converged column at its last state (None if no call was made)."""

    trace: list[list[float]]
    beta: np.ndarray
    state: tuple
    stop: np.ndarray
    derivs: tuple | None = None

    def accept(self, ws: _CauseWorkspace, took: np.ndarray, refused: np.ndarray,
               beta: np.ndarray, obj: np.ndarray, state) -> None:
        """Accept the columns of beta and obj that the mask `took` marks, if
        any, and adopt `state`, its cells of the columns `refused` marks set
        to the path's: every other column's are, as they were evaluated at
        the path's row, and a column's numbers depend on its row alone."""
        if not took.any():
            return
        self.beta[took] = beta[took]
        if refused.any():
            ws.accept(state, self.state, refused)
        self.state = state
        for c, o in zip(np.flatnonzero(took), obj[took].tolist()):
            self.trace[c].append(o)

    def stop_where(self, mask, code: str) -> None:
        """Stop with `code` the running columns that the mask `mask` marks."""
        self.stop[(self.stop == "") & mask] = code


def _newton(ws: _CauseWorkspace, beta: np.ndarray, evaluate, derivs) -> _Path:
    """Maximize a concave objective in beta for each column by damped
    Newton steps, all columns in lockstep.

    `beta` holds a starting row per column.  `evaluate(beta)` gives the
    objective of every column at its row of beta (-inf, unevaluated, where
    some |beta'z| > _MAX_LP, so exp(beta'z) stays inside the float range),
    and a state: the arrays `ws.evaluate` gives.  `derivs(state)`
    gives their gradients (rows) and Hessians.  Every call covers every
    column; a column that has stopped is evaluated at its last iterate and
    the result dropped.  A column's steps halve until its objective does
    not drop: a trial that some column accepts becomes the path's state,
    with the cells of the columns it refused, those still pending, set to
    the path's (see _Path.accept).  Accepted iterates, the start first, go
    to the returned path, and each column's stop code (see _STOPS), set
    where the loop decides it: `not_finite` at the start; then, before
    each step, `diverged`, else `singular` (tested at every iterate, so a
    start whose gradient is already small does not pass an unidentified
    beta off as converged), else `gradient` once its gradient in beta *
    z_range units (a stop that ignores the covariates' units) is within
    _NEWTON_TOL, else `step_cap` after _MAX_STEPS steps; `no_ascent` when
    no halving improves it; and last `descent`, over any other code, for a
    trace that falls.
    """
    m = beta.shape[0]
    obj, state = evaluate(beta)
    path = _Path([[o] for o in obj.tolist()], beta.copy(), state, np.full(m, "", object))
    path.stop_where(~np.isfinite(obj), "not_finite")
    if not beta.shape[1]:  # no coefficients: the start is the maximizer
        path.stop_where(True, "gradient")
    steps = np.zeros(m, dtype=int)
    while (path.stop == "").any():
        path.derivs = derivs(path.state)
        grad, hess = path.derivs[:2]
        inv, singular = _inverse_information(hess, ws.z_range)
        path.stop_where(np.any(np.abs(path.beta) * ws.z_range > _BETA_BOUND, axis=1), "diverged")
        path.stop_where(singular, "singular")
        path.stop_where(np.linalg.norm(grad / ws.z_range, axis=1) <= _NEWTON_TOL, "gradient")
        path.stop_where(steps >= _MAX_STEPS, "step_cap")
        pending = path.stop == ""
        if not pending.any():
            break
        step = (inv @ grad[:, :, None])[:, :, 0]
        last = np.array([trace[-1] for trace in path.trace])
        floor = last - 1e-12 * np.maximum(1.0, np.abs(last))
        for halving in range(_MAX_HALVINGS):
            if not pending.any():
                break
            cand = np.where(pending[:, None], path.beta + 0.5 ** halving * step, path.beta)
            obj, state = evaluate(cand)
            took = pending & (obj >= floor)
            pending &= ~took
            path.accept(ws, took, pending, cand, obj, state)
        state = None  # a refused last trial's arrays would otherwise live through the next derivs
        path.stop_where(pending, "no_ascent")
        steps += path.stop == ""
    path.stop[[_descends(trace) for trace in path.trace]] = "descent"
    return path


def _lockstep(data, causes: np.ndarray, start: np.ndarray, weights=None):
    """Fit column i of each dataset of `data` (a dataset or a stack of
    them, see _CauseWorkspace), cause `causes[i]` with the subject weights
    `weights(cols)` gives (n x len(cols) for the columns `cols` of every
    dataset; default all 1), column c = j * len(causes) + i of dataset j
    from the row `start[c]`.

    Columns run in chunks, the same columns of every dataset in one, of
    _chunk_columns(n, r) columns of each dataset (n subjects and r time
    rows of the stack); a stack of several datasets from _stacks is always
    one chunk.  Yields each chunk's column indices, workspace and path,
    and holds none of them while it builds the next chunk."""
    parts = [data] if isinstance(data, PanelDataset) else data
    size = _chunk_columns(sum(p.n for p in parts), sum(p.arrays.times.size for p in parts))
    for lo in range(0, len(causes), size):
        own = np.arange(lo, min(lo + size, len(causes)))
        cols = (np.arange(len(parts))[:, None] * len(causes) + own).ravel()
        ws = _CauseWorkspace(data, causes[own], None if weights is None else weights(own))
        yield cols, ws, _newton(ws, start[cols], ws.evaluate, ws.derivs)
        del ws


def _chunk_columns(n: int, r: int) -> int:
    """Columns per lockstep call on n subjects and r time rows, at least 1:
    as many as keep the call's footprint, n + 3r floats a column, within
    4 * _CHUNK_FLOATS.  At its peak a call holds about 3.5 n-float arrays
    a column (the weights, the accepted and the trial w exp(beta'z), and
    mu for the derivatives) besides its per-time arrays.  On
    the perfbench shapes: 62 bootstrap columns per call at 2,000 subjects
    on 36 monthly times (a call's traced peak is 3.4 MiB), one cause per
    call at 8,000 subjects on 32,051 times, and a stack of five Table-1
    datasets at n = 200 in one call.  Table-1 bootstraps at n = 300, 1,000
    and 3,000 (r = 939, 2,929 and 9,078) take 42, 13 and 4 columns per
    call."""
    return max(1, 4 * _CHUNK_FLOATS // (n + 3 * r))


def _stacks(datasets):
    """The datasets of an iterable in stacks of consecutive ones: each as
    many as keep its epochs times its columns (k per dataset) within
    _CHUNK_FLOATS, at least one (five Table-1 datasets at n = 200).  A
    column sums and multiplies over its own dataset only, so a stack's
    cost and memory grow linearly with its size; this bound, which shrinks
    stacks faster than their datasets grow, stops them where a larger
    stack would add more to the peak memory than it saves in time.  Reads
    one dataset past each stack it yields."""
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
    kind, message = _STOPS[path.stop[0]]
    if kind is ConvergenceError:
        raise ConvergenceError(message, last_beta=path.beta[0])
    if kind is not None:
        raise kind(message)
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


def _descends(trace: list[float]) -> bool:
    """Whether some objective value of `trace` falls below the one before."""
    return any(b < a - 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))


def fit(data: PanelDataset | Sequence[PanelDataset]) -> list[CauseFit]:
    """Fit every recurrence mode independently, of one dataset or of each
    dataset of a sequence with one k and d.

    Each cause is a column of one lockstep Newton loop (see _lockstep),
    with unit weights.  Consecutive datasets of a sequence are fitted
    together in stacks (see _stacks and _CauseWorkspace): one column per
    (dataset, cause), over that dataset's subjects and times only, so a
    stacked fit is the dataset's fit alone, bit for bit.  The fits come
    back as one flat list, dataset by dataset, then cause by cause.

    Each fit starts at beta = 0, where the baseline is the plain
    no-covariate isotonic estimator, and takes Newton steps to the
    gradient stop; one that reaches _MAX_STEPS steps first is returned
    with converged False and no error.

    Causes are separable (the joint objective is the sum of per-cause
    objectives), so each is maximized on its own.  A divergence in one
    cause is reported on its CauseFit (error set, converged False) and
    does not stop the others.  A NumericError from the baseline step's
    check, which the |beta'z| guard keeps valid input from reaching,
    stops the whole call.

    Each CauseFit keeps, by reference, the arrays of the dataset it was
    fitted on and, if it converged, its last evaluation and the
    derivatives of the stop test there (see _FitState), from which
    _sandwich_cov forms the sandwich instead of evaluating again.
    """
    datasets = [data] if isinstance(data, PanelDataset) else list(data)
    if len({(d.k, d.d) for d in datasets}) > 1:
        raise ValueError("datasets fitted together need the same numbers of causes and covariates")
    fits = []
    for stack in _stacks(datasets):
        k, d = stack[0].k, stack[0].d
        for cols, ws, path in _lockstep(stack, np.arange(1, k + 1), np.zeros((len(stack) * k, d))):
            for c in range(cols.size):
                cf = ws.cause_fit(path, c)
                cf._arrays = ws.parts[ws.owner[c]].arrays
                if cf.converged and path.derivs is not None:
                    cf._state = ws.fit_state(c, path.beta, path.state, path.derivs)
                fits.append(cf)
            del ws, path  # the next call is fitted without this one's arrays
    return fits


def _sandwich_cov(data: PanelDataset, cause_fit: CauseFit) -> np.ndarray:
    """sandwich_se's covariance (d x d), at the fit's kept _FitState or, if
    that no longer describes the fit (its cause, beta and baseline) and
    `data`, at a new evaluation.  Per subject i, R_i sums its residuals
    N_ip - v_p exp(beta'z_i) over its epochs p, and M_i (n x d) the same
    residuals each times its block's mean m_B: two products with the
    subject x time incidence."""
    state, baseline = cause_fit._state, cause_fit.baseline
    if not (cause_fit._arrays is data.arrays and state is not None
            and cause_fit.cause == state.cause and _same(cause_fit.beta, state.beta)
            and _same(baseline.values, state.values) and _same(baseline.knots, data.arrays.times)):
        ws = _CauseWorkspace(data, cause_fit.cause)
        beta = cause_fit.beta[None]
        ll, evaluation = ws.evaluate(beta, baseline(ws.times)[None])
        if not np.isfinite(ll[0]):
            raise NumericError(f"cause {cause_fit.cause}: objective not finite at the fitted "
                               "beta and baseline")
        state = ws.fit_state(0, beta, evaluation, ws.derivs(evaluation))
    a = data.arrays
    info_inv, singular = _inverse_information(state.hess[None], state.z_range[None])
    if singular[0]:
        raise NumericError(_STOPS["singular"][1])
    inc_t = _subject_incidence(a.subj, a.inverse, data.n, a.times.size)
    block_lengths = np.diff(state.block_start, append=a.times.size)
    per_time = np.column_stack([np.ones(a.times.size),
                                np.repeat(state.block_mean, block_lengths, axis=0)])
    resid = _with_counts(inc_t, a.counts[cause_fit.cause - 1]) @ per_time
    resid -= (inc_t @ (state.values[:, None] * per_time)) * state.wez[:, None]
    score = a.Z * resid[:, :1] - resid[:, 1:]  # z_i R_i - M_i
    # (I/n)^-1 (S'S/n) (I/n)^-1 / n with I the information, S the scores
    return info_inv[0] @ (score.T @ score) @ info_inv[0].T


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether `a` is `b` bit for bit: dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
