"""Independent brute-force oracles used by the test suite.

Everything here is written the slow, obvious way on purpose: plain
double loops, exhaustive enumeration, no reuse of the library's
vectorized paths.  Two exceptions: `alternating_fit` is a different
algorithm built from the library's exact coordinate steps, and `take`
gathers an explicit resample from a dataset's flat arrays.
"""

import csv
import io
import itertools
import math

import numpy as np

from panelmean import (
    PanelDataset,
    ParseError,
    Subject,
    ValidationError,
    baseline_step,
    beta_step,
    log_pseudo_likelihood,
)
from panelmean.data import PanelArrays


def isotonic_maxmin(y, w):
    """Closed-form isotonic fit: x_q = max_{a<=q} min_{b>=q} wmean(y[a..b])."""
    y = list(map(float, y))
    w = list(map(float, w))
    r = len(y)
    out = []
    for q in range(r):
        best = -math.inf
        for a in range(q + 1):
            worst = math.inf
            for b in range(q, r):
                num = sum(w[l] * y[l] for l in range(a, b + 1))
                den = sum(w[l] for l in range(a, b + 1))
                worst = min(worst, num / den)
            best = max(best, worst)
        out.append(best)
    return np.array(out)


def baseline_profile_objective(n_obs, mean_count, exposure, values):
    """Grouped baseline profile objective with the 0*log(0)=0 convention."""
    total = 0.0
    for b, nbar, v, lam in zip(n_obs, mean_count, exposure, values):
        if nbar > 0:
            if lam == 0:
                return -math.inf
            total += b * nbar * math.log(lam)
        total -= b * v * lam
    return total


_COMBO_CACHE = {}


def _monotone_combos(levels_per_dim, r):
    key = (levels_per_dim, r)
    if key not in _COMBO_CACHE:
        _COMBO_CACHE[key] = np.array(
            list(itertools.combinations_with_replacement(range(levels_per_dim), r)),
            dtype=np.int64,
        )
    return _COMBO_CACHE[key]


def best_monotone_grid(n_obs, mean_count, exposure, levels_per_dim=50):
    """Exhaustive maximization of the baseline profile objective over a
    monotone lattice: level values span [0, max(mean_count/exposure)]."""
    r = len(n_obs)
    top = max(nb / v for nb, v in zip(mean_count, exposure))
    if top == 0:
        top = 1.0
    levels = np.linspace(0.0, top, levels_per_dim)
    combos = _monotone_combos(levels_per_dim, r)
    cand = levels[combos]  # (n_candidates, r), non-decreasing rows
    b = np.asarray(n_obs, dtype=float)
    nbar = np.asarray(mean_count, dtype=float)
    v = np.asarray(exposure, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(cand > 0, np.log(np.where(cand > 0, cand, 1.0)), -np.inf)
        terms = np.where(nbar > 0, nbar * logs, 0.0)
    obj = (b * (terms - v * cand)).sum(axis=1)
    return float(np.max(obj))


def step_eval(knots, values, t):
    """Right-continuous step lookup, 0 before the first knot."""
    out = 0.0
    for knot, value in zip(knots, values):
        if t >= knot:
            out = value
        else:
            break
    return out


def naive_loglik(data, cause, beta, knots, values):
    """Term-by-term pseudo log-likelihood over subjects and epochs."""
    total = 0.0
    for s in data.subjects:
        lp = float(np.dot(beta, s.covariates)) if len(beta) else 0.0
        for p in range(s.n_obs):
            lam = step_eval(knots, values, s.times[p])
            n = int(s.counts[cause - 1][p])
            if n > 0:
                if lam == 0:
                    return -math.inf
                total += n * math.log(lam)
            total += n * lp - lam * math.exp(lp)
    return total


def grouped_loglik(data, cause, beta, knots, values):
    """Grouped form of the objective: distinct times, per-time counts and
    means, exposure and count-weighted linear terms."""
    times = sorted({float(t) for s in data.subjects for t in s.times})
    total = 0.0
    for sq in times:
        members = [
            (i, p)
            for i, s in enumerate(data.subjects)
            for p in range(s.n_obs)
            if float(s.times[p]) == sq
        ]
        b = len(members)
        nbar = sum(data.subjects[i].counts[cause - 1][p] for i, p in members) / b
        v = sum(
            math.exp(float(np.dot(beta, data.subjects[i].covariates)))
            for i, p in members
        ) / b
        wlin = sum(
            data.subjects[i].counts[cause - 1][p]
            * float(np.dot(beta, data.subjects[i].covariates))
            for i, p in members
        ) / b
        lam = step_eval(knots, values, sq)
        if nbar > 0:
            if lam == 0:
                return -math.inf
            total += b * nbar * math.log(lam)
        total += b * (wlin - v * lam)
    return total


def tally_grouped(data, cause):
    """Brute-force two-loop tally of distinct times, counts and means."""
    times = sorted({float(t) for s in data.subjects for t in s.times})
    b = []
    nbar = []
    for sq in times:
        hits = []
        for s in data.subjects:
            for p in range(s.n_obs):
                if float(s.times[p]) == sq:
                    hits.append(int(s.counts[cause - 1][p]))
        b.append(len(hits))
        nbar.append(sum(hits) / len(hits))
    return np.array(times), np.array(b), np.array(nbar)


def _finite_or_none(cell):
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def row_by_row_parse(text, k, d):
    """Read `id,time,n1..nk,z1..zd` CSV text one cell at a time.

    Returns the dataset, or the error of the first defect: row defects in
    file order (cells left to right) before subject defects (subjects in
    order of first appearance; duplicate times, then varying covariates,
    then the Subject invariants).
    """
    header, *body = csv.reader(io.StringIO(text))
    records = {}
    for lineno, raw in enumerate(body, start=2):
        if not any(cell.strip() for cell in raw):
            continue
        if len(raw) != len(header):
            return ParseError(f"expected {len(header)} fields, got {len(raw)}", line=lineno)
        sid = raw[0].strip()
        if not sid:
            return ParseError("empty subject id", line=lineno)
        t = _finite_or_none(raw[1])
        if t is None:
            return ParseError(f"bad time value {raw[1]!r}", line=lineno)
        counts = []
        for j in range(k):
            cell = raw[2 + j].strip()
            try:
                counts.append(int(cell))
            except ValueError:
                return ParseError(f"bad count value {cell!r} in n{j + 1}", line=lineno)
            if counts[-1] < 0:
                return ParseError(f"negative count {cell!r} in n{j + 1}", line=lineno)
        covs = []
        for l in range(d):
            cell = raw[2 + k + l].strip()
            covs.append(_finite_or_none(cell))
            if covs[-1] is None:
                return ParseError(f"bad covariate value {cell!r} in z{l + 1}", line=lineno)
        records.setdefault(sid, []).append((t, counts, covs, lineno))
    if not records:
        return ParseError("no data rows")
    subjects = []
    for sid, recs in records.items():
        recs.sort(key=lambda rec: rec[0])
        times = [rec[0] for rec in recs]
        if len(set(times)) != len(times):
            return ValidationError(f"subject {sid!r}: duplicate observation times")
        for _, _, covs, lineno in recs:
            if covs != recs[0][2]:
                return ValidationError(
                    f"subject {sid!r}: covariates vary within subject (line {lineno})")
        counts = [[rec[1][j] for rec in recs] for j in range(k)]
        try:
            subjects.append(Subject(sid, times, counts, recs[0][2]))
        except ValidationError as exc:
            return exc
    return PanelDataset(subjects, k=k, d=d)


def profile_sandwich_cov(data, cause, beta, knots, values):
    """Sandwich covariance from the profile likelihood's blocks, term by term.

    The blocks are the runs of equal baseline values over the sorted
    distinct times.  With N_B the block's total count, E_B, S1_B, S2_B
    the sums of exp(beta'z), exp(beta'z) z and exp(beta'z) z z' over its
    epochs, the bread is sum_B N_B [S2_B/E_B - S1_B S1_B'/E_B^2] / n (the
    negative profile Hessian over n), the meat averages the outer
    products of per-subject scores with covariates centered by block
    (S1_B/E_B) and residuals N - (N_B/E_B) exp(beta'z), and the
    covariance is bread^-1 meat bread^-1 / n.
    """
    times = sorted({float(t) for s in data.subjects for t in s.times})
    block_of = {}
    block = 0
    for q, sq in enumerate(times):
        if q > 0 and step_eval(knots, values, sq) != step_eval(knots, values, times[q - 1]):
            block += 1
        block_of[sq] = block
    d = len(beta)
    N = [0.0] * (block + 1)
    E = [0.0] * (block + 1)
    S1 = [np.zeros(d) for _ in range(block + 1)]
    S2 = [np.zeros((d, d)) for _ in range(block + 1)]
    for s in data.subjects:
        z = np.array(s.covariates, dtype=float)
        w = math.exp(float(np.dot(beta, z)))
        for p in range(s.n_obs):
            b = block_of[float(s.times[p])]
            N[b] += int(s.counts[cause - 1][p])
            E[b] += w
            S1[b] = S1[b] + w * z
            S2[b] = S2[b] + w * np.outer(z, z)
    n = data.n
    bread = np.zeros((d, d))
    for b in range(block + 1):
        bread += N[b] * (S2[b] / E[b] - np.outer(S1[b], S1[b]) / E[b] ** 2)
    bread /= n
    meat = np.zeros((d, d))
    for s in data.subjects:
        z = np.array(s.covariates, dtype=float)
        w = math.exp(float(np.dot(beta, z)))
        score = np.zeros(d)
        for p in range(s.n_obs):
            b = block_of[float(s.times[p])]
            resid = int(s.counts[cause - 1][p]) - N[b] / E[b] * w
            score += resid * (z - S1[b] / E[b])
        meat += np.outer(score, score)
    meat /= n
    bread_inv = np.linalg.inv(bread)
    return bread_inv @ meat @ bread_inv / n


def alternating_fit(data, cause, epsilon, max_iter):
    """Maximize the pseudo-likelihood by alternating its two exact
    coordinate steps: the isotonic baseline at fixed beta, then the Newton
    beta step at fixed baseline, until the relative change of the
    objective over a sweep is at most epsilon (the absolute change when
    the objective is 0).  Converges linearly.  Returns beta and the
    profile log-likelihood there, with the baseline refitted at beta.
    """
    beta = np.zeros(data.d)
    baseline = baseline_step(data, cause, beta)
    trace = []
    for _ in range(max_iter):
        beta = beta_step(data, cause, baseline, beta)
        trace.append(log_pseudo_likelihood(data, cause, beta, baseline))
        baseline = baseline_step(data, cause, beta)
        if len(trace) > 1:
            change = abs(trace[-1] - trace[-2])
            denom = abs(trace[-2])
            if (change / denom if denom > 0 else change) <= epsilon:
                return beta, log_pseudo_likelihood(data, cause, beta, baseline)
    raise AssertionError(f"alternating fit did not converge in {max_iter} sweeps")


def take(data, idx):
    """The subjects `idx` (repeats allowed) in that order, as a new dataset
    gathered epoch by epoch from `data.arrays`: the explicit resample that
    a fit with subject weights `np.bincount(idx)` must reproduce."""
    a = data.arrays
    idx = np.asarray(idx)
    bounds = np.searchsorted(a.subj, np.arange(data.n + 1))  # subject i: bounds[i]:bounds[i+1]
    lo = bounds[idx]
    sizes = bounds[idx + 1] - lo
    epochs = np.repeat(lo - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
    arrays = PanelArrays.build(a.t[epochs], np.repeat(np.arange(idx.size), sizes),
                               a.counts[:, epochs], a.Z[idx])
    return PanelDataset._from_arrays(tuple(data.ids[i] for i in idx), arrays)
