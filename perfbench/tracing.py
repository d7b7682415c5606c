"""Spans around public panelmean calls, and the per-layer metrics.

The traced run swaps the public functions the CLI reaches (through the
module globals it looks them up in) for wrappers defined here, so every
span comes from the benchmark's own files and the program is unchanged.
Spans are (id, name, start, end, parent, operation id) and stay in memory
until the run writes them out.  Probes call other public functions
directly, outside any CLI invocation, on the workload's own data.

MOVES says, for each per-layer metric, which end-to-end metric it should
move and on which workload.  A workload that never runs a layer reports
that layer's time, rate and count as 0.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MOVES = {
    "data.parse_s": "solve_s on sandwich_continuous; small on bootstrap_monthly",
    "data.parse_rows_per_s": "solve_s on sandwich_continuous; small on bootstrap_monthly",
    "data.parse_peak_mib": "peak_rss_mib on sandwich_continuous",
    "isotonic.pava_s": "solve_s on sandwich_continuous and simulate_n200; none on bootstrap_monthly",
    "isotonic.r": "solve_s on sandwich_continuous and simulate_n200; none on bootstrap_monthly",
    "estimator.fit_s": "solve_s on all three workloads",
    "estimator.sweeps": "solve_s on all three workloads",
    "estimator.baseline_step_s": "solve_s on bootstrap_monthly and sandwich_continuous",
    "estimator.beta_step_s": "solve_s on bootstrap_monthly and sandwich_continuous",
    "estimator.loglik_eval_s": "solve_s on bootstrap_monthly and sandwich_continuous",
    "inference.sandwich_s": "solve_s on sandwich_continuous",
    "inference.bootstrap_s": "solve_s on bootstrap_monthly",
    "inference.boot_rep_s": "solve_s on bootstrap_monthly",
    "inference.boot_overhead_ratio": "solve_s on bootstrap_monthly "
                                     "(base: estimator.fit_s of the same invocation)",
    "inference.boot_failures": "fail_ratio on bootstrap_monthly (exact count)",
    "simulate.gen_s": "solve_s on simulate_n200",
    "simulate.gen_subjects_per_s": "solve_s on simulate_n200",
    "simulate.fit_share": "solve_s on simulate_n200 (base: gen_s + fit_s on the same streams)",
    "simulate.rep_failures": "fail_ratio on simulate_n200 (exact count)",
    "simulate.rho_clamps": "none; a property of the generated data (exact count)",
    "cli.residual_s": "solve_s on all three workloads",
    "trace.overhead_s": "none; traced minus untraced solve_s of the same run",
}

PROBE_MIN_REPEATS = 3
PROBE_MIN_SECONDS = 0.25  # cheap probes repeat until this much time is measured


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `op` tags every span with its operation id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent, self.op)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if counts is not None:
                    sp.counts.update(counts(result))
                return result
        return traced

    def as_records(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, **s.counts}
            for s in self.spans
        ]


def _fit_counts(fits) -> dict:
    return {"sweeps": sum(cf.iterations for cf in fits)}


# (module, global looked up at call time, span name, counts from the result)
_PATCHES = [
    ("panelmean.cli", "parse_panel_csv", "data.parse_panel_csv", lambda d: {"rows": d.total_obs}),
    ("panelmean.cli", "fit", "estimator.fit", _fit_counts),
    ("panelmean.cli", "sandwich_se", "inference.sandwich_se", None),
    ("panelmean.cli", "bootstrap_se", "inference.bootstrap_se",
     lambda rs: {"failures": rs[0].failures}),
    ("panelmean.cli", "run_study", "simulate.run_study",
     lambda r: {"failures": r.failures, "rho_clamps": r.rho_clamps}),
    ("panelmean.inference", "fit", "estimator.fit", _fit_counts),
    ("panelmean.simulate", "gen_dataset", "simulate.gen_dataset", lambda d: {"subjects": d.n}),
    ("panelmean.simulate", "fit", "estimator.fit", _fit_counts),
]


@contextmanager
def patched(tracer: Tracer):
    """Route the CLI's calls into each layer through the tracer."""
    saved = []
    try:
        for module_name, attr, name, counts in _PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counts))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def invocation_layers(spans: list[Span], root: Span, boot_reps: int) -> dict:
    """Per-layer totals of one traced CLI invocation rooted at `root`."""
    by_id = {s.id: s for s in spans}
    mine = [s for s in spans if s.op == root.op and s.id != root.id]

    def total(name, parents=None, key=None):
        picked = [s for s in mine if s.name == name
                  and (parents is None or by_id[s.parent].name in parents)]
        return sum(s.counts.get(key, 0) if key else s.seconds for s in picked)

    outer = ("cli.invocation", "simulate.run_study")  # not the fits inside bootstrap_se
    parse_s = total("data.parse_panel_csv")
    fit_s = total("estimator.fit", outer)
    gen_s = total("simulate.gen_dataset")
    boot_s = total("inference.bootstrap_se")
    boot_rep_s = (boot_s - fit_s) / boot_reps if boot_s else 0.0
    return {
        "data.parse_s": parse_s,
        "data.parse_rows_per_s": total("data.parse_panel_csv", key="rows") / parse_s if parse_s else 0.0,
        "estimator.fit_s": fit_s,
        "estimator.sweeps": total("estimator.fit", outer, key="sweeps"),
        "inference.sandwich_s": total("inference.sandwich_se"),
        "inference.bootstrap_s": boot_s,
        "inference.boot_rep_s": boot_rep_s,
        "inference.boot_overhead_ratio": boot_rep_s / fit_s if boot_s else 0.0,
        "inference.boot_failures": total("inference.bootstrap_se", key="failures"),
        "simulate.gen_s": gen_s,
        "simulate.gen_subjects_per_s": total("simulate.gen_dataset", key="subjects") / gen_s if gen_s else 0.0,
        "simulate.fit_share": fit_s / (gen_s + fit_s) if gen_s else 0.0,
        "simulate.rep_failures": total("simulate.run_study", key="failures"),
        "simulate.rho_clamps": total("simulate.run_study", key="rho_clamps"),
        "cli.residual_s": root.seconds - sum(s.seconds for s in mine if s.parent == root.id),
    }


def _median_seconds(call) -> float:
    times: list[float] = []
    while len(times) < PROBE_MIN_REPEATS or sum(times) < PROBE_MIN_SECONDS:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_layers(data, csv_path=None) -> dict:
    """Direct calls into isotonic, estimator and data on one dataset.

    y and w for the isotonic probe are the baseline step's inputs at the
    fitted coefficients: aggregate() gives the per-time means and counts,
    and the exposure is the mean exp(beta'z) of the epochs at each time.
    """
    import panelmean as pm

    fits = pm.fit(data)
    epoch_t = np.concatenate([s.times for s in data.subjects])
    epoch_subj = np.repeat(np.arange(data.n), [s.n_obs for s in data.subjects])
    Z = np.array([s.covariates for s in data.subjects]).reshape(data.n, data.d)
    pava_inputs = []
    for cf in fits:
        stats = pm.aggregate(data, cf.cause)
        q = np.searchsorted(stats.times, epoch_t)
        ez = np.exp(Z @ cf.beta)[epoch_subj]
        exposure = np.bincount(q, weights=ez, minlength=stats.r) / stats.n_obs
        pava_inputs.append((stats.mean_count / exposure, stats.n_obs * exposure))
    out = {
        "isotonic.pava_s": _median_seconds(
            lambda: [pm.weighted_isotonic(y, w) for y, w in pava_inputs]),
        "isotonic.r": stats.r,
        "estimator.baseline_step_s": _median_seconds(
            lambda: [pm.baseline_step(data, cf.cause, cf.beta) for cf in fits]),
        "estimator.beta_step_s": _median_seconds(
            lambda: [pm.beta_step(data, cf.cause, cf.baseline, None) for cf in fits]),
        "estimator.loglik_eval_s": _median_seconds(
            lambda: [pm.log_pseudo_likelihood(data, cf.cause, cf.beta, cf.baseline)
                     for cf in fits]),
        "data.parse_peak_mib": 0.0,
    }
    if csv_path is not None:
        tracemalloc.start()
        try:
            pm.parse_panel_csv(csv_path)
            out["data.parse_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return out
