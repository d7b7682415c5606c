"""Seeded inputs for the benchmark workloads.

The two `fit` workloads draw their datasets here, with numpy only, so
that a change to `panelmean.simulate` (for example a new draw order in
`gen_dataset`) cannot silently change what they measure.  Counts follow
the proportional mean model exactly: the increments over each visit gap
are Poisson with mean slope_j * gap * exp(beta_j'z), so the cumulative
mean at t is slope_j * t * exp(beta_j'z) and the fitted coefficients
estimate `beta` without bias.

Only `simulate_n200` goes through the library generator, because that
generator is part of what it measures; its input is a config file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class PanelSpec:
    """Shape and truth of one generated panel dataset."""

    n: int
    slopes: tuple[float, ...]  # baseline_j(t) = slope_j * t, one per cause
    beta: tuple[tuple[float, ...], ...]  # one coefficient vector per cause
    grid: str  # "continuous" or "monthly"
    min_visits: int
    max_visits: int

    @property
    def k(self) -> int:
        return len(self.slopes)

    @property
    def d(self) -> int:
        return len(self.beta[0])


# k=3 causes, d=4 covariates, continuous visit times (r ~ rows).
SANDWICH = PanelSpec(
    n=8_000,
    slopes=(0.6, 1.0, 0.4),
    beta=((0.5, -0.4, 0.3, 0.6), (-0.5, 0.3, -0.2, 0.4), (0.3, 0.5, 0.4, -0.6)),
    grid="continuous",
    min_visits=2,
    max_visits=6,
)

# k=2 causes, d=2 covariates, visits on months 1..36 (r <= 36).
MONTHLY = PanelSpec(
    n=2_000,
    slopes=(0.15, 0.25),
    beta=((0.5, -0.5), (-0.3, 0.8)),
    grid="monthly",
    min_visits=2,
    max_visits=8,
)

_MONTHS = 36


def _covariates(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Bernoulli(0.5), N(0, 0.5), U(-1, 1), Bernoulli(0.3) columns, in that
    order, rounded to the 6 decimals written to the CSV."""
    cols = [
        (rng.random(n) < 0.5).astype(float),
        rng.normal(0.0, 0.5, size=n),
        rng.uniform(-1.0, 1.0, size=n),
        (rng.random(n) < 0.3).astype(float),
    ]
    return np.round(np.column_stack(cols[:d]), 6)


def _visit_times(rng: np.random.Generator, spec: PanelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-row subject index and visit time, sorted by subject then time."""
    m = rng.integers(spec.min_visits, spec.max_visits + 1, size=spec.n)
    subj = np.repeat(np.arange(spec.n), m)
    if spec.grid == "continuous":
        gaps = rng.uniform(0.2, 2.0, size=subj.size)
        times = _cumsum_within(gaps, m)
        return subj, np.round(times, 6)
    # m distinct months per subject: the m smallest of 36 random keys
    keys = rng.random((spec.n, _MONTHS))
    rank = np.argsort(np.argsort(keys, axis=1), axis=1)
    chosen = rank < m[:, None]
    rows, months = np.nonzero(chosen)  # row-major: sorted by subject, then month
    return rows, (months + 1).astype(float)


def _cumsum_within(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Cumulative sums restarting at each block of `lengths` rows."""
    total = np.cumsum(values, axis=0)
    ends = np.cumsum(lengths)
    before = np.concatenate([np.zeros((1,) + values.shape[1:]), total[ends[:-1] - 1]])
    return total - np.repeat(before, lengths, axis=0)


def gen_panel(spec: PanelSpec, seed: int) -> dict:
    """Draw one dataset; returns flat rows plus the truth it was drawn from."""
    rng = np.random.default_rng([seed, spec.n, spec.k, spec.d])
    z = _covariates(rng, spec.n, spec.d)
    subj, times = _visit_times(rng, spec)
    m = np.bincount(subj, minlength=spec.n)
    prev = np.concatenate([[0.0], times[:-1]])
    first = np.concatenate([[True], subj[1:] != subj[:-1]])
    gaps = np.where(first, times, times - prev)
    beta = np.array(spec.beta)  # (k, d)
    rate = np.exp(z @ beta.T)[subj] * np.array(spec.slopes) * gaps[:, None]  # (rows, k)
    counts = _cumsum_within(rng.poisson(rate).astype(float), m).astype(np.int64)
    return {"subj": subj, "times": times, "counts": counts, "z": z, "beta": beta}


def write_csv(panel: dict, path: Path) -> None:
    """Long CSV `id,time,n1..nk,z1..zd` as `panelmean fit` reads it.

    Rows are streamed to the file, so writing the input never holds the
    whole text in memory and does not set the run's peak RSS."""
    k = panel["counts"].shape[1]
    d = panel["z"].shape[1]
    header = ["id", "time"] + [f"n{j}" for j in range(1, k + 1)] + [f"z{l}" for l in range(1, d + 1)]
    rows = zip(panel["subj"].tolist(), panel["times"].tolist(), panel["counts"].tolist())
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        zrow, last = "", -1
        for i, t, c in rows:
            if i != last:  # rows are grouped by subject
                zrow, last = ",".join(f"{v:.6f}" for v in panel["z"][i]), i
            out.write(f"{i + 1},{t:.6f},{','.join(map(str, c))},{zrow}\n")


# Table 1 of the paper, as SimConfig fields.  The study seed is the
# benchmark seed.
TABLE1 = {"n": 200, "beta1": (0.5, 1.0), "beta2": (-1.0, 0.5),
          "baseline1": "t", "baseline2": "2t", "rho": 0.5}
STUDY_REPLICATIONS = 30


def write_study_config(seed: int, path: Path) -> None:
    """`panelmean simulate` config for a Table 1 study."""
    lines = [f"{key} = {','.join(map(str, v)) if isinstance(v, tuple) else v}"
             for key, v in TABLE1.items()]
    lines += [f"replications = {STUDY_REPLICATIONS}", f"seed = {seed}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
