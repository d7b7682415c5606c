"""Domain types and ingestion for multi-mode panel count data.

A panel count dataset holds, per subject, an increasing grid of
observation times, cumulative event counts for each recurrence mode at
those times, and a fixed covariate vector.  The long CSV layout is

    id,time,n1,...,nk,z1,...,zd

with one row per (subject, observation time).  Counts are cumulative
within subject; covariates must be constant within subject.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError


@dataclass
class Subject:
    """One subject: observation grid, per-cause cumulative counts, covariates.

    counts has shape (k, m) where m = len(times); counts[j - 1, p] is the
    cumulative number of type-j events at times[p].
    """

    id: str
    times: np.ndarray
    counts: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.counts = np.atleast_2d(np.asarray(self.counts, dtype=np.int64))
        self.covariates = np.asarray(self.covariates, dtype=float).reshape(-1)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValidationError(f"subject {self.id!r}: needs at least one observation time")
        # plain-float isfinite: numpy calls cost more on arrays this small
        if not all(map(math.isfinite, self.times.tolist() + self.covariates.tolist())):
            raise ValidationError(f"subject {self.id!r}: times and covariates must be finite")
        if np.any(self.times <= 0):
            raise ValidationError(f"subject {self.id!r}: observation times must be strictly positive")
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError(f"subject {self.id!r}: observation times must be strictly increasing")
        if self.counts.shape[1] != self.times.size:
            raise ValidationError(
                f"subject {self.id!r}: every cause needs {self.times.size} count entries, "
                f"got {self.counts.shape[1]}"
            )
        if np.any(self.counts < 0):
            raise ValidationError(f"subject {self.id!r}: counts must be non-negative")
        for j in range(self.counts.shape[0]):
            if np.any(np.diff(self.counts[j]) < 0):
                raise ValidationError(
                    f"subject {self.id!r}: cumulative counts for cause {j + 1} decrease"
                )

    @property
    def n_obs(self) -> int:
        return self.times.size

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.size


@dataclass(frozen=True)
class PanelArrays:
    """Read-only flat arrays of a dataset, shared by every cause and layer.

    An epoch is one (subject, observation) pair, in dataset order: `t` is
    its time, `subj` its subject and `inverse` its index in the distinct
    `times`.  Rows of `counts` (k x P), `count_sum` (k x n, per-subject
    totals) and `mean_count` (k x r, per-time means) are indexed by cause - 1.
    """

    t: np.ndarray
    subj: np.ndarray
    times: np.ndarray
    inverse: np.ndarray
    n_obs: np.ndarray
    counts: np.ndarray
    Z: np.ndarray
    count_sum: np.ndarray
    mean_count: np.ndarray


@dataclass
class PanelDataset:
    """A collection of subjects sharing the same causes and covariates.

    Datasets are immutable once built, because `arrays` is cached.
    """

    subjects: list[Subject]
    k: int
    d: int

    def __post_init__(self):
        if not self.subjects:
            raise ValidationError("dataset needs at least one subject")
        for s in self.subjects:
            if s.k != self.k:
                raise ValidationError(f"subject {s.id!r}: has {s.k} causes, dataset declares {self.k}")
            if s.d != self.d:
                raise ValidationError(
                    f"subject {s.id!r}: has {s.d} covariates, dataset declares {self.d}"
                )

    @property
    def n(self) -> int:
        return len(self.subjects)

    @property
    def total_obs(self) -> int:
        return sum(s.n_obs for s in self.subjects)

    @cached_property
    def arrays(self) -> PanelArrays:
        """Flat epoch arrays, built on first use."""
        t = np.concatenate([s.times for s in self.subjects])
        subj = np.repeat(np.arange(self.n), [s.n_obs for s in self.subjects])
        counts = np.concatenate([s.counts for s in self.subjects], axis=1).astype(float)
        times, inverse = np.unique(t, return_inverse=True)
        n_obs = np.bincount(inverse)
        Z = np.array([s.covariates for s in self.subjects], dtype=float).reshape(self.n, self.d)
        count_sum = np.array([np.bincount(subj, weights=c, minlength=self.n) for c in counts])
        mean_count = np.array([np.bincount(inverse, weights=c) / n_obs for c in counts])
        arrays = PanelArrays(t, subj, times, inverse, n_obs, counts, Z, count_sum, mean_count)
        for a in vars(arrays).values():
            a.flags.writeable = False
        return arrays

    def select_cause(self, cause: int) -> "PanelDataset":
        """Single-cause view of the dataset (counts restricted to `cause`)."""
        _check_cause(self, cause)
        subs = [
            Subject(s.id, s.times.copy(), s.counts[cause - 1 : cause].copy(), s.covariates.copy())
            for s in self.subjects
        ]
        return PanelDataset(subs, k=1, d=self.d)


@dataclass
class GroupedStats:
    """Per-cause statistics on the pooled grid of distinct observation times.

    For each distinct time, `n_obs` counts the observations made there
    and `mean_count` averages the cumulative cause counts over those
    observations.  The epochs behind each time are in `PanelArrays`.
    """

    cause: int
    times: np.ndarray
    n_obs: np.ndarray
    mean_count: np.ndarray

    @property
    def r(self) -> int:
        return self.times.size


@dataclass
class CsvSchema:
    """Column configuration for the long CSV format.

    When count_cols / covariate_cols are None they are inferred from the
    header: count columns match ``n<digits>``, covariate columns match
    ``z<digits>``.  time_decimals optionally rounds parsed times so that
    noisy real-world grids collapse to shared distinct values.
    """

    id_col: str = "id"
    time_col: str = "time"
    count_cols: list[str] | None = None
    covariate_cols: list[str] | None = None
    time_decimals: int | None = None


def _check_cause(data: PanelDataset, cause: int) -> None:
    if not 1 <= cause <= data.k:
        raise ValueError(f"cause must be in 1..{data.k}, got {cause}")


def _finite_float(cell: str) -> float:
    """float(cell), raising ValueError for nan and inf as for non-numbers."""
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(cell)
    return x


def _infer_columns(header: list[str], schema: CsvSchema) -> tuple[list[str], list[str]]:
    count_cols = schema.count_cols
    cov_cols = schema.covariate_cols
    if count_cols is None:
        count_cols = sorted(
            (c for c in header if re.fullmatch(r"n\d+", c)), key=lambda c: int(c[1:])
        )
    if cov_cols is None:
        cov_cols = sorted(
            (c for c in header if re.fullmatch(r"z\d+", c)), key=lambda c: int(c[1:])
        )
    return count_cols, cov_cols


def parse_panel_csv(path: str | Path, schema: CsvSchema | None = None) -> PanelDataset:
    """Read a long-format panel count CSV into a validated PanelDataset.

    Rows are grouped by subject id and sorted by time within subject.
    Raises ParseError (with line number) for malformed rows and
    ValidationError for invariant violations.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, missing header row") from None
        header = [c.strip() for c in header]
        for col in (schema.id_col, schema.time_col):
            if col not in header:
                raise ParseError(f"{path}: missing required column {col!r} in header")
        count_cols, cov_cols = _infer_columns(header, schema)
        if not count_cols:
            raise ParseError(f"{path}: no count columns found (expected n1,...,nk)")
        for col in count_cols + cov_cols:
            if col not in header:
                raise ParseError(f"{path}: column {col!r} not in header")
        idx = {c: header.index(c) for c in header}

        rows: dict[str, list[tuple[float, list[int], list[float], int]]] = {}
        order: list[str] = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw or all(not c.strip() for c in raw):
                continue
            if len(raw) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(raw)}", line=lineno
                )
            sid = raw[idx[schema.id_col]].strip()
            if not sid:
                raise ParseError("empty subject id", line=lineno)
            try:
                t = _finite_float(raw[idx[schema.time_col]])
            except ValueError:
                raise ParseError(
                    f"bad time value {raw[idx[schema.time_col]]!r}", line=lineno
                ) from None
            if schema.time_decimals is not None:
                t = round(t, schema.time_decimals)
            counts = []
            for col in count_cols:
                cell = raw[idx[col]].strip()
                try:
                    counts.append(int(cell))
                except ValueError:
                    raise ParseError(f"bad count value {cell!r} in {col}", line=lineno) from None
                if counts[-1] < 0:
                    raise ParseError(f"negative count {cell!r} in {col}", line=lineno)
            covs = []
            for col in cov_cols:
                cell = raw[idx[col]].strip()
                try:
                    covs.append(_finite_float(cell))
                except ValueError:
                    raise ParseError(
                        f"bad covariate value {cell!r} in {col}", line=lineno
                    ) from None
            if sid not in rows:
                rows[sid] = []
                order.append(sid)
            rows[sid].append((t, counts, covs, lineno))

    if not rows:
        raise ParseError(f"{path}: no data rows")

    subjects = []
    for sid in order:
        recs = sorted(rows[sid], key=lambda r: r[0])
        times = [r[0] for r in recs]
        if len(set(times)) != len(times):
            raise ValidationError(f"subject {sid!r}: duplicate observation times")
        first_cov = recs[0][2]
        for t, _, cov, lineno in recs:
            if cov != first_cov:
                raise ValidationError(
                    f"subject {sid!r}: covariates vary within subject (line {lineno})"
                )
        counts = np.array([r[1] for r in recs], dtype=np.int64).T
        subjects.append(Subject(sid, np.array(times), counts, np.array(first_cov)))

    return PanelDataset(subjects, k=len(count_cols), d=len(cov_cols))


def write_panel_csv(data: PanelDataset, path: str | Path, schema: CsvSchema | None = None) -> None:
    """Write a dataset in the long CSV format; inverse of parse_panel_csv.

    Times and covariates are written with repr so the round trip is exact.
    """
    schema = schema or CsvSchema()
    count_cols = schema.count_cols or [f"n{j}" for j in range(1, data.k + 1)]
    cov_cols = schema.covariate_cols or [f"z{l}" for l in range(1, data.d + 1)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema.id_col, schema.time_col] + count_cols + cov_cols)
        for s in data.subjects:
            for p in range(s.n_obs):
                row = [s.id, repr(float(s.times[p]))]
                row += [str(int(c)) for c in s.counts[:, p]]
                row += [repr(float(z)) for z in s.covariates]
                writer.writerow(row)


def aggregate(data: PanelDataset, cause: int) -> GroupedStats:
    """Group all observation epochs by distinct time for one cause.

    Every epoch records counts for all causes at once, so the distinct
    times and per-time observation counts are shared across causes; only
    the count means are cause-specific.
    """
    _check_cause(data, cause)
    a = data.arrays
    return GroupedStats(cause, a.times, a.n_obs, a.mean_count[cause - 1])
