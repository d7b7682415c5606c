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
import itertools
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

_CHUNK_ROWS = 4096  # rows converted per chunk while parsing


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
    `times`.  Epochs are grouped by subject and sorted by time within it.
    Rows of `counts` (k x P) are indexed by cause - 1.  No per-cause
    totals are stored: `estimator._CauseWorkspace` forms them.
    """

    t: np.ndarray
    subj: np.ndarray
    times: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray
    Z: np.ndarray

    @classmethod
    def build(cls, t, subj, counts, Z) -> "PanelArrays":
        """Derive the grouped arrays from the epoch arrays and freeze them all."""
        times, inverse = np.unique(t, return_inverse=True)
        arrays = cls(t, subj, times, inverse, counts, Z)
        for a in vars(arrays).values():
            a.flags.writeable = False
        return arrays


class PanelDataset:
    """A collection of subjects sharing the same causes and covariates.

    The stored state is the subject ids and the flat `arrays`; `subjects`
    is rebuilt from them on first use.  Datasets are immutable once built.
    """

    def __init__(self, subjects: list[Subject], k: int, d: int):
        if not subjects:
            raise ValidationError("dataset needs at least one subject")
        for s in subjects:
            if s.k != k:
                raise ValidationError(f"subject {s.id!r}: has {s.k} causes, dataset declares {k}")
            if s.d != d:
                raise ValidationError(
                    f"subject {s.id!r}: has {s.d} covariates, dataset declares {d}"
                )
        n = len(subjects)
        self.ids = tuple(s.id for s in subjects)
        self.arrays = PanelArrays.build(
            np.concatenate([s.times for s in subjects]),
            np.repeat(np.arange(n), [s.n_obs for s in subjects]),
            np.concatenate([s.counts for s in subjects], axis=1).astype(float),
            np.array([s.covariates for s in subjects], dtype=float).reshape(n, d),
        )

    @classmethod
    def _from_arrays(cls, ids: tuple[str, ...], arrays: PanelArrays) -> "PanelDataset":
        """Dataset over already validated flat arrays, one id per subject."""
        data = cls.__new__(cls)
        data.ids = ids
        data.arrays = arrays
        return data

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def k(self) -> int:
        return self.arrays.counts.shape[0]

    @property
    def d(self) -> int:
        return self.arrays.Z.shape[1]

    @property
    def total_obs(self) -> int:
        return self.arrays.t.size

    @cached_property
    def subjects(self) -> list[Subject]:
        """Per-subject view of the arrays, built on first use."""
        a = self.arrays
        counts = a.counts.astype(np.int64)
        counts.flags.writeable = False
        bounds = np.searchsorted(a.subj, np.arange(self.n + 1))  # subject i: bounds[i]:bounds[i+1]
        spans = zip(bounds[:-1], bounds[1:])
        return [
            Subject(sid, a.t[lo:hi], counts[:, lo:hi], a.Z[i])
            for i, (sid, (lo, hi)) in enumerate(zip(self.ids, spans))
        ]

    def select_cause(self, cause: int) -> "PanelDataset":
        """Single-cause view of the dataset (counts restricted to `cause`)."""
        _check_cause(self, cause)
        a = self.arrays
        return PanelDataset._from_arrays(self.ids, replace(a, counts=a.counts[cause - 1:cause]))


def _check_cause(data: PanelDataset, cause: int) -> None:
    if not 1 <= cause <= data.k:
        raise ValueError(f"cause must be in 1..{data.k}, got {cause}")


def _numbered(header: list[str], letter: str, what: str, path: Path) -> list[str]:
    """Header columns named `letter` followed by digits, in numeric order;
    a ParseError unless they are numbered 1..m, each once (n01 repeats n1)."""
    cols = sorted((c for c in header if re.fullmatch(letter + r"\d+", c)),
                  key=lambda c: int(c[1:]))
    for j, (prev, col) in enumerate(zip([None, *cols], cols), start=1):
        if prev is not None and int(col[1:]) == int(prev[1:]):
            again = "" if col == prev else f" (repeats {prev!r})"
            raise ParseError(f"{path}: duplicate column {col!r}{again}")
        if int(col[1:]) != j:
            expected = f"{what} columns must be {letter}1..{letter}{len(cols)}"
            if int(col[1:]) < j:  # only n0 / z0 sort below their place
                raise ParseError(f"{path}: {expected}, got {col!r}")
            raise ParseError(f"{path}: {expected}, missing '{letter}{j}'")
    return cols


def parse_panel_csv(path: str | Path) -> PanelDataset:
    """Read a long-format panel count CSV into a validated PanelDataset.

    Columns are found by name, in any order: `id`, `time`, the counts
    `n<j>` and the covariates `z<l>`; other columns are ignored.  Rows are
    read in chunks of _CHUNK_ROWS and converted column by column into the
    flat arrays; subjects keep the order of their first row and
    their rows are sorted by time.  Raises ParseError (with line number)
    for malformed rows and ValidationError for invariant violations; of
    several defects, the first in file order is reported.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            return _parse_rows(csv.reader(fh), path)
        except UnicodeDecodeError:
            raise ParseError("not valid UTF-8 text", line=_first_non_utf8_line(path)) from None


def _first_non_utf8_line(path: Path) -> int | None:
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


def _parse_rows(reader, path: Path) -> PanelDataset:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file, missing header row") from None
    header = [c.strip() for c in header]
    for col in ("id", "time"):
        if col not in header:
            raise ParseError(f"{path}: missing required column {col!r} in header")
        if header.count(col) > 1:
            raise ParseError(f"{path}: duplicate column {col!r}")
    count_cols = _numbered(header, "n", "count", path)
    cov_cols = _numbered(header, "z", "covariate", path)
    if not count_cols:
        raise ParseError(f"{path}: no count columns found (expected n1,...,nk)")

    code: dict[str, int] = {}  # subject id -> index, in order of first appearance
    subjs, lines, ts, counts, covs = [], [], [], [], []
    first_line = 2
    while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
        keep = [i for i, raw in enumerate(chunk) if any(map(str.strip, raw))]
        chunk_lines = first_line + np.array(keep, dtype=np.int64)
        first_line += len(chunk)
        chunk_ids, t, c, z = _parse_chunk([chunk[i] for i in keep], chunk_lines, header,
                                             count_cols, cov_cols)
        for sid in dict.fromkeys(chunk_ids):
            code.setdefault(sid, len(code))
        subjs.append(np.fromiter(map(code.__getitem__, chunk_ids), np.intp, len(chunk_ids)))
        lines.append(chunk_lines)
        ts.append(t)
        counts.append(c)
        covs.append(z)
    if not code:
        raise ParseError(f"{path}: no data rows")

    t = np.concatenate(ts)
    subj = np.concatenate(subjs)
    order = np.lexsort((t, subj))  # by subject, then by time
    t, subj = t[order], subj[order]
    counts = np.concatenate(counts, axis=1)[:, order]
    Z = np.concatenate(covs)[order]
    ids = tuple(code)
    first = np.flatnonzero(np.diff(subj, prepend=-1))  # each subject's earliest epoch
    _check_subjects(ids, subj, t, counts, Z != Z[first][subj], np.concatenate(lines)[order])
    return PanelDataset._from_arrays(ids, PanelArrays.build(t, subj, counts.astype(float), Z[first]))


def _converts(cell: str, conv, dtype) -> bool:
    try:
        np.array(conv(cell), dtype=dtype)
    except (ValueError, OverflowError):
        return False
    return True


def _convert(cells: tuple[str, ...], conv, dtype) -> tuple[np.ndarray, int]:
    """`cells` converted by `conv` up to the first one it rejects, and that
    cell's index (len(cells) if none)."""
    try:
        return np.fromiter(map(conv, cells), dtype, len(cells)), len(cells)
    except (ValueError, OverflowError):
        bad = next(i for i, cell in enumerate(cells) if not _converts(cell, conv, dtype))
        return np.fromiter(map(conv, cells[:bad]), dtype, bad), bad


def _parse_chunk(rows: list[list[str]], lines: np.ndarray, header: list[str],
                 count_cols: list[str], cov_cols: list[str]):
    """ids, times, counts (k x m) and covariates (m x d) of one chunk of
    non-blank rows; raises the ParseError of its first defect in file
    order (and within a row, in column order)."""
    defects = []  # (row, position in row, message)
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    wrong = np.flatnonzero(lengths != len(header))
    if wrong.size:
        defects.append((wrong[0], -1, f"expected {len(header)} fields, got {lengths[wrong[0]]}"))
        rows = rows[: wrong[0]]
    cols = list(zip(*rows)) or [()] * len(header)

    def column(name):
        return cols[header.index(name)]

    def floats(cells, position, message):
        x, bad = _convert(cells, float, float)
        nonfinite = np.flatnonzero(~np.isfinite(x))  # x holds only cells[:bad]
        if nonfinite.size:
            bad = nonfinite[0]
        if bad < len(cells):
            defects.append((bad, position, message(cells[bad])))
        return x

    sids = [c.strip() for c in column("id")]
    if "" in sids:
        defects.append((sids.index(""), 0, "empty subject id"))
    t = floats(column("time"), 1, lambda cell: f"bad time value {cell!r}")
    counts = []
    for j, col in enumerate(count_cols):
        cells = column(col)
        c, bad = _convert(cells, int, np.int64)
        if bad < len(cells):
            defects.append((bad, 2 + j, f"bad count value {cells[bad].strip()!r} in {col}"))
        negative = np.flatnonzero(c < 0)
        if negative.size:
            row = negative[0]
            defects.append((row, 2 + j, f"negative count {cells[row].strip()!r} in {col}"))
        counts.append(c)
    covs = [
        floats(column(col), 2 + len(count_cols) + l,
               lambda cell, col=col: f"bad covariate value {cell.strip()!r} in {col}")
        for l, col in enumerate(cov_cols)
    ]

    if defects:
        row, _, message = min(defects)
        raise ParseError(message, line=int(lines[row]))
    Z = np.column_stack(covs) if covs else np.empty((len(rows), 0))
    return sids, t, np.array(counts), Z


def _check_subjects(ids, subj, t, counts, cov_differs, lines) -> None:
    """Raise the ValidationError of the first defective subject, in order
    of first appearance.  Epochs are grouped by subject and sorted by time;
    `cov_differs` flags covariates unlike the subject's earliest row.
    Within a subject, duplicate times come first, then varying covariates,
    non-positive times and decreasing counts, cause by cause."""
    same = np.r_[False, subj[1:] == subj[:-1]]  # epoch follows one of the same subject
    checks = [
        ("duplicate observation times", same & (t == np.r_[np.nan, t[:-1]])),
        ("covariates vary within subject (line {line})", cov_differs.any(axis=1)),
        ("observation times must be strictly positive", t <= 0),
    ]
    for j, c in enumerate(counts):
        checks.append((f"cumulative counts for cause {j + 1} decrease",
                       same & (c < np.r_[0, c[:-1]])))
    found = [(subj[e], pos, e) for pos, (_, mask) in enumerate(checks)
             for e in np.flatnonzero(mask)[:1]]
    if found:
        s, pos, e = min(found)
        message = checks[pos][0].format(line=lines[e])
        raise ValidationError(f"subject {ids[s]!r}: {message}")


def write_panel_csv(data: PanelDataset, path: str | Path) -> None:
    """Write a dataset in the long CSV format; inverse of parse_panel_csv.

    Times and covariates are written with repr so the round trip is exact.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time"] + [f"n{j}" for j in range(1, data.k + 1)]
                        + [f"z{l}" for l in range(1, data.d + 1)])
        for s in data.subjects:
            for p in range(s.n_obs):
                row = [s.id, repr(float(s.times[p]))]
                row += [str(int(c)) for c in s.counts[:, p]]
                row += [repr(float(z)) for z in s.covariates]
                writer.writerow(row)

