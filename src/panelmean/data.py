"""Domain types and ingestion for multi-mode panel count data.

A panel count dataset holds, per subject, an increasing grid of
observation times, cumulative event counts for each recurrence mode at
those times, and a fixed covariate vector.  The long CSV layout is

    id,time,n1,...,nk,z1,...,zd

with one row per (subject, observation time).  Counts are cumulative
within subject; covariates must be constant within subject.  numpy's
`loadtxt` reads the file; a plain row loop reads again any file it
cannot vouch for, and names the first defect.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, replace
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
        times, counts, covariates = map(np.asarray, (self.times, self.counts, self.covariates))
        if counts.dtype.kind not in "biu":
            raise ValidationError(f"subject {self.id!r}: counts must be integers")
        if times.dtype.kind not in "biuf" or covariates.dtype.kind not in "biuf":
            raise ValidationError(f"subject {self.id!r}: times and covariates must be numbers")
        self.times = np.asarray(times, dtype=float)
        self.counts = np.atleast_2d(np.asarray(counts, dtype=np.int64))
        self.covariates = np.asarray(covariates, dtype=float).reshape(-1)
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
    totals are stored: `estimator._CauseWorkspace` forms them.  Three
    arrays it reads are made once, on first use, and kept: the covariate
    products of its Newton derivatives (`_covariate_products`), each
    covariate's sort order of the subjects (`_covariate_order`) and each
    epoch's covariates (`_epoch_covariates`).
    """

    t: np.ndarray
    subj: np.ndarray
    times: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray
    Z: np.ndarray

    @classmethod
    def build(cls, t, subj, counts, Z, _grid=None) -> "PanelArrays":
        """Derive the grouped arrays from the epoch arrays and freeze them
        all, counts and Z in C order: a fit's last bits depend on Z's memory
        order, and SciPy's sparse kernels copy a strided count row each call.
        `_grid` is `(times, inverse)` where the caller already holds
        `np.unique(t, return_inverse=True)`, as `_dataset` does."""
        times, inverse = np.unique(t, return_inverse=True) if _grid is None else _grid
        arrays = cls(t, subj, times, inverse, np.ascontiguousarray(counts), np.ascontiguousarray(Z))
        for a in vars(arrays).values():
            a.flags.writeable = False
        return arrays

    @cached_property
    def _covariate_products(self) -> np.ndarray:
        """Per subject (a column), z and then the products z_l z_m for
        l <= m in the order of `np.triu_indices(d)`: a read-only
        (d + d(d+1)/2) x n array, written row by row into one array, so
        one matrix-vector product with it gives a weighted sum of z and of
        z z' at once."""
        n, d = self.Z.shape
        products = np.empty((d + d * (d + 1) // 2, n))
        products[:d] = self.Z.T
        rows = iter(products[d:])
        for l in range(d):
            for m in range(l, d):
                np.multiply(products[l], products[m], out=next(rows))
        products.flags.writeable = False
        return products

    @cached_property
    def _covariate_order(self) -> np.ndarray:
        """Per covariate (a row), the subjects in the order of its values:
        a read-only d x n array of argsorts, from which
        `estimator._z_range` reads each column's extremes."""
        order = np.argsort(self.Z.T, axis=1)
        order.flags.writeable = False
        return order

    @cached_property
    def _epoch_covariates(self) -> np.ndarray:
        """Per covariate (a row), its value at each epoch: a read-only d x P
        array, the data of `estimator._CauseWorkspace`'s `z_inc`."""
        z = self.Z.T.take(self.subj, axis=1)  # C order, which indexing would not give
        z.flags.writeable = False
        return z


class PanelDataset:
    """A collection of subjects sharing the same causes and covariates.

    The stored state is the subject ids and the flat `arrays`; `subjects`
    is rebuilt from them on first use.  Datasets are immutable once built.
    """

    def __init__(self, subjects: list[Subject], k: int, d: int):
        if not subjects:
            raise ValidationError("dataset needs at least one subject")
        seen = set()
        for s in subjects:  # ids that write_panel_csv and parse_panel_csv keep as they are
            if not isinstance(s.id, str) or s.id in seen or not s.id or s.id != s.id.strip():
                raise ValidationError(f"subject {s.id!r}: ids must be distinct, non-empty "
                                      "strings without leading or trailing whitespace")
            seen.add(s.id)
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
        bounds = _subject_bounds(a.subj, self.n)
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


def _subject_bounds(subj: np.ndarray, n: int) -> np.ndarray:
    """Where each of the n subjects' epochs start, and where the last ends:
    subject i's epochs are bounds[i]:bounds[i+1] (epochs are grouped by subject)."""
    return np.r_[0, np.bincount(subj, minlength=n).cumsum()]


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
    `n<j>` and the covariates `z<l>`; other columns are ignored.  Subjects
    keep the order of their first row and their rows are sorted by time.
    numpy's `loadtxt` reads a clean file.  A cell it refuses or warns on,
    or any defect, sends the file to a row loop (float() and int(), cell
    by cell); it accepts the same numbers as ever and raises the first
    defect in file order: ParseError (with line number) for a malformed
    row, ValidationError for an invariant violation.
    """
    path = Path(path)
    data = _read_table(path)
    return _read_rows(path) if data is None else data


def _first_non_utf8_line(path: Path) -> int | None:
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


def _header(reader, path: Path) -> tuple[list[str], list[str], list[str]]:
    """The stripped header row, its count columns and its covariate columns."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file, missing header row") from None
    except csv.Error as exc:  # e.g. a field beyond csv's size limit
        raise ParseError(f"{path}: header: {exc}", line=1) from None
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
    return header, count_cols, cov_cols


def _read_table(path: Path) -> PanelDataset | None:
    """The dataset as np.loadtxt reads it; None where the row loop must read it."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            header, count_cols, cov_cols = _header(csv.reader(fh), path)
            kinds = {"time": "f8", **dict.fromkeys(count_cols, "i8"),
                     **dict.fromkeys(cov_cols, "f8")}
            # positional field names: a repeated ignored column must not clash
            dtype = [(f"f{i}", kinds.get(name, object)) for i, name in enumerate(header)]
            with warnings.catch_warnings():
                # numpy 1.24 reads "3.0" as a count, with only a DeprecationWarning
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype, delimiter=",", quotechar='"', comments=None,
                                   ndmin=1)
    except (ValueError, Warning):
        return None
    column = {name: table[f"f{i}"] for i, name in enumerate(header)}
    # each run of raw ids is within one subject's: strip its first id only
    raw = column["id"]
    runs = np.flatnonzero(np.r_[True, raw[1:] != raw[:-1]])
    heads = np.array([sid.strip() for sid in raw[runs]], dtype=object)
    sids = np.repeat(heads, np.diff(np.r_[runs, raw.size]))
    t = column["time"].copy()
    counts = np.array([column[col] for col in count_cols])
    Z = np.array([column[col] for col in cov_cols], dtype=float).reshape(len(cov_cols), t.size).T
    del table, column, raw  # the copies above are all _dataset needs
    if not (all(heads) and np.isfinite(t).all() and np.isfinite(Z).all()) or (counts < 0).any():
        return None
    try:
        # no line numbers here: a defect sends the file to the row loop
        return _dataset(sids, t, counts, Z, lines=np.zeros(t.size, np.intp))
    except ValidationError:
        return None


def _read_rows(path: Path) -> PanelDataset:
    """The dataset as the row loop reads it: rows in file order, and in a
    row its width, id, time, n1..nk and z1..zd; raises the first defect."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header, count_cols, cov_cols = _header(reader, path)
            at = {col: header.index(col) for col in ("id", "time", *count_cols, *cov_cols)}
            sids, lines, t, counts, covs = [], [], [], [], []
            line = 1  # the last line read
            for line, row in enumerate(reader, start=2):
                if not any(map(str.strip, row)):
                    continue
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=line)
                sid = row[at["id"]].strip()
                if not sid:
                    raise ParseError("empty subject id", line=line)
                cell = row[at["time"]]
                if (time := _number(cell, float)) is None:
                    raise ParseError(f"bad time value {cell!r}", line=line)
                for col in count_cols:
                    cell = row[at[col]].strip()
                    if (count := _number(cell, int)) is None or count < 0:
                        what = "bad count value" if count is None else "negative count"
                        raise ParseError(f"{what} {cell!r} in {col}", line=line)
                    counts.append(count)
                for col in cov_cols:
                    cell = row[at[col]].strip()
                    if (z := _number(cell, float)) is None:
                        raise ParseError(f"bad covariate value {cell!r} in {col}", line=line)
                    covs.append(z)
                sids.append(sid)
                lines.append(line)
                t.append(time)
    except UnicodeDecodeError:
        raise ParseError("not valid UTF-8 text", line=_first_non_utf8_line(path)) from None
    except csv.Error as exc:  # reading the row after `line`, e.g. a field beyond csv's size limit
        raise ParseError(str(exc), line=line + 1) from None
    if not sids:
        raise ParseError(f"{path}: no data rows")
    return _dataset(np.array(sids, dtype=object), np.array(t),
                    np.array(counts, np.int64).reshape(len(t), -1).T,
                    np.array(covs, float).reshape(len(t), len(cov_cols)), np.array(lines))


def _number(cell: str, kind: type) -> float | int | None:
    """`cell` read by float() and finite, or by int() and an int64; else None."""
    try:
        x = kind(cell)
    except ValueError:
        return None
    if kind is float:
        return x if math.isfinite(x) else None
    return x if -2**63 <= x < 2**63 else None


def _dataset(sids, t, counts, Z, lines) -> PanelDataset:
    """The dataset of parsed epochs: subjects in order of first appearance,
    each one's epochs sorted by time.  Raises the ValidationError of the
    first defective subject; within a subject, duplicate times come first,
    then covariates unlike its earliest row's, non-positive times and
    decreasing counts, cause by cause.

    Subjects are numbered over the runs of rows that share an id, and the
    epochs ordered by one stable sort of the integer key subject * r +
    rank of time, r the number of distinct times.  Past the np.unique of
    the times, which the dataset keeps, a file grouped by subject and
    sorted by time within it, as write_panel_csv writes it, costs one sort
    of its subject ids and otherwise linear time in its rows."""
    runs = np.flatnonzero(np.r_[True, sids[1:] != sids[:-1]])  # each run's first row
    uniq, first_run, inverse = np.unique(sids[runs], return_index=True, return_inverse=True)
    seen = np.argsort(first_run)  # uniq[seen] are the ids in order of first appearance
    ids = tuple(uniq[seen])
    subj = np.repeat(np.argsort(seen)[inverse], np.diff(np.r_[runs, t.size]))
    times, rank = np.unique(t, return_inverse=True)
    order = np.argsort(subj * times.size + rank, kind="stable")  # by subject, then by time
    t, subj = t[order], subj[order]
    counts, Z = counts.take(order, axis=1), Z[order]  # take keeps counts in C order
    first = np.flatnonzero(np.diff(subj, prepend=-1))  # each subject's earliest epoch
    same = np.r_[False, subj[1:] == subj[:-1]]  # epoch follows one of the same subject
    checks = [
        ("duplicate observation times", same & (t == np.r_[np.nan, t[:-1]])),
        ("covariates vary within subject (line {line})", (Z != Z[first][subj]).any(axis=1)),
        ("observation times must be strictly positive", t <= 0),
    ]
    for j, c in enumerate(counts):
        checks.append((f"cumulative counts for cause {j + 1} decrease",
                       same & (c < np.r_[0, c[:-1]])))
    found = [(subj[e], pos, e) for pos, (_, mask) in enumerate(checks)
             for e in np.flatnonzero(mask)[:1]]
    if found:
        s, pos, e = min(found)
        message = checks[pos][0].format(line=lines[order][e])
        raise ValidationError(f"subject {ids[s]!r}: {message}")
    arrays = PanelArrays.build(t, subj, counts.astype(float), Z[first], _grid=(times, rank[order]))
    return PanelDataset._from_arrays(ids, arrays)


def write_panel_csv(data: PanelDataset, path: str | Path) -> None:
    """Write a dataset in the long CSV format; inverse of parse_panel_csv.

    Times and covariates are written with repr so the round trip is exact.
    """
    a = data.arrays
    counts = a.counts.T.astype(np.int64).tolist()
    covariates = [[repr(z) for z in row] for row in a.Z.tolist()]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time"] + [f"n{j}" for j in range(1, data.k + 1)]
                        + [f"z{l}" for l in range(1, data.d + 1)])
        for i, t, c in zip(a.subj.tolist(), a.t.tolist(), counts):
            writer.writerow([data.ids[i], repr(t), *map(str, c), *covariates[i]])
