import csv
import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import panelmean.data
from panelmean import (
    PanelDataset,
    ParseError,
    SimConfig,
    Subject,
    ValidationError,
    aggregate,
    gen_dataset,
    parse_panel_csv,
    write_panel_csv,
)

from _oracles import row_by_row_parse, tally_grouped
from conftest import epoch_members, random_small_dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParse:
    def test_minimal_single_subject(self, tmp_path):
        path = write(tmp_path, "id,time,n1,z1\na,2,1,1\na,5,3,1\n")
        data = parse_panel_csv(path)
        assert (data.n, data.k, data.d) == (1, 1, 1)
        s = data.subjects[0]
        np.testing.assert_array_equal(s.times, [2.0, 5.0])
        np.testing.assert_array_equal(s.counts, [[1, 3]])
        np.testing.assert_array_equal(s.covariates, [1.0])

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs write one at the start of "CSV UTF-8" files
        text = "id,time,n1,z1\na,2,1,1\na,5,3,1\nb,4,0,-2\n"
        with_bom = parse_panel_csv(write(tmp_path, "\ufeff" + text, name="bom.csv"))
        assert_same_arrays(with_bom, parse_panel_csv(write(tmp_path, text)))

    @pytest.mark.parametrize("header, missing", [("time,n1", "id"), ("id,n1", "time")])
    def test_missing_required_column_rejected(self, tmp_path, header, missing):
        path = write(tmp_path, f"{header}\na,1\n")
        with pytest.raises(ParseError, match=f"missing required column '{missing}' in header"):
            parse_panel_csv(path)

    def test_no_count_columns_rejected(self, tmp_path):
        path = write(tmp_path, "id,time,z1\na,1,0\n")
        with pytest.raises(ParseError, match=r"no count columns found \(expected n1,...,nk\)"):
            parse_panel_csv(path)

    def test_decreasing_counts_rejected(self, tmp_path):
        path = write(tmp_path, "id,time,n1,z1\na,2,3,1\na,5,1,1\n")
        with pytest.raises(ValidationError, match="cause 1"):
            parse_panel_csv(path)

    def test_three_subject_two_cause_fixture(self, tmp_path):
        text = (
            "id,time,n1,n2,z1,z2\n"
            "s1,1,0,1,1,0.5\n"
            "s1,4,2,1,1,0.5\n"
            "s1,9,2,3,1,0.5\n"
            "s2,4,1,0,0,-1.0\n"
            "s2,6,4,0,0,-1.0\n"
            "s3,2,5,2,1,2.0\n"
        )
        data = parse_panel_csv(write(tmp_path, text))
        assert (data.n, data.k, data.d) == (3, 2, 2)
        assert sorted(s.n_obs for s in data.subjects) == [1, 2, 3]
        s1 = data.subjects[0]
        assert s1.id == "s1"
        np.testing.assert_array_equal(s1.times, [1.0, 4.0, 9.0])
        np.testing.assert_array_equal(s1.counts, [[0, 2, 2], [1, 1, 3]])
        np.testing.assert_array_equal(s1.covariates, [1.0, 0.5])
        s2 = data.subjects[1]
        np.testing.assert_array_equal(s2.times, [4.0, 6.0])
        np.testing.assert_array_equal(s2.counts, [[1, 4], [0, 0]])
        s3 = data.subjects[2]
        np.testing.assert_array_equal(s3.counts, [[5], [2]])
        np.testing.assert_array_equal(s3.covariates, [1.0, 2.0])

    def test_rows_sorted_by_time_within_subject(self, tmp_path):
        path = write(tmp_path, "id,time,n1,z1\na,5,3,1\na,2,1,1\n")
        data = parse_panel_csv(path)
        np.testing.assert_array_equal(data.subjects[0].times, [2.0, 5.0])
        np.testing.assert_array_equal(data.subjects[0].counts, [[1, 3]])

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "id,time,n1,z1\na,2,1,1\na,xx,2,1\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_panel_csv(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = write(tmp_path, "id,time,n1,z1\na,2,1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_panel_csv(path)

    def test_varying_covariates_rejected(self, tmp_path):
        path = write(tmp_path, "id,time,n1,z1\na,2,1,1\na,5,3,2\n")
        with pytest.raises(ValidationError, match="covariates vary"):
            parse_panel_csv(path)

    @pytest.mark.parametrize("row,bad", [
        ("a,nan,2,1", "time value 'nan'"),
        ("a,inf,2,1", "time value 'inf'"),
        ("a,5,2,nan", "covariate value 'nan'"),
        ("a,5,2,-inf", "covariate value '-inf'"),
    ])
    def test_non_finite_time_or_covariate_reports_line(self, tmp_path, row, bad):
        path = write(tmp_path, f"id,time,n1,z1\na,2,1,1\n{row}\n")
        with pytest.raises(ParseError, match=f"line 3: bad {bad}"):
            parse_panel_csv(path)

    def test_empty_file_names_header(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ParseError, match="header"):
            parse_panel_csv(path)

    def test_negative_count_rejected(self, tmp_path):
        path = write(tmp_path, "id,time,n1,z1\na,2,-1,1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_panel_csv(path)

    @pytest.mark.parametrize("text,line", [
        # a defect further down sends the file to the row loop
        ("id,time,n1,z1\nb,1,0,1\n{long},2,1,1\na,x,2,1\n", 3),
        ("id,time,n1,z1\n{long},1,0,1\na,x,2,1\n", 2),
        ("id,time,n1,z1,{long}\na,1,0,1,x\n", 1),
    ], ids=["row", "first row", "header"])
    def test_field_beyond_the_csv_limit_reports_line(self, tmp_path, text, line):
        path = write(tmp_path, text.format(long="x" * 200_000))
        with pytest.raises(ParseError, match=f"^line {line}: .*field larger than field limit"):
            parse_panel_csv(path)

    def test_duplicate_times_rejected(self, tmp_path):
        path = write(tmp_path, "id,time,n1,z1\na,2,1,1\na,2,2,1\n")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_panel_csv(path)

    @pytest.mark.parametrize("header,message", [
        ("id,time,n1,n1,z1", "duplicate column 'n1'"),
        ("id,time,n1,n01,z1", "duplicate column 'n01' (repeats 'n1')"),
        ("id,time,n1,z1,z1", "duplicate column 'z1'"),
        ("id,time,n1,n3,z1", "count columns must be n1..n2, missing 'n2'"),
        ("id,time,n1,z1,z3", "covariate columns must be z1..z2, missing 'z2'"),
        ("id,time,n0,n1,z1", "count columns must be n1..n2, got 'n0'"),
        ("id,time,time,n1,z1", "duplicate column 'time'"),
    ], ids=["n-repeat", "n-zero-padded-repeat", "z-repeat", "n-gap", "z-gap", "n-zero",
            "time-repeat"])
    def test_repeated_or_skipped_columns_rejected_by_name(self, tmp_path, header, message):
        path = write(tmp_path, f"{header}\na,2,1,1,1\n")
        with pytest.raises(ParseError) as caught:
            parse_panel_csv(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_columns_in_any_order_keep_their_numbers(self, tmp_path):
        path = write(tmp_path, "z1,n2,id,time,n1\n0.5,3,a,2,1\n")
        data = parse_panel_csv(path)
        np.testing.assert_array_equal(data.arrays.counts, [[1], [3]])

    def test_no_covariate_dataset_is_legal(self, tmp_path):
        path = write(tmp_path, "id,time,n1\na,2,1\na,5,3\n")
        data = parse_panel_csv(path)
        assert (data.k, data.d) == (1, 0)

    @pytest.mark.parametrize("text,error,message", [
        # a later row's defect in an earlier column loses to an earlier row's
        ("a,2,1,x\nb,zz,1,1\n", ParseError, "line 2: bad covariate value 'x' in z1"),
        ("a,2,1,1\nb,zz,1,1\nc,2\n", ParseError, "line 3: bad time value 'zz'"),
        ("a,2\nb,zz,1,1\n", ParseError, "line 2: expected 4 fields, got 2"),
        ("a,2,-1,x\n", ParseError, "line 2: negative count '-1' in n1"),
        # any row defect before any subject defect
        ("a,2,1,1\na,2,1,1\nb,5,1,\n", ParseError, "line 4: bad covariate value '' in z1"),
        # subjects in order of first appearance, each checked in full
        ("b,2,3,1\na,2,1,1\na,2,1,1\nb,3,1,1\n", ValidationError,
         "subject 'b': cumulative counts for cause 1 decrease"),
        ("a,3,1,2\na,3,1,1\na,1,1,1\n", ValidationError, "subject 'a': duplicate"),
        ("a,3,0,2\na,2,1,1\na,1,1,1\n", ValidationError, r"vary within subject \(line 2\)"),
    ])
    def test_first_defect_in_file_order_wins(self, tmp_path, text, error, message):
        path = write(tmp_path, "id,time,n1,z1\n" + text)
        with pytest.raises(error, match=message):
            parse_panel_csv(path)


class TestSubjectInvariants:
    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            Subject("a", [0.0, 1.0], [[0, 1]], [1.0])

    @pytest.mark.parametrize("times,z", [([1.0, np.nan], [1.0]), ([1.0, np.inf], [1.0]),
                                         ([1.0, 2.0], [np.nan]), ([1.0, 2.0], [-np.inf])])
    def test_non_finite_times_or_covariates_rejected(self, times, z):
        with pytest.raises(ValidationError, match="finite"):
            Subject("a", times, [[0, 1]], z)

    @pytest.mark.parametrize("times,counts,z,message", [
        ([1.0, 2.0], [[1.5, 2.7]], [0.0], "counts must be integers"),
        ([1.0, 2.0], [[0.0, np.nan]], [0.0], "counts must be integers"),
        ([1.0, 2.0], [[0.0, 1e30]], [0.0], "counts must be integers"),
        ([1.0, 2.0], [[0, 10**30]], [0.0], "counts must be integers"),
        ([1.0, 2.0], [[1.0, 2.0]], [0.0], "counts must be integers"),
        ([1.0, 2.0], [["0", "1"]], [0.0], "counts must be integers"),
        (["1", "2"], [[0, 1]], [0.0], "times and covariates must be numbers"),
        ([1.0, None], [[0, 1]], [0.0], "times and covariates must be numbers"),
        ([1.0, 2.0], [[0, 1]], ["x"], "times and covariates must be numbers"),
    ])
    def test_counts_not_integers_or_values_not_numbers_rejected(self, times, counts, z, message):
        with pytest.raises(ValidationError, match=message):
            Subject("a", times, counts, z)

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValidationError, match="subject 'a': observation times must be "
                                                  "strictly increasing"):
            Subject("a", [2.0, 1.0], [[0, 1]], [1.0])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError, match="subject 'a': counts must be non-negative"):
            Subject("a", [1.0, 2.0], [[-1, 0]], [1.0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="dataset needs at least one subject"):
            PanelDataset([], k=1, d=1)

    def test_covariate_count_mismatch_rejected(self):
        a = Subject("a", [1.0], [[1]], [1.0, 2.0])
        with pytest.raises(ValidationError, match="subject 'a': has 2 covariates, "
                                                  "dataset declares 1"):
            PanelDataset([a], k=1, d=1)

    def test_count_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="count entries"):
            Subject("a", [1.0, 2.0], [[0, 1, 2]], [1.0])

    def test_mixed_k_rejected(self):
        a = Subject("a", [1.0], [[1]], [1.0])
        b = Subject("b", [1.0], [[1], [2]], [1.0])
        with pytest.raises(ValidationError, match="causes"):
            PanelDataset([a, b], k=1, d=1)

    # a dataset's ids are what write_panel_csv writes and parse_panel_csv
    # reads back: distinct, non-empty strings without outer whitespace
    @staticmethod
    def rejected(subjects, sid):
        message = re.escape(f"subject {sid!r}: ids must be distinct, non-empty strings")
        with pytest.raises(ValidationError, match=message):
            PanelDataset(subjects, k=1, d=subjects[0].d)

    def test_duplicate_id_rejected(self):
        # written, the two would read back as one subject whose covariates vary
        self.rejected([Subject("a", [1.0], [[1]], [0.0]), Subject("a", [2.0], [[1]], [1.0])], "a")

    def test_empty_id_rejected(self):
        self.rejected([Subject("", [1.0], [[1]], [])], "")

    @pytest.mark.parametrize("sid", [" a", "a ", "a\t", " "])
    def test_whitespace_padded_id_rejected(self, sid):
        self.rejected([Subject("b", [1.0], [[1]], []), Subject(sid, [1.0], [[1]], [])], sid)

    @pytest.mark.parametrize("sid", [1, None, b"a"])
    def test_id_not_a_string_rejected(self, sid):
        self.rejected([Subject(sid, [1.0], [[1]], [])], sid)


class TestRoundTrip:
    def test_write_then_parse_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        data = random_small_dataset(rng, n=6, k=2, d=3)
        path = tmp_path / "out.csv"
        write_panel_csv(data, path)
        back = parse_panel_csv(path)
        assert (back.n, back.k, back.d) == (data.n, data.k, data.d)
        for orig, copy in zip(data.subjects, back.subjects):
            assert orig.id == copy.id
            np.testing.assert_array_equal(orig.times, copy.times)
            np.testing.assert_array_equal(orig.counts, copy.counts)
            np.testing.assert_array_equal(orig.covariates, copy.covariates)


def assert_same_arrays(a, b):
    for name, value in vars(a.arrays).items():
        assert np.array_equal(value, getattr(b.arrays, name)), name
    assert a.ids == b.ids


@st.composite
def small_datasets(draw):
    k = draw(st.integers(1, 3))
    d = draw(st.integers(0, 3))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    subjects = []
    for i in range(draw(st.integers(1, 6))):
        times = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4, unique=True))
        steps = draw(st.lists(st.lists(st.integers(0, 5), min_size=len(times),
                                       max_size=len(times)), min_size=k, max_size=k))
        z = draw(st.lists(finite, min_size=d, max_size=d))
        subjects.append(Subject(f"s{i}", sorted(times), np.cumsum(steps, axis=1), z))
    return PanelDataset(subjects, k=k, d=d)


def cells(good, bad):
    """Cell texts, bad ones drawn a twentieth as often as each good one."""
    return st.sampled_from(good * 20 + bad)


ROW = st.tuples(
    cells(["a", "b", "c", " c "], [""]),
    cells(["1", "2", "3", " 2.5 ", "4", "5", "6", "7"], ["0", "-1", "x", "nan"]),
    cells(["0", "1", "2", " 3 "], ["-1", "y"]),
    cells(["0", "1", "2", " 3 "], ["-1", "y"]),
    cells(["1", "0", "-0.0"], ["z", "inf"]),
).map(",".join)
MALFORMED = st.sampled_from(["", " , ", "a,1", "b,1,1,1,1,1"])
# Lines of an id,time,n1,n2,z1 file: one in twenty blank or of the wrong width.
CSV_LINES = st.integers(0, 19).flatmap(lambda i: MALFORMED if i == 0 else ROW)


# How a generated file orders its rows: shuffled; sorted by time across
# subjects, so neighbouring rows mostly belong to different subjects; or
# grouped by subject, but with the first subject's first row apart from its
# other rows, its id padded there (" a ") and bare in the others ("a").
ORDERS = st.sampled_from(["shuffled", "by time", "split"])


class TestParseEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(data=small_datasets(), rnd=st.randoms(use_true_random=False), order=ORDERS)
    def test_round_trip_with_interleaved_rows(self, tmp_path_factory, data, rnd, order):
        path = tmp_path_factory.mktemp("rt") / "data.csv"
        write_panel_csv(data, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        first = [row for row in rows if row.startswith(f"{data.ids[0]},")]
        if order == "shuffled":
            rnd.shuffle(rows)
        elif order == "by time":
            rows.sort(key=lambda row: float(row.split(",")[1]))
        elif len(first) > 1 and data.n > 1:  # split
            rows = [f" {first[0].replace(',', ' ,', 1)}", *rows[len(first):], *first[1:]]
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        back = parse_panel_csv(path)
        # subjects come back in order of their first row in the file
        first_seen = list(dict.fromkeys(row.split(",")[0].strip() for row in rows))
        by_id = {s.id: s for s in data.subjects}
        expected = PanelDataset([by_id[i] for i in first_seen], k=data.k, d=data.d)
        assert_same_arrays(back, expected)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(CSV_LINES, min_size=1, max_size=8))
    def test_matches_row_by_row_reading(self, tmp_path_factory, lines):
        text = "id,time,n1,n2,z1\n" + "".join(line + "\n" for line in lines)
        path = tmp_path_factory.mktemp("rows") / "data.csv"
        path.write_text(text, encoding="utf-8")
        expected = row_by_row_parse(text, k=2, d=1)
        if isinstance(expected, PanelDataset):
            assert_same_arrays(parse_panel_csv(path), expected)
        else:
            with pytest.raises(type(expected)) as caught:
                parse_panel_csv(path)
            assert str(caught.value).endswith(str(expected))


# Cells by column: (cells both readers take, cells that are defects or that
# only float() and int() take: `1_000`, non-ASCII digits, and "3.0" as a
# count, which int() refuses and numpy 1.24 reads with a warning).
CELLS = {
    "id": ([*"abcdefghijklmnop", " q ", '"r"', '"s,t"', '"u\nv"', ' "w"', '"x""y"', "é"],
           ["", "  ", '""', '"x']),
    "time": (["1", "2", " 2.5 ", "3e0", "+4", "5", ".5", '"6"'],
             ["0", "-1", "inf", "nan", "-Infinity", "1_000", "١", "x", "", "1e999"]),
    "n": (["0", "1", "2", " 3 ", "+1", '"2"', "007"],
          ["-1", "3.0", "1_0", "٣", "y", "", "1e2", "99999999999999999999"]),
    "z": (["1", "0", "-0.0", "1e-3", "-2.5", " .5 ", '"1"'],
          ["inf", "-inf", "nan", "1_0", "٣", "z", ""]),
    "x": (["", "x", '"q,r"', "  ", '"s\r\nt"'], []),  # an ignored column
}
ODD_ROWS = ["", " ", " , ", ",,,,", "a,1", "b,1,1,1,1,1,1,1,1", '""']
HEADERS = [
    ["id", "time", "n1", "n2", "z1"],
    ["z1", "id", "x", "n2", "time", "n1"],
    ["id", "time", "n1", "n2", "z1", "x", "x"],
    [" id", "time ", "n1", "n2", "z1"],
]


def number(cell):
    return float(cell.strip().strip('"'))


@st.composite
def csv_files(draw):
    """The text of an id,time,n1,n2,z1 file (columns in any order, maybe
    with ignored ones).  Its rows are a valid dataset in one of the ORDERS,
    with up to two cells swapped for others, maybe an odd row, mixed line
    ends and maybe a byte-order mark."""
    header = draw(st.sampled_from(HEADERS))
    kinds = [col.strip().rstrip("12") for col in header]
    at = {kind: kinds.index(kind) for kind in ("id", "time")}

    def good(kind, m):
        cells = st.lists(st.sampled_from(CELLS[kind][0]), min_size=m, max_size=m,
                         unique=kind == "time")
        return sorted(draw(cells), key=number)

    subjects = []
    for sid in draw(st.lists(st.sampled_from(CELLS["id"][0]), unique=True, max_size=4)):
        m = draw(st.integers(1, 3))
        subject = {"id": [sid] * m, "time": good("time", m), "n1": good("n", m),
                   "n2": good("n", m), "z1": good("z", 1) * m}
        subjects.append([[subject[col.strip()][p] if col.strip() in subject
                          else draw(st.sampled_from(CELLS["x"][0])) for col in header]
                         for p in range(m)])
    rows = [row for subject in subjects for row in subject]
    order = draw(ORDERS)
    if order == "shuffled":
        rows = draw(st.permutations(rows))
    elif order == "by time":
        rows.sort(key=lambda cells: number(cells[at["time"]]))
    elif len(subjects) > 1 and len(subjects[0]) > 1 and subjects[0][0][at["id"]].isalnum():
        first, *rest = subjects[0]  # split: a plain id, padded in its first row only
        first[at["id"]] = f" {first[at['id']]} "
        rows = [first, *rows[len(rest) + 1:], *rest]
    checked = [j for j, kind in enumerate(kinds) if CELLS[kind][1]]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.sampled_from(checked))
        cells[j] = draw(st.sampled_from(CELLS[kinds[j]][0] + CELLS[kinds[j]][1] * 3))
    lines = [",".join(cells) for cells in [header, *rows]]
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(ODD_ROWS)))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    return draw(st.sampled_from(["", "\ufeff"])) + text


def outcome(read, path):
    try:
        return read(path)
    except (ParseError, ValidationError) as exc:
        return exc


def assert_same_bytes(got, expected, name):
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
    assert got.tobytes() == expected.tobytes(), name


def assert_same_as_row_loop(path):
    """parse_panel_csv gives exactly what the row loop alone gives: the same
    arrays (dtype, shape and bytes) and ids, or the same error.  The
    distinct times and their inverse are np.unique's of the epoch times.
    Returns what parse_panel_csv gives."""
    got = outcome(parse_panel_csv, path)
    expected = outcome(panelmean.data._read_rows, path)
    if isinstance(expected, PanelDataset):
        assert isinstance(got, PanelDataset), got
        assert got.ids == expected.ids
        for name, value in vars(expected.arrays).items():
            assert_same_bytes(getattr(got.arrays, name), value, name)
        times, inverse = np.unique(got.arrays.t, return_inverse=True)
        assert_same_bytes(got.arrays.times, times, "times")
        assert_same_bytes(got.arrays.inverse, inverse, "inverse")
    else:
        assert (type(got), str(got)) == (type(expected), str(expected))
    return got


class TestReaders:
    """parse_panel_csv reads with numpy's loadtxt and leaves a file to the
    row loop where loadtxt cannot vouch for it."""

    @pytest.mark.parametrize("col,cell", [(col, cell) for col in ("id", "time", "n1", "z1")
                                          for cell in sum(CELLS[col.rstrip("1")], [])])
    def test_each_cell_alone_same_as_the_row_loop(self, tmp_path, col, cell):
        row = {"id": "a", "time": "2", "n1": "1", "z1": "0.5", col: cell}
        text = "id,time,n1,z1\nb,1,0,1\n" + ",".join(row.values()) + "\n"
        assert_same_as_row_loop(write(tmp_path, text))

    @settings(max_examples=400, deadline=None)
    @given(text=csv_files())
    # one subject in two runs of rows, its id padded in the first; and
    # rows sorted by time across subjects, no two neighbours of one subject
    @example(text="id,time,n1,n2,z1\n a ,1,0,0,1\nb,1,0,0,1\na,2,1,1,1\n")
    @example(text="id,time,n1,n2,z1\na,1,0,0,1\nb,2,0,0,1\na,3,1,1,1\nb,4,1,0,1\n")
    # one subject's adjacent rows, its id padded in the second: two runs of
    # raw ids, one of stripped ones
    @example(text="id,time,n1,n2,z1\na,1,0,0,1\n a ,2,1,1,1\nb,1,0,0,1\n")
    def test_same_as_the_row_loop_alone(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("readers") / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got = assert_same_as_row_loop(path)
        if isinstance(got, PanelDataset):  # one subject per id, at its first row
            header, *rows = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
            at = [col.strip() for col in header].index("id")
            ids = [row[at].strip() for row in rows if any(map(str.strip, row))]
            assert got.ids == tuple(dict.fromkeys(ids))

class TestAggregate:
    def test_duplicate_times_counted(self):
        a = Subject("a", [1.0, 3.0], [[0, 2]], [0.0])
        b = Subject("b", [3.0], [[4]], [0.0])
        data = PanelDataset([a, b], k=1, d=1)
        stats = aggregate(data, 1)
        np.testing.assert_array_equal(stats.times, [1.0, 3.0])
        np.testing.assert_array_equal(stats.n_obs, [1, 2])
        np.testing.assert_allclose(stats.mean_count, [0.0, 3.0])
        assert epoch_members(data, 1) == [(0, 1), (1, 0)]

    def test_single_member_mean(self):
        data = PanelDataset([Subject("a", [2.0], [[5]], [])], k=1, d=0)
        stats = aggregate(data, 1)
        np.testing.assert_allclose(stats.mean_count, [5.0])

    def test_matches_bruteforce_tally(self):
        rng = np.random.default_rng(11)
        data = random_small_dataset(rng, n=5, k=2)
        for cause in (1, 2):
            stats = aggregate(data, cause)
            times, b, nbar = tally_grouped(data, cause)
            np.testing.assert_array_equal(stats.times, times)
            np.testing.assert_array_equal(stats.n_obs, b)
            np.testing.assert_allclose(stats.mean_count, nbar)

    def test_total_observations_preserved_per_cause(self):
        rng = np.random.default_rng(12)
        data = random_small_dataset(rng, n=7, k=3)
        total = sum(s.n_obs for s in data.subjects)
        for cause in (1, 2, 3):
            assert aggregate(data, cause).n_obs.sum() == total

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        data = random_small_dataset(rng, n=6, k=1)
        perm = PanelDataset(list(reversed(data.subjects)), k=1, d=data.d)
        a = aggregate(data, 1)
        b = aggregate(perm, 1)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.n_obs, b.n_obs)
        np.testing.assert_allclose(a.mean_count, b.mean_count)

    def test_member_counts_and_recomputed_means(self):
        rng = np.random.default_rng(14)
        data = random_small_dataset(rng, n=6, k=1)
        stats = aggregate(data, 1)
        for q in range(stats.r):
            members = epoch_members(data, q)
            assert len(members) == stats.n_obs[q] > 0
            recomputed = np.mean(
                [data.subjects[i].counts[0][p] for i, p in members]
            )
            assert recomputed == pytest.approx(stats.mean_count[q])

    def test_arrays_built_once_and_read_only(self):
        rng = np.random.default_rng(15)
        data = random_small_dataset(rng, n=5, k=2)
        assert data.arrays is data.arrays
        assert aggregate(data, 1).times is aggregate(data, 2).times
        with pytest.raises(ValueError, match="read-only"):
            data.arrays.counts[0, 0] = 1.0

    @pytest.mark.parametrize("source", ["subjects", "generated", "loadtxt", "row loop",
                                        "one cause"])
    def test_every_array_is_c_contiguous(self, tmp_path, source):
        # SciPy's sparse kernels copy a strided operand on every product,
        # and a parse reorders its epochs, which leaves a gathered counts
        # array in Fortran order unless the build makes it C
        data = random_small_dataset(np.random.default_rng(16), n=12, k=2, d=3)
        if source == "generated":
            data = gen_dataset(SimConfig(n=12, beta1=[0.5, 1.0], beta2=[-1.0, 0.5]),
                               np.random.default_rng(16))
        elif source in ("loadtxt", "row loop"):
            write_panel_csv(data, tmp_path / "data.csv")
            header, *rows = (tmp_path / "data.csv").read_text(encoding="utf-8").splitlines()
            rows = rows[::-1] + ([" , "] if source == "row loop" else [])  # latest epochs first
            path = write(tmp_path, "\n".join([header, *rows]) + "\n", "shuffled.csv")
            assert (panelmean.data._read_table(path) is None) is (source == "row loop")
            data = parse_panel_csv(path)
        elif source == "one cause":
            data = data.select_cause(2)
        a = data.arrays
        arrays = {**vars(a), "_covariate_products": a._covariate_products,
                  "_covariate_order": a._covariate_order, "_epoch_covariates": a._epoch_covariates}
        for name, value in arrays.items():
            assert value.flags.c_contiguous, name

    def test_bad_cause_rejected(self):
        data = PanelDataset([Subject("a", [2.0], [[5]], [])], k=1, d=0)
        with pytest.raises(ValueError, match="cause"):
            aggregate(data, 2)
