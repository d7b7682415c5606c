from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import panelmean.data
from panelmean import (
    PanelDataset,
    ParseError,
    Subject,
    ValidationError,
    aggregate,
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

    def test_duplicate_times_rejected(self, tmp_path):
        path = write(tmp_path, "id,time,n1,z1\na,2,1,1\na,2,2,1\n")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_panel_csv(path)

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
    @pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
    def test_first_defect_in_file_order_wins(self, tmp_path, text, error, message, chunk_rows):
        path = write(tmp_path, "id,time,n1,z1\n" + text)
        with mock.patch.object(panelmean.data, "_CHUNK_ROWS", chunk_rows):
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

    def test_count_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="count entries"):
            Subject("a", [1.0, 2.0], [[0, 1, 2]], [1.0])

    def test_mixed_k_rejected(self):
        a = Subject("a", [1.0], [[1]], [1.0])
        b = Subject("b", [1.0], [[1], [2]], [1.0])
        with pytest.raises(ValidationError, match="causes"):
            PanelDataset([a, b], k=1, d=1)


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


class TestParseEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(data=small_datasets(), rnd=st.randoms(use_true_random=False),
           chunk_rows=st.sampled_from([1, 3, 4096]))
    def test_round_trip_with_interleaved_rows(self, tmp_path_factory, data, rnd, chunk_rows):
        path = tmp_path_factory.mktemp("rt") / "data.csv"
        write_panel_csv(data, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        rnd.shuffle(rows)
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        with mock.patch.object(panelmean.data, "_CHUNK_ROWS", chunk_rows):
            back = parse_panel_csv(path)
        # subjects come back in order of their first row in the file
        first_seen = list(dict.fromkeys(row.split(",")[0] for row in rows))
        by_id = {s.id: s for s in data.subjects}
        expected = PanelDataset([by_id[i] for i in first_seen], k=data.k, d=data.d)
        assert_same_arrays(back, expected)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(CSV_LINES, min_size=1, max_size=8),
           chunk_rows=st.sampled_from([1, 2, 5, 4096]))
    def test_matches_row_by_row_reading(self, tmp_path_factory, lines, chunk_rows):
        text = "id,time,n1,n2,z1\n" + "".join(line + "\n" for line in lines)
        path = tmp_path_factory.mktemp("rows") / "data.csv"
        path.write_text(text, encoding="utf-8")
        expected = row_by_row_parse(text, k=2, d=1)
        with mock.patch.object(panelmean.data, "_CHUNK_ROWS", chunk_rows):
            if isinstance(expected, PanelDataset):
                assert_same_arrays(parse_panel_csv(path), expected)
            else:
                with pytest.raises(type(expected)) as caught:
                    parse_panel_csv(path)
                assert str(caught.value).endswith(str(expected))


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

    def test_bad_cause_rejected(self):
        data = PanelDataset([Subject("a", [2.0], [[5]], [])], k=1, d=0)
        with pytest.raises(ValueError, match="cause"):
            aggregate(data, 2)
