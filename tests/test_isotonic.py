import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from panelmean import (
    NumericError,
    PanelDataset,
    StepFunction,
    Subject,
    aggregate,
    weighted_isotonic,
)
from panelmean.isotonic import _check_runs, _load_compiled

from _oracles import (
    baseline_profile_objective,
    best_monotone_grid,
    isotonic_maxmin,
)


def random_grouped(rng, r):
    """Random baseline problem with several members on each knot."""
    subjects = []
    sid = 0
    for q in range(r):
        for _ in range(int(rng.integers(1, 4))):
            subjects.append(
                Subject(str(sid), [float(q + 1)], [[int(rng.integers(0, 8))]], [])
            )
            sid += 1
    data = PanelDataset(subjects, k=1, d=0)
    stats = aggregate(data, 1)
    exposure = rng.uniform(0.3, 3.0, size=stats.r)
    return stats, exposure


class TestWeightedIsotonic:
    def test_already_monotone_is_fixed_point(self):
        np.testing.assert_allclose(
            weighted_isotonic([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]), [1.0, 2.0, 3.0]
        )

    def test_single_violation_pools_to_mean(self):
        np.testing.assert_allclose(weighted_isotonic([2.0, 1.0], [1.0, 1.0]), [1.5, 1.5])

    def test_matches_maxmin_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            r = int(rng.integers(1, 7))
            y = rng.uniform(0, 5, size=r)
            w = rng.uniform(0.1, 4, size=r)
            np.testing.assert_allclose(
                weighted_isotonic(y, w), isotonic_maxmin(y, w), atol=1e-10
            )

    def test_output_monotone_and_idempotent(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            r = int(rng.integers(1, 30))
            y = rng.uniform(0, 10, size=r)
            w = rng.uniform(0.1, 5, size=r)
            x = weighted_isotonic(y, w)
            assert np.all(np.diff(x) >= 0)
            np.testing.assert_array_equal(weighted_isotonic(x, w), x)

    def test_block_value_is_weighted_block_mean(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            r = int(rng.integers(2, 15))
            y = rng.uniform(0, 3, size=r)
            w = rng.uniform(0.2, 2, size=r)
            x = weighted_isotonic(y, w)
            # reconstruct blocks as runs of equal fitted values
            start = 0
            for i in range(1, r + 1):
                if i == r or x[i] != x[start]:
                    block = slice(start, i)
                    np.testing.assert_allclose(
                        x[start], np.average(y[block], weights=w[block]), atol=1e-12
                    )
                    start = i

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            weighted_isotonic([1.0, 2.0], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            weighted_isotonic([1.0, 2.0], [1.0])

    def test_nan_value_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            weighted_isotonic([1.0, np.nan, 0.5], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            weighted_isotonic([1.0, 2.0], [1.0, bad])

    def test_decreasing_output_raises_numeric_error(self):
        with pytest.raises(NumericError, match="non-decreasing"):
            _check_runs(np.array([2.0, 1.0]), np.ones(1, dtype=bool))


class TestPavaLoader:
    @pytest.mark.parametrize("name", ["scipy.optimize._pava_pybind", "scipy.sparse._sparsetools"])
    def test_search_path_without_the_binding_raises_import_error_naming_it(self, tmp_path, name):
        with pytest.raises(ImportError) as info:
            _load_compiled(name, [str(tmp_path)])
        assert name in str(info.value) and str(tmp_path) in str(info.value)

    def test_scipys_own_entry_in_sys_modules_is_kept(self):
        import scipy.sparse._sparsetools as own

        _load_compiled("scipy.sparse._sparsetools")
        assert sys.modules["scipy.sparse._sparsetools"] is own

    def test_scipy_sparse_still_imports_after_the_package(self):
        # a fresh interpreter: here the test helpers have imported scipy.sparse
        code = ("import numpy as np, panelmean.cli\n"
                "import scipy.sparse, scipy.sparse._sparsetools as st\n"
                "print(scipy.sparse._sparsetools is st,\n"
                "      (scipy.sparse.csr_array(np.eye(2)) @ np.arange(2.0)).tolist())")
        src = str(Path(__file__).parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "[0.0,", "1.0]"]


class TestStepFunction:
    def test_evaluation_rule(self):
        f = StepFunction([1.0, 3.0, 5.0], [0.5, 0.5, 2.0])
        assert f(0.2) == 0.0
        assert f(1.0) == 0.5
        assert f(4.999) == 0.5
        assert f(5.0) == 2.0
        assert f(100.0) == 2.0
        np.testing.assert_allclose(f(np.array([0.0, 3.0])), [0.0, 0.5])

    def test_nan_time_gives_nan(self):
        f = StepFunction([1.0, 3.0, 5.0], [0.5, 0.5, 2.0])
        assert np.isnan(f(np.nan))
        np.testing.assert_array_equal(f(np.array([0.2, np.nan, 4.0, 6.0])),
                                      [0.0, np.nan, 0.5, 2.0])

    def test_decreasing_values_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            StepFunction([1.0, 2.0], [1.0, 0.5])

    def test_unordered_knots_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            StepFunction([2.0, 1.0], [0.5, 1.0])

    def test_infinite_value_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StepFunction([1.0, 2.0], [0.5, np.inf])

    def test_nan_knot_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StepFunction([1.0, np.nan], [0.5, 1.0])


def solve(stats, exposure):
    """The baseline the workspace `stats` solves at the exposure per
    observation `exposure` (its one column's exposure is n_obs times it)."""
    return stats.baseline_values((stats.n_obs * exposure)[None])[0]


class TestSolveBaseline:
    def test_unit_exposure_monotone_means_identity(self):
        a = Subject("a", [1.0, 2.0, 3.0], [[1, 2, 4]], [])
        data = PanelDataset([a], k=1, d=0)
        stats = aggregate(data, 1)
        values = solve(stats, np.ones(3))
        np.testing.assert_allclose(values, stats.mean_count)

    def test_all_zero_counts_gives_zero_baseline(self):
        a = Subject("a", [1.0, 4.0], [[0, 0]], [])
        b = Subject("b", [2.0], [[0]], [])
        stats = aggregate(PanelDataset([a, b], k=1, d=0), 1)
        values = solve(stats, np.ones(3))
        np.testing.assert_array_equal(values, [0.0, 0.0, 0.0])

    def test_beats_monotone_grid_small_instances(self):
        rng = np.random.default_rng(104)
        for _ in range(30):
            r = int(rng.integers(1, 5))
            stats, exposure = random_grouped(rng, r)
            values = solve(stats, exposure)
            ours = baseline_profile_objective(
                stats.n_obs, stats.mean_count, exposure, values
            )
            best = best_monotone_grid(stats.n_obs, stats.mean_count, exposure)
            assert ours >= best - 1e-6

    def test_violating_instance_matches_grid(self):
        # mean/exposure sequence dips in the middle, forcing a pooled block
        a = Subject("a", [1.0, 2.0, 3.0], [[3, 3, 4]], [])
        b = Subject("b", [1.0, 2.0, 3.0], [[2, 2, 5]], [])
        stats = aggregate(PanelDataset([a, b], k=1, d=0), 1)
        exposure = np.array([1.0, 2.0, 1.0])
        values = solve(stats, exposure)
        ours = baseline_profile_objective(
            stats.n_obs, stats.mean_count, exposure, values
        )
        best = best_monotone_grid(stats.n_obs, stats.mean_count, exposure, 60)
        assert np.any(np.diff(stats.mean_count / exposure) < 0)
        assert ours >= best - 1e-6

    def test_zero_exposure_rejected(self):
        a = Subject("a", [1.0], [[1]], [])
        stats = aggregate(PanelDataset([a], k=1, d=0), 1)
        with pytest.raises(NumericError):
            solve(stats, np.array([0.0]))
