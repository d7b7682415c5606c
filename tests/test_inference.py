import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panelmean import (
    CauseFit,
    InferenceError,
    NumericError,
    PanelDataset,
    Subject,
    bootstrap_se,
    estimator,
    fit,
    gen_dataset,
    inference,
    parse_panel_csv,
    sandwich_se,
    write_panel_csv,
)
from _oracles import profile_sandwich_cov, take
from conftest import random_small_dataset, table1_config
from test_estimator import converged_fit, table1_datasets


def check_cov(result):
    cov = result.cov
    assert np.max(np.abs(cov - cov.T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh((cov + cov.T) / 2)) >= -1e-10
    np.testing.assert_allclose(result.se, np.sqrt(np.diag(cov)))
    assert np.all((result.wald_p >= 0) & (result.wald_p <= 1))


def explicit_bootstrap(data, B, seed):
    """Per-cause SEs and failure count of bootstrap_se's draws, each
    replicate refitted on its explicit resample."""
    betas, failures = [], 0
    for b in range(B):
        idx = np.random.default_rng([seed, b]).integers(0, data.n, size=data.n)
        fits = fit(take(data, idx))
        if all(cf.converged and cf.error is None for cf in fits):
            betas.append([cf.beta for cf in fits])
        else:
            failures += 1
    betas = np.array(betas)  # (replicates, k, d)
    se = [np.sqrt(np.diag(np.atleast_2d(np.cov(betas[:, j], rowvar=False, ddof=1))))
          for j in range(data.k)]
    return se, failures


class TestBootstrap:
    def test_identical_subjects_have_zero_se(self):
        proto = Subject("a", [1.0, 3.0], [[1, 2]], [1.0])
        subjects = [
            Subject(str(i), proto.times, proto.counts, proto.covariates)
            for i in range(15)
        ]
        data = PanelDataset(subjects, k=1, d=1)
        res = bootstrap_se(data, B=25, seed=1)[0]
        np.testing.assert_array_equal(res.se, [0.0])
        assert res.replicates == 25 and res.failures == 0
        check_cov(res)

    def test_seed_determinism(self, table1_dataset_n100):
        a = bootstrap_se(table1_dataset_n100, B=20, seed=6)
        b = bootstrap_se(table1_dataset_n100, B=20, seed=6)
        c = bootstrap_se(table1_dataset_n100, B=20, seed=7)
        for ra, rb, rc in zip(a, b, c):
            np.testing.assert_array_equal(ra.se, rb.se)
            np.testing.assert_array_equal(ra.cov, rb.cov)
            assert not np.array_equal(ra.se, rc.se)

    @pytest.mark.parametrize("seed,b", [(0, 0), (42, 7), (5, 299)])
    @pytest.mark.parametrize("gridded", [False, True])
    def test_gathered_replicate_equals_explicit_resample(self, table1_dataset_n100, seed, b,
                                                         gridded):
        data = table1_dataset_n100
        if gridded:
            data = random_small_dataset(np.random.default_rng(seed), n=12, k=2)
        idx = np.random.default_rng([seed, b]).integers(0, data.n, size=data.n)
        gathered = take(data, idx)
        explicit = PanelDataset([data.subjects[i] for i in idx], k=data.k, d=data.d)
        assert gathered.ids == explicit.ids
        for name, value in vars(explicit.arrays).items():
            assert np.array_equal(getattr(gathered.arrays, name), value), name
        if not gridded:  # continuous times: a resample leaves distinct times unused
            assert gathered.arrays.times.size < data.arrays.times.size

    def test_fit_path_builds_no_subject(self, table1_dataset_n100, tmp_path, monkeypatch):
        path = tmp_path / "panel.csv"
        write_panel_csv(table1_dataset_n100, path)

        def no_subjects(self):
            raise AssertionError("a Subject was built")

        monkeypatch.setattr(Subject, "__post_init__", no_subjects)
        data = parse_panel_csv(path)
        fits = fit(data)
        bootstrap_se(data, B=5, seed=0)
        sandwich_se(data, fits[0])
        assert "subjects" not in vars(data)

    def test_matches_explicit_resampling(self, table1_dataset_n100):
        se, failures = explicit_bootstrap(table1_dataset_n100, B=20, seed=3)
        for res, want in zip(bootstrap_se(table1_dataset_n100, B=20, seed=3), se):
            np.testing.assert_allclose(res.se, want, rtol=1e-8)
            assert res.failures == failures and res.replicates == 20 - failures

    def test_warm_start_does_not_change_the_answer(self, table1_dataset_n100, monkeypatch):
        warm = bootstrap_se(table1_dataset_n100, B=20, seed=0)
        monkeypatch.setattr(inference, "_lockstep", lambda data, causes, start, weights:
                            estimator._lockstep(data, causes, np.zeros_like(start), weights))
        cold = bootstrap_se(table1_dataset_n100, B=20, seed=0)
        for w, c in zip(warm, cold):
            np.testing.assert_allclose(w.se, c.se, rtol=1e-8)
            assert w.failures == c.failures

    def test_too_few_replicates_rejected(self, table1_dataset_n100):
        with pytest.raises(ValueError, match="at least 2"):
            bootstrap_se(table1_dataset_n100, B=1, seed=0)

    def test_original_data_failure_raises(self):
        # events only at z=0: the fit itself diverges, nothing to bootstrap
        subjects = []
        for i in range(10):
            z = float(i % 2)
            counts = [[0, 0]] if z == 1.0 else [[1, 3]]
            subjects.append(Subject(str(i), [1.0 + 0.1 * i, 6.0 + 0.1 * i], counts, [z]))
        data = PanelDataset(subjects, k=1, d=1)
        with pytest.raises(InferenceError, match="original data"):
            bootstrap_se(data, B=5, seed=0)

    def test_failed_replicates_dropped_and_counted(self):
        # a single z=1 subject carries all the z=1 events; replicates
        # missing it see an eventual-free z=1 level and diverge
        rng = np.random.default_rng(3)
        subjects = [Subject("hot", [1.0, 2.0], [[2, 4]], [1.0])]
        for i in range(4):
            subjects.append(
                Subject(f"cold{i}", [1.2 + 0.05 * i, 2.2 + 0.05 * i], [[0, 0]], [1.0])
            )
        for i in range(6):
            subjects.append(
                Subject(
                    str(i),
                    [1.0 + 0.05 * i, 3.0 + 0.05 * i],
                    [np.sort(rng.integers(1, 5, size=2))],
                    [0.0],
                )
            )
        data = PanelDataset(subjects, k=1, d=1)
        res = bootstrap_se(data, B=30, seed=4)[0]
        assert res.failures > 0
        assert res.replicates == 30 - res.failures
        assert res.replicates >= 2
        [se], failures = explicit_bootstrap(data, B=30, seed=4)
        assert res.failures == failures
        np.testing.assert_allclose(res.se, se, rtol=1e-8)

    def test_replicate_value_error_propagates(self, table1_dataset_n100, monkeypatch):
        # a ValueError is a programming error, not a failed replicate
        calls = []

        def fit_then_fail(data, causes, start, weights):
            calls.append(int(causes[0]))
            raise ValueError("bug in replicate")

        monkeypatch.setattr(inference, "_lockstep", fit_then_fail)
        with pytest.raises(ValueError, match="bug in replicate"):
            bootstrap_se(table1_dataset_n100, B=5, seed=0)
        assert calls == [1]

    @pytest.mark.parametrize("columns", [1, 7])
    def test_chunking_does_not_change_the_result(self, table1_dataset_n100, monkeypatch,
                                                 columns):
        data = table1_dataset_n100
        default = bootstrap_se(data, B=20, seed=8)
        a = data.arrays
        monkeypatch.setattr(estimator, "_CHUNK_FLOATS", columns * max(data.n, a.times.size))
        chunks = []
        monkeypatch.setattr(inference, "_lockstep", lambda *args: (
            chunks.append(cols.size) or (cols, ws, path)
            for cols, ws, path in estimator._lockstep(*args)))
        for d, c in zip(default, bootstrap_se(data, B=20, seed=8)):
            np.testing.assert_array_equal(c.cov, d.cov)
            assert (c.replicates, c.failures) == (d.replicates, d.failures)
        assert max(chunks) == columns and sum(chunks) == 20 * data.k

    def test_no_covariates_fits_no_replicate(self, monkeypatch):
        subjects = [Subject(str(i), [1.0 + 0.1 * i, 2.0], [[i % 3, i % 3 + 1], [1, 2]], [])
                    for i in range(6)]
        data = PanelDataset(subjects, k=2, d=0)
        calls = []

        def counting_newton(*args):
            calls.append(args[1].shape[0])
            return newton(*args)

        newton = estimator._newton
        monkeypatch.setattr(estimator, "_newton", counting_newton)
        results = bootstrap_se(data, B=5, seed=0)
        assert calls == [2]  # the full-data fit's two causes only
        for j, res in enumerate(results, start=1):
            assert (res.cause, res.method, res.replicates, res.failures) == (j, "bootstrap", 5, 0)
            assert res.se.shape == res.wald_p.shape == (0,) and res.cov.shape == (0, 0)

    def test_se_shrinks_like_root_n(self):
        cfg100 = table1_config(n=100)
        cfg200 = table1_config(n=200)
        ds100 = gen_dataset(cfg100, np.random.default_rng([42, 0]))
        ds200 = gen_dataset(cfg200, np.random.default_rng([42, 0]))
        r100 = bootstrap_se(ds100, B=300, seed=2)
        r200 = bootstrap_se(ds200, B=300, seed=2)
        for j in range(2):
            mean_ratio = np.mean(r200[j].se / r100[j].se)
            assert 0.6 <= mean_ratio <= 0.82

    def test_cov_properties_on_simulated_data(self, table1_dataset_n100):
        for res in bootstrap_se(table1_dataset_n100, B=60, seed=12):
            check_cov(res)


class TestSandwich:
    def test_agrees_with_bootstrap_on_simulated_data(self, table1_dataset_n200):
        fits = fit(table1_dataset_n200)
        boot = bootstrap_se(table1_dataset_n200, B=200, seed=5)
        for cf, br in zip(fits, boot):
            sw = sandwich_se(table1_dataset_n200, cf)
            assert np.all(np.abs(sw.se - br.se) / br.se <= 0.25)
            check_cov(sw)

    @pytest.mark.parametrize("design", ["continuous", "gridded"])
    def test_matches_profile_information_oracle(self, table1_dataset_n200, design):
        data = table1_dataset_n200
        if design == "gridded":  # visit gaps are >= 1, so ceil keeps times distinct
            data = PanelDataset([Subject(s.id, np.ceil(s.times), s.counts, s.covariates)
                                 for s in data.subjects], k=data.k, d=data.d)
            assert data.arrays.times.size < 40
        for cf in fit(data):
            oracle = profile_sandwich_cov(data, cf.cause, cf.beta, cf.baseline.knots,
                                          cf.baseline.values)
            np.testing.assert_allclose(sandwich_se(data, cf).cov, oracle, rtol=1e-9)

    def test_matches_profile_information_oracle_small_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            data = random_small_dataset(rng, n=int(rng.integers(8, 15)), k=2, d=2)
            for cf in fit(data):
                oracle = profile_sandwich_cov(data, cf.cause, cf.beta, cf.baseline.knots,
                                              cf.baseline.values)
                np.testing.assert_allclose(sandwich_se(data, cf).cov, oracle, rtol=1e-9)

    def test_constant_covariate_is_singular(self):
        subjects = [
            Subject(str(i), [1.0 + 0.1 * i, 2.0 + 0.1 * i], [[1, 2]], [1.0])
            for i in range(10)
        ]
        data = PanelDataset(subjects, k=1, d=1)
        cf = fit(data)[0]
        with pytest.raises(NumericError, match="singular"):
            sandwich_se(data, cf)

    def test_covariate_scaling_scales_se_inversely(self, table1_dataset_n100):
        data = table1_dataset_n100
        cf = fit(data)[0]
        base = sandwich_se(data, cf)
        c = 3.0
        scaled_subjects = [
            Subject(s.id, s.times, s.counts, c * s.covariates) for s in data.subjects
        ]
        scaled = PanelDataset(scaled_subjects, k=data.k, d=data.d)
        # same fitted model expressed in the scaled parametrization
        scaled_fit = CauseFit(
            cause=cf.cause,
            beta=cf.beta / c,
            baseline=cf.baseline,
            loglik_trace=list(cf.loglik_trace),
            iterations=cf.iterations,
            converged=cf.converged,
        )
        res = sandwich_se(scaled, scaled_fit)
        np.testing.assert_allclose(res.se, base.se / c, rtol=1e-10)

    def test_failed_fit_rejected(self):
        # no events at z = 1: beta runs off to -infinity
        subjects = [Subject(str(i), [1.0, 2.0, 3.0], [[0, 0, 0] if i % 2 else [1, 1, 2]],
                            [i % 2]) for i in range(8)]
        data = PanelDataset(subjects, k=1, d=1)
        cf = fit(data)[0]
        assert not cf.converged and "diverged" in cf.error
        with pytest.raises(InferenceError, match="cause 1 .*diverged"):
            sandwich_se(data, cf)

    @settings(max_examples=20, deadline=None)
    @given(data=table1_datasets(), rnd=st.randoms(use_true_random=False))
    def test_subject_order_and_duplication(self, data, rnd):
        # the same CauseFit on reordered subjects, and on every subject twice:
        # twice the information and twice the meat halve the covariance
        order = list(range(data.n))
        rnd.shuffle(order)
        shuffled, doubled = take(data, order), take(data, np.repeat(np.arange(data.n), 2))
        for cf in converged_fit(data):
            cov = sandwich_se(data, cf).cov
            np.testing.assert_allclose(sandwich_se(shuffled, cf).cov, cov, rtol=1e-10)
            np.testing.assert_allclose(sandwich_se(doubled, cf).cov, cov / 2, rtol=1e-10)

    def test_needs_covariates(self):
        data = PanelDataset([Subject("a", [1.0], [[1]], [])], k=1, d=0)
        cf = fit(data)[0]
        with pytest.raises(ValueError, match="covariate"):
            sandwich_se(data, cf)
