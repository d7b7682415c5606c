import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from panelmean import (
    CauseFit,
    InferenceError,
    NumericError,
    PanelDataset,
    SimConfig,
    StepFunction,
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
from panelmean.data import PanelArrays
from panelmean.inference import _wald_p

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


def monthly_shaped(seed):
    """A bootstrap_monthly-shaped dataset: 2,000 subjects, 2-8 visits on
    months 1-36, k = 2, d = 2."""
    rng = np.random.default_rng(seed)
    n, k = 2000, 2
    visits = rng.integers(2, 9, size=n)
    months = np.concatenate([np.sort(rng.choice(36, v, replace=False)) + 1.0 for v in visits])
    jumps = rng.poisson(0.3, size=(k, months.size))
    total, first = jumps.cumsum(axis=1), np.cumsum(visits) - visits
    counts = total - np.repeat(total[:, first] - jumps[:, first], visits, axis=1)
    Z = np.column_stack([rng.random(n) < 0.5, rng.normal(0, 0.5, n)]).astype(float)
    return PanelDataset._from_arrays(tuple(map(str, range(n))), PanelArrays.build(
        months, np.repeat(np.arange(n), visits), counts, Z))


def monthly_model(seed):
    """The bootstrap_monthly benchmark input of `seed`, drawn as
    perfbench/inputs.py draws it (and not imported from there, so the test
    does not depend on the benchmark): 2,000 subjects on 2-8 distinct
    months of 36, k = 2, d = 2, counts from the proportional mean model."""
    n, slopes, beta = 2000, np.array([0.15, 0.25]), np.array([[0.5, -0.5], [-0.3, 0.8]])
    rng = np.random.default_rng([seed, n, *beta.shape])
    Z = np.round(np.column_stack([rng.random(n) < 0.5, rng.normal(0.0, 0.5, n)]), 6)
    rng.uniform(-1.0, 1.0, n), rng.random(n)  # the benchmark's unused covariates
    visits = rng.integers(2, 9, size=n)
    rank = np.argsort(np.argsort(rng.random((n, 36)), axis=1), axis=1)
    subj, month = np.nonzero(rank < visits[:, None])
    times = month + 1.0
    first = np.r_[True, subj[1:] != subj[:-1]]
    gaps = np.where(first, times, times - np.r_[0.0, times[:-1]])
    jumps = rng.poisson(np.exp(Z @ beta.T)[subj] * slopes * gaps[:, None]).T
    total, start = jumps.cumsum(axis=1), np.flatnonzero(first)
    counts = total - np.repeat(total[:, start] - jumps[:, start], visits, axis=1)
    return PanelDataset._from_arrays(tuple(map(str, range(n))), PanelArrays.build(
        times, subj, counts.astype(float), Z))


def one_hot_subject():
    """A single z=1 subject carries all the z=1 events; bootstrap replicates
    missing it see an event-free z=1 level and diverge."""
    rng = np.random.default_rng(3)
    subjects = [Subject("hot", [1.0, 2.0], [[2, 4]], [1.0])]
    for i in range(4):
        subjects.append(Subject(f"cold{i}", [1.2 + 0.05 * i, 2.2 + 0.05 * i], [[0, 0]], [1.0]))
    for i in range(6):
        subjects.append(Subject(str(i), [1.0 + 0.05 * i, 3.0 + 0.05 * i],
                                [np.sort(rng.integers(1, 5, size=2))], [0.0]))
    return PanelDataset(subjects, k=1, d=1)


class TestBootstrap:
    def test_identical_subjects_are_not_identified(self):
        # one covariate value for all: the baseline absorbs exp(beta), so
        # the fit is singular and there is no spread to bootstrap
        proto = Subject("a", [1.0, 3.0], [[1, 2]], [1.0])
        subjects = [
            Subject(str(i), proto.times, proto.counts, proto.covariates)
            for i in range(15)
        ]
        data = PanelDataset(subjects, k=1, d=1)
        with pytest.raises(InferenceError, match="cause 1 failed on the original data: "
                                                 "singular information matrix"):
            bootstrap_se(data, B=25, seed=1)

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
        # built from the drawn subjects under distinct ids, as PanelDataset
        # requires, then given the drawn subjects' ids, repeats and all
        drawn = [data.subjects[i] for i in idx]
        renamed = [Subject(str(j), s.times, s.counts, s.covariates) for j, s in enumerate(drawn)]
        explicit = PanelDataset._from_arrays(
            tuple(s.id for s in drawn), PanelDataset(renamed, k=data.k, d=data.d).arrays)
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

    @pytest.mark.parametrize("B", [3.0, 2.5, True, np.True_, "3", None])
    def test_replicate_count_not_an_integer_rejected(self, table1_dataset_n100, B):
        with pytest.raises(ValueError, match="need an integer B"):
            bootstrap_se(table1_dataset_n100, B=B, seed=0)

    def test_numpy_integer_replicate_count_accepted(self, table1_dataset_n100):
        plain = bootstrap_se(table1_dataset_n100, B=3, seed=0)
        for B in (np.int64(3), np.int32(3)):
            for a, b in zip(bootstrap_se(table1_dataset_n100, B=B, seed=0), plain):
                assert a.cov.tobytes() == b.cov.tobytes()

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
        data = one_hot_subject()
        res = bootstrap_se(data, B=30, seed=4)[0]
        assert res.failures > 0
        assert res.replicates == 30 - res.failures
        assert res.replicates >= 2
        [se], failures = explicit_bootstrap(data, B=30, seed=4)
        assert res.failures == failures
        np.testing.assert_allclose(res.se, se, rtol=1e-8)

    def test_fewer_than_two_converged_replicates_raise(self):
        # seed 2: 2 of the 3 replicates diverge
        with pytest.raises(InferenceError, match="only 1 of 3 bootstrap replicates converged; "
                                                 "cannot estimate a covariance"):
            bootstrap_se(one_hot_subject(), B=3, seed=2)

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

    @pytest.mark.parametrize("columns", [1, 7, "all"])
    def test_chunking_does_not_change_the_result(self, table1_dataset_n100, monkeypatch,
                                                 columns):
        data = table1_dataset_n100
        default = bootstrap_se(data, B=20, seed=8)
        columns = 20 * data.k if columns == "all" else columns
        monkeypatch.setattr(estimator, "_chunk_columns", lambda n, r: columns)
        chunks = []
        monkeypatch.setattr(inference, "_lockstep", lambda *args: (
            chunks.append(cols.size) or (cols, ws, path)
            for cols, ws, path in estimator._lockstep(*args)))
        for d, c in zip(default, bootstrap_se(data, B=20, seed=8)):
            np.testing.assert_array_equal(c.cov, d.cov)
            assert (c.replicates, c.failures) == (d.replicates, d.failures)
        assert max(chunks) == columns and sum(chunks) == 20 * data.k

    def test_a_lockstep_call_holds_few_arrays_per_column(self, monkeypatch):
        # on a monthly-shaped dataset, one call of 62 bootstrap columns
        # traces at most 4.5 n x m float arrays above the dataset.  It holds
        # about 3.6; transposed copies of the per-subject arrays, or the last
        # trial's state kept through the next derivatives, bring it to 5.5
        data = monthly_shaped(24)
        n, k, m = data.n, data.k, 62
        start = np.tile([cf.beta for cf in fit(data)], (m // k, 1))

        def weights(cols):
            draws = [np.random.default_rng([0, b]).integers(0, n, size=n) for b in cols // k]
            return np.array([np.bincount(draw, minlength=n) for draw in draws], float).T

        monkeypatch.setattr(estimator, "_chunk_columns", lambda n, r: m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            [(_, _, path)] = estimator._lockstep(data, np.tile(np.arange(1, k + 1), m // k),
                                                 start, weights)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (path.stop == "gradient").all()
        assert peak <= 4.5 * n * m * 8

    def test_a_bootstrap_holds_one_lockstep_call_at_a_time(self, monkeypatch):
        # three calls of 62 columns, each fitted without the last one's
        # workspace and path: the whole bootstrap traces within the one-call
        # bound above.  Holding them through the next call, as a loop's
        # variables do, brings it to about 5.9
        data = monthly_shaped(24)
        n, k, m = data.n, data.k, 62
        fits = fit(data)
        monkeypatch.setattr(estimator, "_chunk_columns", lambda n, r: m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            [result, _] = bootstrap_se(data, B=3 * m // k, seed=0, _fits=fits)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert result.failures == 0
        assert peak <= 4.5 * n * m * 8

    def test_no_earlier_workspace_lives_when_a_new_one_is_built(self, table1_dataset_n100,
                                                                 monkeypatch):
        # one column per lockstep call: fit makes k calls and the bootstrap
        # B * k, and each is built after the last one's workspace is freed,
        # neither the generator nor the loops of fit and bootstrap_se holding it
        data = table1_dataset_n100
        refs, alive = [], []
        workspace = estimator._CauseWorkspace

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in refs))
            ws = workspace(*args)
            refs.append(weakref.ref(ws))
            return ws

        monkeypatch.setattr(estimator, "_CauseWorkspace", tracked)
        monkeypatch.setattr(estimator, "_CHUNK_FLOATS", 1)
        fits = fit(data)
        assert len(alive) == data.k
        bootstrap_se(data, B=3, seed=0, _fits=fits)
        assert alive == [0] * (4 * data.k)

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


class TestWaldP:
    def test_matches_twice_the_normal_tail(self):
        rng = np.random.default_rng(0)
        z = np.concatenate([[1e-300, 0.5, 1.0, 5.0, 37.0], rng.uniform(0, 37, 20000),
                            rng.exponential(2.0, 20000).clip(max=37.0)])
        se = rng.uniform(0.01, 100.0, z.size)
        beta = z * se * rng.choice([-1.0, 1.0], z.size)
        p = _wald_p(beta, se)
        np.testing.assert_allclose(p, 2.0 * ndtr(-np.abs(beta) / se), rtol=1e-12, atol=0)
        assert np.all((p >= 0) & (p <= 1))

    def test_zero_coefficient_and_degenerate_se_are_exact(self):
        beta = np.array([0.0, 0.0, -2.0, 0.0, 3.0, 0.0])
        se = np.array([0.7, 0.0, 0.0, np.nan, np.nan, 1e-300])
        assert _wald_p(beta, se).tolist() == [1.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_far_tail_stays_a_probability(self):
        z = np.array([37.5, 38.0, 38.6, 40.0, 1e10, np.inf])
        p = _wald_p(z, np.ones(z.size))
        assert np.all((p >= 0) & (p <= 1))
        assert p[-3:].tolist() == [0.0, 0.0, 0.0]


class TestSandwich:
    def test_agrees_with_bootstrap_on_simulated_data(self, table1_dataset_n200):
        fits = fit(table1_dataset_n200)
        boot = bootstrap_se(table1_dataset_n200, B=200, seed=5)
        for cf, br in zip(fits, boot):
            sw = sandwich_se(table1_dataset_n200, cf)
            assert np.all(np.abs(sw.se - br.se) / br.se <= 0.25)
            check_cov(sw)

    def test_agrees_with_bootstrap_at_n_2000(self):
        # at large n the two routes estimate one covariance, so each checks
        # the other.  On these inputs (seeds 1-8) sandwich SE / bootstrap SE
        # at B = 1,000 lay in 0.974-1.046, and in 0.974-1.033 with mean
        # 0.999 on the three here; a bootstrap SE carries about 1 / sqrt(2B)
        # = 2.2% Monte Carlo error.  So each ratio is held within 10% (4.5
        # Monte Carlo SDs) and their mean within 3%
        ratios = []
        for seed in (1, 2, 3):
            data = monthly_model(seed)
            fits = fit(data)
            boot = bootstrap_se(data, B=1000, seed=seed, _fits=fits)
            assert boot[0].failures == 0
            ratios += [sandwich_se(data, cf).se / br.se for cf, br in zip(fits, boot)]
        ratios = np.concatenate(ratios)
        assert np.all(np.abs(ratios - 1.0) <= 0.10), ratios
        assert abs(ratios.mean() - 1.0) <= 0.03, ratios

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
        assert not cf.converged and cf.error.startswith("singular information matrix")
        with pytest.raises(InferenceError, match="did not converge: singular"):
            sandwich_se(data, cf)
        # the sandwich's own test, on the same fit passed off as converged
        with pytest.raises(NumericError, match="singular"):
            sandwich_se(data, replace(cf, converged=True, error=None))

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

    def test_fit_beyond_the_overflow_guard_rejected(self, table1_dataset_n100):
        # |beta'z| > 600: exp(beta'z) is not formed, and there are no SEs
        cf = fit(table1_dataset_n100)[0]
        far = CauseFit(cause=cf.cause, beta=np.array([1000.0, 1000.0]), baseline=cf.baseline,
                       loglik_trace=[], converged=True)
        with pytest.raises(NumericError, match="cause 1: objective not finite"):
            sandwich_se(table1_dataset_n100, far)

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

    @pytest.mark.parametrize("beta", [[0.5], [0.5, 1.0, 0.0]])
    def test_wrong_length_beta_rejected(self, table1_dataset_n100, beta):
        cf = replace(fit(table1_dataset_n100)[0], beta=np.array(beta))
        with pytest.raises(ValueError, match=f"cause 1: beta has length {len(beta)}, expected 2"):
            sandwich_se(table1_dataset_n100, cf)

    def test_needs_covariates(self):
        data = PanelDataset([Subject("a", [1.0], [[1]], [])], k=1, d=0)
        cf = fit(data)[0]
        with pytest.raises(ValueError, match="covariate"):
            sandwich_se(data, cf)


def same_results(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("cov", "se", "wald_p"))


class TestFitState:
    """sandwich_se reads a fit's own last evaluation when it still describes
    the fit and the data, and bootstrap_se starts from the fits it is
    handed: the same numbers, bit for bit, as evaluating or fitting again."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The causes of the one-cause workspaces built: sandwich_se's, as
        `fit` builds its own for an array of causes."""
        causes = []
        workspace = estimator._CauseWorkspace

        def counting(data, cause, weights=None):
            if np.ndim(cause) == 0:
                causes.append(cause)
            return workspace(data, cause, weights)

        monkeypatch.setattr(estimator, "_CauseWorkspace", counting)
        return causes

    def test_kept_only_for_converged_fits_and_only_arrays(self, table1_dataset_n100):
        for cf in fit(table1_dataset_n100):
            assert cf._arrays is table1_dataset_n100.arrays
            state = vars(cf._state).copy()
            assert state.pop("cause") == cf.cause
            assert all(type(v) is np.ndarray for v in state.values())
        no_events = [Subject(str(i), [1.0, 2.0, 3.0], [[0, 0, 0] if i % 2 else [1, 1, 2]],
                             [i % 2]) for i in range(8)]
        [diverged] = fit(PanelDataset(no_events, k=1, d=1))
        assert not diverged.converged and diverged._state is None
        assert replace(fit(table1_dataset_n100)[0])._state is None

    @pytest.mark.parametrize("design", ["continuous", "gridded"])
    def test_kept_state_gives_the_recomputed_result(self, table1_dataset_n200, design, built):
        data = table1_dataset_n200
        if design == "gridded":  # visit gaps are >= 1, so ceil keeps times distinct
            data = PanelDataset([Subject(s.id, np.ceil(s.times), s.counts, s.covariates)
                                 for s in data.subjects], k=data.k, d=data.d)
        for cf in fit(data):
            kept = sandwich_se(data, cf)
            assert built == []
            again = sandwich_se(data, replace(cf))  # replace keeps no state
            assert built == [cf.cause]
            built.clear()
            assert same_results(kept, again)

    def test_edited_or_foreign_fit_is_evaluated_again(self, table1_dataset_n100, built):
        data = table1_dataset_n100

        def check(data, cf, kept):
            got = sandwich_se(data, cf)
            assert built == ([] if kept else [cf.cause])
            assert same_results(got, sandwich_se(data, replace(cf)))
            built.clear()

        cf = fit(data)[0]
        cf.beta = cf.beta.copy()  # new objects, the same bits: the state still holds
        cf.baseline = StepFunction(cf.baseline.knots.copy(), cf.baseline.values.copy())
        check(data, cf, kept=True)
        cf.beta[0] += 1e-3
        check(data, cf, kept=False)
        cf = fit(data)[0]
        cf.baseline.values[-1] *= 1.01
        check(data, cf, kept=False)
        cf = fit(data)[0]
        cf.beta = cf.beta + 1e-3
        check(data, cf, kept=False)
        cf = fit(data)[0]
        check(take(data, np.arange(data.n)[::-1]), cf, kept=False)

    @pytest.mark.parametrize("cause", [2, 0])
    def test_fit_given_another_cause_is_evaluated_again(self, cause):
        cfg = SimConfig(n=200, beta1=[.5, -.5], beta2=[1, .5], seed=3)
        data = gen_dataset(cfg, np.random.default_rng([3, 0]))
        cf = fit(data)[0]
        cf.cause = cause  # 2: its state is not cause 2's; 0: no cause of the data

        def outcome(cf):
            try:
                return sandwich_se(data, cf)
            except Exception as exc:
                return exc

        got, want = outcome(cf), outcome(replace(cf))
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert same_results(got, want)

    def test_bootstrap_from_given_fits_fits_nothing_again(self, table1_dataset_n100,
                                                          monkeypatch):
        data = table1_dataset_n100
        plain = bootstrap_se(data, B=20, seed=3)
        fits = fit(data)
        monkeypatch.setattr(inference, "fit", lambda data: pytest.fail("fitted again"))
        for a, b in zip(plain, bootstrap_se(data, B=20, seed=3, _fits=fits)):
            assert same_results(a, b)
            assert (a.replicates, a.failures) == (b.replicates, b.failures)
