import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panelmean import (
    ConvergenceError,
    GenReport,
    NumericError,
    PanelDataset,
    SimConfig,
    StudyError,
    estimator,
    fit,
    gen_bivpois,
    gen_dataset,
    resolve_baseline,
    run_study,
    simulate,
)
from conftest import table1_config


class TestResolveBaseline:
    def test_named_linear_forms(self):
        t = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(resolve_baseline("t")(t), t)
        np.testing.assert_allclose(resolve_baseline("2t")(t), 2 * t)
        np.testing.assert_allclose(resolve_baseline("0.5t")(t), 0.5 * t)
        np.testing.assert_allclose(resolve_baseline("2*t")(t), 2 * t)

    def test_callable_passthrough(self):
        fn = lambda t: np.sqrt(t)
        assert resolve_baseline(fn) is fn

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            resolve_baseline("exp(t)")


class TestSimConfig:
    REQUIRED = dict(n=20, beta1=(0.5, 1.0), beta2=(-1.0, 0.5))

    def test_baseline_name_checked_and_kept(self):
        cfg = SimConfig(**self.REQUIRED, baseline1="2*t", baseline2=" 0.5 t")
        assert (cfg.baseline1, cfg.baseline2) == ("2*t", " 0.5 t")
        with pytest.raises(ValueError, match="unknown baseline 'exp\\(t\\)'"):
            SimConfig(**self.REQUIRED, baseline1="exp(t)")

    def test_callable_baseline_passes_through(self):
        fn = lambda t: np.sqrt(t)
        assert SimConfig(**self.REQUIRED, baseline2=fn).baseline2 is fn

    @pytest.mark.parametrize("change,name", [
        (dict(rho=np.nan), "rho"),
        (dict(beta1=(0.5, np.inf)), "beta1"),
        (dict(beta2=(np.nan, 0.5)), "beta2"),
        (dict(gap_range=(1.0, np.inf)), "gap_range"),
        (dict(bernoulli_p=np.nan), "bernoulli_p"),
        (dict(normal_sd=np.nan), "normal_sd"),
    ])
    def test_non_finite_number_rejected(self, change, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimConfig(**{**self.REQUIRED, **change})

    @pytest.mark.parametrize("name,value", [
        ("n", 20.7), ("n", 20.0), ("max_visits", 2.5), ("replications", 3.5), ("seed", 1.5),
    ])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimConfig(**{**self.REQUIRED, name: value})

    def test_negative_normal_sd_rejected(self):
        with pytest.raises(ValueError, match="rho and normal_sd must be non-negative"):
            SimConfig(**self.REQUIRED, normal_sd=-0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_bernoulli_p_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match=r"bernoulli_p must be in \[0, 1\]"):
            SimConfig(**self.REQUIRED, bernoulli_p=p)

    @pytest.mark.parametrize("p", [0, 1])
    def test_bernoulli_p_ends_accepted(self, p):
        assert SimConfig(**self.REQUIRED, bernoulli_p=p).bernoulli_p == p

    def test_numbers_normalized(self):
        cfg = SimConfig(**{**self.REQUIRED, "n": np.int64(20)}, rho=1, gap_range=(1, 3))
        assert cfg.n == 20
        assert isinstance(cfg.rho, float)
        assert cfg.gap_range == (1.0, 3.0) and all(isinstance(g, float) for g in cfg.gap_range)


class TestSchedule:
    """Visit counts and gaps of gen_dataset: a subject's schedule is
    `arrays.t` over its epochs (grouped by `arrays.subj`)."""

    def test_visit_count_frequencies(self):
        data = gen_dataset(table1_config(n=100_000), np.random.default_rng(61))
        visits = np.bincount(data.arrays.subj)
        for m in range(1, 6):
            assert abs(np.mean(visits == m) - 0.2) <= 0.01

    def test_support_and_monotonicity(self):
        data = gen_dataset(table1_config(n=2000), np.random.default_rng(62))
        a = data.arrays
        visits = np.bincount(a.subj)
        assert visits.min() >= 1 and visits.max() <= 5
        first = np.r_[True, a.subj[1:] != a.subj[:-1]]
        gaps = np.diff(a.t, prepend=0.0)
        gaps[first] = a.t[first]  # the first gap runs from time zero
        assert gaps.min() >= 1.0 and gaps.max() <= 5.0
        assert a.t.max() <= 25.0


class TestGenBivpois:
    def test_independent_when_rho_zero(self):
        rng = np.random.default_rng(63)
        draws = np.array([gen_bivpois(1.0, 1.0, 0.0, rng) for _ in range(100_000)])
        cov = np.cov(draws.T, ddof=1)[0, 1]
        assert abs(cov) <= 0.02

    def test_moments_match_construction(self):
        rng = np.random.default_rng(64)
        draws = np.array([gen_bivpois(2.0, 3.0, 0.5, rng) for _ in range(100_000)])
        assert abs(draws[:, 0].mean() - 2.0) <= 0.03
        assert abs(draws[:, 1].mean() - 3.0) <= 0.03
        cov = np.cov(draws.T, ddof=1)[0, 1]
        assert abs(cov - 0.5) <= 0.05

    def test_maximal_common_shock_keeps_marginal_means(self):
        rng = np.random.default_rng(65)
        draws = np.array([gen_bivpois(1.5, 4.0, 1.5, rng) for _ in range(100_000)])
        se1 = np.sqrt(1.5 / 100_000)
        se2 = np.sqrt(4.0 / 100_000)
        assert abs(draws[:, 0].mean() - 1.5) <= 3 * se1
        assert abs(draws[:, 1].mean() - 4.0) <= 3 * se2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_rejected(self, bad):
        rng = np.random.default_rng(0)
        for rates in [(bad, 1.0), (1.0, bad), (np.array([1.0, bad]), np.ones(2))]:
            with pytest.raises(ValueError, match="rates must be finite and non-negative"):
                gen_bivpois(*rates, 0.5, rng)

    def test_non_finite_baseline_rejected(self):
        # a baseline callable is not checked until its rates are drawn
        cfg = SimConfig(n=5, beta1=(0.5, 1.0), beta2=(-1.0, 0.5),
                        baseline1=lambda t: np.where(t > 3, np.nan, t))
        with pytest.raises(ValueError, match="rates must be finite and non-negative"):
            gen_dataset(cfg, np.random.default_rng(0))

    def test_negative_rate_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="negative|non-negative"):
            gen_bivpois(-1.0, 1.0, 0.0, rng)
        with pytest.raises(ValueError, match="rho"):
            gen_bivpois(1.0, 1.0, -0.5, rng)


class TestGenDataset:
    def test_zero_beta_identity_baseline_mean_ratio(self):
        cfg = SimConfig(
            n=10_000, beta1=(0.0, 0.0), beta2=(0.0, 0.0),
            baseline1="t", baseline2="t", replications=1, seed=0,
        )
        data = gen_dataset(cfg, np.random.default_rng(66))
        counts = np.concatenate([s.counts[0] for s in data.subjects])
        times = np.concatenate([s.times for s in data.subjects])
        assert abs(np.mean(counts / times) - 1.0) <= 0.05

    def test_nonlinear_baseline_mean_ratio(self):
        # increments use differences of the cumulative baseline, so
        # E[N(t)] = Lambda(t) also when Lambda is not linear
        cfg = SimConfig(
            n=10_000, beta1=(0.0, 0.0), beta2=(0.0, 0.0),
            baseline1=lambda t: 0.5 * t**2, replications=1, seed=0,
        )
        data = gen_dataset(cfg, np.random.default_rng(71))
        a = data.arrays
        last = np.r_[a.subj[1:] != a.subj[:-1], True]  # each subject's last visit
        ratio = a.counts[0, last] / (0.5 * a.t[last] ** 2)
        assert abs(np.mean(ratio) - 1.0) <= 0.05

    def test_increment_means_scale_with_covariates(self):
        # degenerate covariates (z fixed at (1, 0)) isolate the rate scaling
        cfg = SimConfig(
            n=4000, beta1=(0.7, 0.0), beta2=(-0.3, 0.0),
            baseline1="t", baseline2="2t", rho=0.3,
            bernoulli_p=1.0, normal_sd=0.0, replications=1, seed=0,
        )
        data = gen_dataset(cfg, np.random.default_rng(67))
        for cause, slope, beta in ((1, 1.0, 0.7), (2, 2.0, -0.3)):
            total = 0.0
            expected = 0.0
            for s in data.subjects:
                total += s.counts[cause - 1][-1]
                expected += slope * s.times[-1] * np.exp(beta)
            assert abs(total - expected) <= 3 * np.sqrt(expected)

    def test_increment_covariance_matches_rho(self):
        # degenerate gaps and covariates make every increment pair iid
        # BivPo(2, 4, rho), so the pooled covariance estimates rho
        rho = 0.5
        cfg = SimConfig(
            n=20_000, beta1=(0.0, 0.0), beta2=(0.0, 0.0),
            baseline1="t", baseline2="2t", rho=rho,
            gap_range=(2.0, 2.0), bernoulli_p=1.0, normal_sd=0.0,
            replications=1, seed=0,
        )
        data = gen_dataset(cfg, np.random.default_rng(69))
        inc1 = np.concatenate([np.diff(s.counts[0], prepend=0) for s in data.subjects])
        inc2 = np.concatenate([np.diff(s.counts[1], prepend=0) for s in data.subjects])
        prod = (inc1 - inc1.mean()) * (inc2 - inc2.mean())
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(prod.mean() - rho) <= 3 * se

    def test_counts_non_decreasing(self):
        cfg = table1_config(n=300)
        data = gen_dataset(cfg, np.random.default_rng(68))
        for s in data.subjects:
            assert np.all(np.diff(s.counts, axis=1) >= 0)

    def test_seed_determinism(self):
        cfg = table1_config(n=60)
        a = gen_dataset(cfg, np.random.default_rng([9, 9]))
        b = gen_dataset(cfg, np.random.default_rng([9, 9]))
        for sa, sb in zip(a.subjects, b.subjects):
            np.testing.assert_array_equal(sa.times, sb.times)
            np.testing.assert_array_equal(sa.counts, sb.counts)
            np.testing.assert_array_equal(sa.covariates, sb.covariates)

    def test_clamp_counter_reports_rho_truncation(self):
        # rates below rho are common with a tiny baseline slope
        cfg = SimConfig(
            n=200, beta1=(0.0, 0.0), beta2=(0.0, 0.0),
            baseline1="0.01t", baseline2="0.01t", rho=0.5,
            replications=1, seed=0,
        )
        report = GenReport()
        gen_dataset(cfg, np.random.default_rng(70), report)
        assert report.rho_clamps > 0


def independent_rho_clamps(data, cfg):
    """Increments whose common-shock rate exceeds a cause's rate, counted
    subject by subject from the dataset's times and covariates."""
    a = data.arrays
    clamps = 0
    for i in range(data.n):
        times = a.t[a.subj == i]
        prev = np.r_[0.0, times[:-1]]
        rates = [(base(times) - base(prev)) * np.exp(beta @ a.Z[i])
                 for base, beta in ((resolve_baseline(cfg.baseline1), cfg.beta1),
                                    (resolve_baseline(cfg.baseline2), cfg.beta2))]
        clamps += sum(cfg.rho > min(l1, l2) for l1, l2 in zip(*rates))
    return clamps


class TestGenDatasetProperties:
    @given(
        n=st.integers(1, 40),
        max_visits=st.integers(1, 8),
        gap_low=st.floats(0.01, 5.0),
        gap_width=st.floats(0.0, 5.0),
        rho=st.floats(0.0, 3.0),
        bernoulli_p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_arrays_are_a_valid_dataset_with_counted_clamps(
        self, n, max_visits, gap_low, gap_width, rho, bernoulli_p, seed
    ):
        cfg = SimConfig(
            n=n, beta1=(0.5, -1.0), beta2=(-0.3, 0.8), baseline1="0.3t", baseline2="t",
            rho=rho, max_visits=max_visits, gap_range=(gap_low, gap_low + gap_width),
            bernoulli_p=bernoulli_p, replications=1, seed=0,
        )
        report = GenReport()
        data = gen_dataset(cfg, np.random.default_rng(seed), report)
        # rebuilding from subjects runs every Subject check on the arrays
        rebuilt = PanelDataset(data.subjects, 2, 2)
        assert rebuilt.ids == data.ids == tuple(str(i) for i in range(1, n + 1))
        for field, value in vars(data.arrays).items():
            expected = getattr(rebuilt.arrays, field)
            assert value.dtype == expected.dtype, field
            np.testing.assert_array_equal(value, expected, err_msg=field)
        assert report.rho_clamps == independent_rho_clamps(data, cfg)


class TestRunStudy:
    def test_single_replication_bias_is_single_fit_error(self):
        cfg = table1_config(n=60, replications=1, seed=5)
        result = run_study(cfg)
        data = gen_dataset(cfg, np.random.default_rng([5, 0]))
        fits = fit(data)
        expected = np.abs(
            np.array([fits[0].beta, fits[1].beta]) - np.array([cfg.beta1, cfg.beta2])
        )
        np.testing.assert_allclose(result.bias, expected, atol=1e-12)
        np.testing.assert_allclose(result.mse, expected**2, atol=1e-12)

    def test_mse_dominates_squared_bias(self):
        cfg = table1_config(n=40, replications=20, seed=6)
        result = run_study(cfg)
        assert np.all(result.mse >= result.bias**2 - 1e-12)
        assert result.replications_used == 20
        assert result.failures == 0

    def test_seed_reproducibility(self):
        cfg = table1_config(n=40, replications=8, seed=7)
        a = run_study(cfg)
        b = run_study(cfg)
        np.testing.assert_array_equal(a.bias, b.bias)
        np.testing.assert_array_equal(a.mse, b.mse)

    def test_excess_failures_abort(self):
        # n=2 with a binary covariate: both subjects often share z1, making
        # the two-covariate profile singular
        cfg = table1_config(n=2, replications=20, seed=8)
        with pytest.raises(StudyError, match="failed"):
            run_study(cfg)

    @staticmethod
    def stack_sizes(monkeypatch):
        """Record the number of replicates of each call of simulate.fit."""
        sizes = []

        def recording(data):
            sizes.append(len(data))
            return fit(data)

        monkeypatch.setattr(simulate, "fit", recording)
        return sizes

    @staticmethod
    def stacks_of(size):
        """Consecutive replicates in lists of `size`, in the place of _stacks."""
        def stacks(datasets):
            datasets = list(datasets)
            return [datasets[i:i + size] for i in range(0, len(datasets), size)]
        return stacks

    @pytest.mark.parametrize("size", [1, 2, "all"])
    def test_stack_size_leaves_the_study_as_it_is(self, monkeypatch, size):
        # n = 7 makes 3 of the 40 replicates fail, and clamps rho 4 times
        cfg = table1_config(n=7, replications=40, seed=0)
        reference = run_study(cfg)
        monkeypatch.setattr(simulate, "_stacks", self.stacks_of({1: 1, 2: 2, "all": 40}[size]))
        monkeypatch.setattr(estimator, "_CHUNK_FLOATS", 2**30)  # fit keeps each stack whole
        sizes = self.stack_sizes(monkeypatch)
        result = run_study(cfg)
        assert sizes == {1: [1] * 40, 2: [2] * 20, "all": [40]}[size]
        assert (result.replications_used, result.failures, result.rho_clamps) == \
            (reference.replications_used, reference.failures, reference.rho_clamps) == (37, 3, 4)
        # a stacked fit is the fit alone, bit for bit
        assert result.bias.tobytes() == reference.bias.tobytes()
        assert result.mse.tobytes() == reference.mse.tobytes()

    def test_replicate_value_error_propagates(self, monkeypatch):
        def fail(data):
            raise ValueError("bug in replicate")

        monkeypatch.setattr(simulate, "fit", fail)
        with pytest.raises(ValueError, match="bug in replicate"):
            run_study(table1_config(n=20, replications=3, seed=10))

    @pytest.mark.parametrize("error", [ConvergenceError, NumericError])
    def test_fit_error_stops_the_study(self, monkeypatch, error):
        # an error from fit stops the study at the stack that raised it,
        # which is not fitted again, whole or one replicate at a time
        monkeypatch.setattr(simulate, "_stacks", self.stacks_of(4))
        sizes = []

        def second_stack_fails(stack):
            sizes.append(len(stack))
            if len(sizes) == 2:
                raise error("bug in replicate")
            return fit(stack)

        monkeypatch.setattr(simulate, "fit", second_stack_fails)
        with pytest.raises(error, match="bug in replicate"):
            run_study(table1_config(n=20, replications=12, seed=10))
        assert sizes == [4, 4]

    def test_raising_stack_stops_the_study(self, monkeypatch):
        # the baseline step raises NumericError in any workspace that holds
        # replicate 7: the study stops there, and neither the stack nor any
        # of its replicates is fitted again
        cfg = table1_config(n=40, replications=12, seed=6)
        poison = gen_dataset(cfg, np.random.default_rng([6, 7])).arrays.t
        baseline_values = estimator._CauseWorkspace.baseline_values

        def raising(ws, exposure):
            if any(np.array_equal(p.arrays.t, poison) for p in ws.parts):
                raise NumericError("exposure must be finite and strictly positive")
            return baseline_values(ws, exposure)

        monkeypatch.setattr(estimator._CauseWorkspace, "baseline_values", raising)
        monkeypatch.setattr(simulate, "_stacks", self.stacks_of(12))  # the 12 in one stack
        monkeypatch.setattr(estimator, "_CHUNK_FLOATS", 2**30)
        sizes = self.stack_sizes(monkeypatch)
        with pytest.raises(NumericError, match="strictly positive"):
            run_study(cfg)
        assert sizes == [12]

    def test_table_row_order(self):
        cfg = table1_config(n=50, replications=3, seed=9)
        result = run_study(cfg)
        row = result.table_row()
        assert row[0] == result.bias[0, 0] and row[3] == result.mse[0, 1]
        assert row[4] == result.bias[1, 0] and row[7] == result.mse[1, 1]
