import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from panelmean import (
    ConvergenceError,
    NumericError,
    PanelDataset,
    SimConfig,
    StepFunction,
    Subject,
    baseline_step,
    beta_step,
    fit,
    gen_dataset,
    log_pseudo_likelihood,
    predict_mean,
    aggregate,
    weighted_isotonic,
)
from panelmean import estimator
from panelmean.data import PanelArrays
from panelmean.estimator import (_NEWTON_TOL, _assert_ascending, _CauseWorkspace, _lockstep,
                                  _profile_grad_hess)

from _oracles import (
    alternating_fit,
    baseline_profile_objective,
    best_monotone_grid,
    grouped_loglik,
    naive_loglik,
    take,
)
from conftest import TABLE1, epoch_members, random_small_dataset, table1_config


def lockstep_fits(data, causes, weights, start=None):
    """The CauseFits of lockstep columns: cause causes[c] with subject
    weights weights[:, c], from start[c] (default beta = 0)."""
    causes = np.asarray(causes)
    start = np.zeros((causes.size, data.d)) if start is None else start
    return [ws.cause_fit(path, i)
            for cols, ws, path in _lockstep(data, causes, start, lambda cols: weights[:, cols])
            for i in range(cols.size)]


def flat_baseline(data, value=1.0):
    times = np.unique(np.concatenate([s.times for s in data.subjects]))
    return StepFunction(times, np.full(times.size, value))


class TestLogPseudoLikelihood:
    def test_all_zero_counts_unit_baseline(self):
        subjects = [
            Subject("a", [1.0, 2.0], [[0, 0]], [0.5]),
            Subject("b", [3.0], [[0]], [-0.2]),
        ]
        data = PanelDataset(subjects, k=1, d=1)
        ll = log_pseudo_likelihood(data, 1, [0.0], flat_baseline(data))
        assert ll == pytest.approx(-data.total_obs)

    def test_single_observation(self):
        data = PanelDataset([Subject("a", [1.0], [[2]], [0.0])], k=1, d=1)
        ll = log_pseudo_likelihood(data, 1, [3.0], flat_baseline(data))
        assert ll == pytest.approx(2 * np.log(1.0) + 0.0 - 1.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            data = random_small_dataset(rng, k=2)
            times = np.unique(np.concatenate([s.times for s in data.subjects]))
            values = np.sort(rng.uniform(0.2, 4.0, size=times.size))
            baseline = StepFunction(times, values)
            beta = rng.normal(0, 0.5, size=data.d)
            cause = int(rng.integers(1, 3))
            ours = log_pseudo_likelihood(data, cause, beta, baseline)
            ref = naive_loglik(data, cause, beta, times, values)
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_zero_baseline_with_positive_count_is_minus_inf(self):
        data = PanelDataset([Subject("a", [1.0], [[2]], [0.0])], k=1, d=1)
        baseline = StepFunction([1.0], [0.0])
        assert log_pseudo_likelihood(data, 1, [0.0], baseline) == -np.inf

    def test_zero_baseline_with_zero_count_uses_convention(self):
        data = PanelDataset([Subject("a", [1.0], [[0]], [0.0])], k=1, d=1)
        baseline = StepFunction([1.0], [0.0])
        assert log_pseudo_likelihood(data, 1, [0.0], baseline) == pytest.approx(0.0)

    def test_uncovered_times_rejected(self):
        data = PanelDataset([Subject("a", [1.0, 5.0], [[1, 2]], [0.0])], k=1, d=1)
        baseline = StepFunction([2.0, 4.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="cover"):
            log_pseudo_likelihood(data, 1, [0.0], baseline)

    def test_grouped_form_objective_differences_agree(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            data = random_small_dataset(rng, k=1, d=2)
            times = np.unique(np.concatenate([s.times for s in data.subjects]))
            values_a = np.sort(rng.uniform(0.2, 3.0, size=times.size))
            values_b = np.sort(rng.uniform(0.2, 3.0, size=times.size))
            beta_a = rng.normal(0, 0.5, size=2)
            beta_b = rng.normal(0, 0.5, size=2)
            raw_diff = log_pseudo_likelihood(
                data, 1, beta_a, StepFunction(times, values_a)
            ) - log_pseudo_likelihood(data, 1, beta_b, StepFunction(times, values_b))
            grouped_diff = grouped_loglik(data, 1, beta_a, times, values_a) - grouped_loglik(
                data, 1, beta_b, times, values_b
            )
            assert raw_diff == pytest.approx(grouped_diff, abs=1e-9)


class TestBetaStep:
    def test_two_cell_closed_form(self):
        # one epoch each at the same time, unit baseline: the z=1 cell pins
        # exp(beta) = count / baseline = 2
        subjects = [
            Subject("a", [1.0], [[1]], [0.0]),
            Subject("b", [1.0], [[2]], [1.0]),
        ]
        data = PanelDataset(subjects, k=1, d=1)
        baseline = StepFunction([1.0], [1.0])
        beta = beta_step(data, 1, baseline, [0.0])
        assert beta[0] == pytest.approx(np.log(2.0), abs=1e-8)

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            data = random_small_dataset(rng, k=1, d=2, max_counts=5)
            times = np.unique(np.concatenate([s.times for s in data.subjects]))
            baseline = StepFunction(times, np.sort(rng.uniform(0.5, 2.0, size=times.size)))
            try:
                beta = beta_step(data, 1, baseline, np.zeros(2))
            except ConvergenceError:
                continue
            ws = _CauseWorkspace(data, 1)
            lam_sub = np.bincount(
                ws.subj, weights=baseline(ws.times)[ws.inverse], minlength=ws.n
            )
            grad, _ = _profile_grad_hess(ws, lam_sub, beta)
            assert np.linalg.norm(grad) <= _NEWTON_TOL

    def test_analytic_gradient_matches_central_differences(self):
        rng = np.random.default_rng(24)
        h = 1e-5
        for _ in range(40):
            d = int(rng.integers(1, 4))
            data = random_small_dataset(rng, k=1, d=d)
            times = np.unique(np.concatenate([s.times for s in data.subjects]))
            values = np.sort(rng.uniform(0.3, 2.5, size=times.size))
            baseline = StepFunction(times, values)
            beta = rng.normal(0, 0.4, size=d)
            ws = _CauseWorkspace(data, 1)
            lam_sub = np.bincount(ws.subj, weights=values[ws.inverse], minlength=ws.n)
            grad, _ = _profile_grad_hess(ws, lam_sub, beta)
            fd = np.empty(d)
            for l in range(d):
                bump = np.zeros(d)
                bump[l] = h
                fd[l] = (
                    log_pseudo_likelihood(data, 1, beta + bump, baseline)
                    - log_pseudo_likelihood(data, 1, beta - bump, baseline)
                ) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))

    def test_all_zero_counts_reported_as_divergence(self):
        subjects = [Subject(str(i), [1.0 + i], [[0]], [1.0]) for i in range(6)]
        data = PanelDataset(subjects, k=1, d=1)
        baseline = flat_baseline(data)
        with pytest.raises(ConvergenceError) as err:
            beta_step(data, 1, baseline, [0.0])
        assert err.value.last_beta is not None

    def test_collinear_covariates_rejected(self):
        rng = np.random.default_rng(25)
        subjects = []
        for i in range(5):
            z1 = float(rng.normal())
            subjects.append(
                Subject(str(i), [1.0, 2.0], [[1, 2]], [z1, 2.0 * z1])
            )
        data = PanelDataset(subjects, k=1, d=2)
        with pytest.raises(NumericError, match="singular"):
            beta_step(data, 1, flat_baseline(data), np.zeros(2))


class TestBaselineStep:
    def test_zero_beta_reduces_to_plain_isotonic(self):
        rng = np.random.default_rng(26)
        data = random_small_dataset(rng, k=1, d=2)
        step = baseline_step(data, 1, np.zeros(2))
        stats = aggregate(data, 1)
        plain = weighted_isotonic(stats.mean_count, stats.n_obs)
        np.testing.assert_allclose(step.values, plain)

    def test_single_epoch_closed_form(self):
        data = PanelDataset([Subject("a", [2.0], [[7]], [0.3, -1.0])], k=1, d=2)
        beta = np.array([0.5, 0.25])
        step = baseline_step(data, 1, beta)
        expected = 7.0 * np.exp(-float(beta @ np.array([0.3, -1.0])))
        assert step.values[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_monotone_grid_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            data = random_small_dataset(rng, n=4, k=1, d=1)
            stats = aggregate(data, 1)
            if stats.r > 4:
                continue
            beta = rng.normal(0, 0.4, size=1)
            step = baseline_step(data, 1, beta)
            ez = np.array(
                [np.exp(float(beta @ s.covariates)) for s in data.subjects]
            )
            exposure = np.array(
                [np.mean([ez[i] for i, _ in epoch_members(data, q)]) for q in range(stats.r)]
            )
            ours = baseline_profile_objective(
                stats.n_obs, stats.mean_count, exposure, step.values
            )
            best = best_monotone_grid(stats.n_obs, stats.mean_count, exposure)
            assert ours >= best - 1e-6


def hessian_draws(rng):
    """200 (one-column workspace, beta) draws: Table-1 datasets at beta
    near the truth, and random small datasets."""
    for i in range(100):
        data = gen_dataset(table1_config(n=50, seed=i), np.random.default_rng([i, 0]))
        cause = 1 + i % 2
        beta = np.array(TABLE1[f"beta{cause}"]) + rng.normal(0, 0.2, size=2)
        yield _CauseWorkspace(data, cause), beta
    for _ in range(100):
        d = int(rng.integers(1, 4))
        yield _CauseWorkspace(random_small_dataset(rng, d=d), 1), rng.normal(0, 0.4, size=d)


def central_differences(f, beta, h=1e-6):
    """Per coefficient l, f at beta + h e_l and at beta - h e_l."""
    bumps = h * np.eye(beta.size)
    return [(f(beta + bump), f(beta - bump)) for bump in bumps]


class TestHessians:
    # h = 1e-6 leaves about 1e-9 of rounding in each difference quotient;
    # as in the gradient checks, the bound is relative to max(1, |H|), since
    # a one-block profile can be flat

    def test_fixed_baseline_hessian_matches_central_differences(self):
        rng = np.random.default_rng(41)
        h = 1e-6
        for ws, beta in hessian_draws(rng):
            state = (np.sort(rng.uniform(0.3, 2.5, size=ws.r))[None],)

            def grad(b):
                return ws.fixed_derivs(b[None], state, np.arange(1))[0][0]

            hess = ws.fixed_derivs(beta[None], state, np.arange(1))[1][0]
            fd = np.column_stack([(up - down) / (2 * h)
                                  for up, down in central_differences(grad, beta, h)])
            assert np.linalg.norm(hess - fd) <= 1e-6 * max(1.0, np.linalg.norm(hess))

    def test_profile_hessian_matches_central_differences(self):
        # the profile gradient is smooth while the PAVA blocks stay put
        rng = np.random.default_rng(42)
        h = 1e-6
        checked = 0
        for ws, beta in hessian_draws(rng):
            cols = np.arange(1)

            def grad_and_blocks(b):
                _, state = ws.evaluate(b[None], cols)
                grad, _, _, start = ws.derivs(b[None], state, cols)
                return grad[0], start

            sides = central_differences(grad_and_blocks, beta, h)
            if any(not np.array_equal(up[1], down[1]) for up, down in sides):
                continue
            _, state = ws.evaluate(beta[None], cols)
            hess = ws.derivs(beta[None], state, cols)[1][0]
            fd = np.column_stack([(up[0] - down[0]) / (2 * h) for up, down in sides])
            assert np.linalg.norm(hess - fd) <= 1e-6 * max(1.0, np.linalg.norm(hess))
            checked += 1
        assert checked >= 190


class TestFit:
    def test_no_covariates_single_iteration(self):
        rng = np.random.default_rng(28)
        data = random_small_dataset(rng, k=1, d=0)
        fits = fit(data)
        cf = fits[0]
        assert cf.iterations == 1 and cf.converged
        plain = baseline_step(data, 1, np.zeros(0))
        np.testing.assert_allclose(cf.baseline.values, plain.values)
        assert cf.beta.size == 0

    def test_trace_non_decreasing_and_stopping_rule(self):
        rng = np.random.default_rng(29)
        stopped = 0
        for _ in range(5):
            data = random_small_dataset(rng, n=8, k=2, d=2)
            for cf in fit(data):
                if cf.error is not None:
                    continue
                trace = np.array(cf.loglik_trace)
                assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
                if cf.converged:
                    # the profile gradient is the fixed-baseline one at the
                    # fitted baseline; it meets the stop in range units
                    ws = _CauseWorkspace(data, cf.cause)
                    lam_sub = np.bincount(
                        ws.subj, weights=cf.baseline(ws.times)[ws.inverse], minlength=ws.n
                    )
                    grad, _ = _profile_grad_hess(ws, lam_sub, cf.beta)
                    assert np.linalg.norm(grad / ws.z_range) <= _NEWTON_TOL
                    stopped += 1
        assert stopped > 0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_alternating_reference(self, seed):
        # the alternating maximization run to a relative change of 1e-14
        # reaches the same maximizer, and no higher profile log-likelihood
        cfg_sim = SimConfig(n=200, beta1=[0.5, -0.5], beta2=[1.0, 0.5], seed=seed)
        data = gen_dataset(cfg_sim, np.random.default_rng([seed, 0]))
        for cf in fit(data):
            assert cf.converged and cf.error is None
            beta, ll = alternating_fit(data, cf.cause, epsilon=1e-14, max_iter=5000)
            assert np.max(np.abs(cf.beta - beta)) <= 1e-6
            assert cf.loglik_trace[-1] >= ll - 1e-9 * abs(ll)

    @pytest.mark.parametrize("seed", range(20))
    def test_profile_consistency_at_tight_tolerance(self, seed):
        # each coordinate step from a converged fit reproduces it exactly: the
        # baseline step runs the fit's PAVA at its beta, and the beta step
        # starts where the fit's own gradient stop held
        cfg_sim = SimConfig(n=200, beta1=[0.5, -0.5], beta2=[1.0, 0.5], seed=seed)
        data = gen_dataset(cfg_sim, np.random.default_rng([seed, 0]))
        for cf in fit(data):
            assert cf.converged
            redo_baseline = baseline_step(data, cf.cause, cf.beta)
            np.testing.assert_array_equal(redo_baseline.values, cf.baseline.values)
            redo_beta = beta_step(data, cf.cause, cf.baseline, cf.beta)
            np.testing.assert_array_equal(redo_beta, cf.beta)

    def test_cause_separability(self):
        cfg_sim = table1_config(n=60, seed=17)
        data = gen_dataset(cfg_sim, np.random.default_rng([17, 0]))
        joint = fit(data)
        for j in (1, 2):
            single = fit(data.select_cause(j))[0]
            np.testing.assert_allclose(joint[j - 1].beta, single.beta, atol=1e-9)
            np.testing.assert_allclose(
                joint[j - 1].baseline.values, single.baseline.values, atol=1e-9
            )

    def test_recovers_generating_coefficients(self):
        # Monte Carlo SD estimated from independent replications, then one
        # fresh fit must land within 3 SDs of the truth per coefficient
        cfg_sim = table1_config(n=200, seed=31)
        betas = []
        for rep in range(30):
            data = gen_dataset(cfg_sim, np.random.default_rng([31, rep]))
            betas.append(fit(data)[0].beta)
        sd = np.std(np.array(betas), axis=0, ddof=1)
        fresh = gen_dataset(cfg_sim, np.random.default_rng([31, 999]))
        beta_hat = fit(fresh)[0].beta
        assert np.all(np.abs(beta_hat - np.array([0.5, 1.0])) <= 3 * sd)

    def test_failed_cause_does_not_stop_others(self):
        # cause 1 has events only at z=0, so its z coefficient dives to
        # -inf; cause 2 is healthy and must still be fitted
        rng = np.random.default_rng(33)
        subjects = []
        for i in range(12):
            z = float(i % 2)
            times = np.array([1.0, 2.0]) + 0.01 * i
            c2 = np.sort(rng.integers(1, 5, size=2))
            c1 = np.zeros(2, dtype=int) if z == 1.0 else np.sort(rng.integers(1, 5, size=2))
            subjects.append(Subject(str(i), times, np.vstack([c1, c2]), [z]))
        data = PanelDataset(subjects, k=2, d=1)
        fits = fit(data)
        assert fits[0].error is not None and not fits[0].converged
        assert "diverged" in fits[0].error
        assert fits[1].error is None and fits[1].converged

    @pytest.mark.parametrize("scale", [1 / 50, 1 / 7, 3, 50])
    def test_rescaled_covariates_rescale_beta(self, table1_seed0_fit, scale):
        # beta enters only through exp(beta'z): z * scale gives beta / scale
        data, reference = table1_seed0_fit
        scaled = PanelDataset(
            [Subject(s.id, s.times, s.counts, s.covariates * scale) for s in data.subjects],
            k=data.k, d=data.d,
        )
        for cf, ref in zip(fit(scaled), reference):
            assert cf.converged and cf.error is None
            np.testing.assert_allclose(cf.beta * scale, ref.beta, rtol=1e-8)
            assert cf.iterations == ref.iterations

    @pytest.mark.parametrize("scale", [1e-6, 1e-4, 1 / 50, 1, 50, 1000])
    def test_divergence_caught_in_any_covariate_unit(self, scale):
        # no events where z = scale, so beta -> -inf whatever z's unit
        subjects = [
            Subject(f"s{i}", [1.0 + 0.01 * i, 2.0 + 0.01 * i], [[0, 3 * (1 - i % 2)]],
                    [scale * (i % 2)])
            for i in range(6)
        ]
        cf = fit(PanelDataset(subjects, k=1, d=1))[0]
        assert not cf.converged and "diverged" in cf.error

    @pytest.mark.parametrize("beta, converged", [(0.5, True), (1.0, False)])
    def test_bound_applies_to_beta_times_covariate_range(self, beta, converged):
        # z spans a range of 20: a finite maximizer with |beta| * 20 > 15 is
        # reported as diverged, one below it converges
        rng = np.random.default_rng(7)
        subjects = [
            Subject(str(i), [1.0, 2.0, 3.0],
                    [np.cumsum(rng.poisson(0.1 * np.exp(beta * z), size=3))], [z])
            for i, z in enumerate(np.linspace(-10, 10, 41))
        ]
        cf = fit(PanelDataset(subjects, k=1, d=1))[0]
        assert cf.converged is converged
        assert (cf.error is None) if converged else ("diverged" in cf.error)

    def test_constant_covariate_beside_a_varying_one_is_not_identified(self):
        # bernoulli_p = 1 makes z1 = 1 for everyone: the baseline absorbs
        # exp(beta_1), so the profile information is singular in z1
        cfg_sim = SimConfig(n=40, beta1=[0.5, -0.5], beta2=[-1.0, 0.5], bernoulli_p=1.0)
        data = gen_dataset(cfg_sim, np.random.default_rng([42, 0]))
        for cf in fit(data):
            assert not cf.converged
            assert "collinear" in cf.error and "constant within the baseline's blocks" in cf.error

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("shift", [46, 47, 100])
    def test_trial_step_beyond_float_range_is_halved(self, shift, sign):
        # no events at one level of z = sign * (shift + i % 2), in shifted
        # units: beta grows until exp(beta'z) nears the float range (over-
        # or underflow, by sign); the fit fails cleanly instead of raising
        subjects = [
            Subject(f"s{i}", [1.0 + 0.01 * i, 2.0 + 0.01 * i], [[0, 3 * (1 - i % 2)]],
                    [sign * (shift + i % 2)])
            for i in range(6)
        ]
        data = PanelDataset(subjects, k=1, d=1)
        cf = fit(data)[0]
        assert not cf.converged and cf.error is not None
        assert np.all(np.isfinite(np.exp(data.arrays.Z @ cf.beta)))

    def test_all_zero_counts_converges_to_boundary(self):
        # log-likelihood is exactly 0 at the zero baseline, and so is the
        # gradient: the fit stops at beta = 0
        subjects = [
            Subject(str(i), [1.0 + i, 2.0 + i], [[0, 0]], [float(i % 2)])
            for i in range(6)
        ]
        data = PanelDataset(subjects, k=1, d=1)
        cf = fit(data)[0]
        assert cf.converged and cf.error is None
        np.testing.assert_array_equal(cf.baseline.values, 0.0)
        assert cf.loglik_trace[-1] == 0.0

    def test_decreasing_trace_raises_numeric_error(self):
        _assert_ascending([1.0, 2.0, 2.0])
        with pytest.raises(NumericError, match="decreased"):
            _assert_ascending([2.0, 1.0])

    def test_max_iter_reached_flags_not_converged(self, monkeypatch):
        cfg_sim = table1_config(n=40, seed=53)
        data = gen_dataset(cfg_sim, np.random.default_rng([53, 0]))
        monkeypatch.setattr(estimator, "_MAX_STEPS", 2)
        cf = fit(data)[0]
        assert not cf.converged and cf.iterations == 2 and cf.error is None


@st.composite
def table1_datasets(draw):
    """Small Table 1 datasets: two causes, a Bernoulli and a normal covariate."""
    n, seed = draw(st.integers(20, 60)), draw(st.integers(0, 2**32 - 1))
    return gen_dataset(table1_config(n=n, seed=seed), np.random.default_rng([seed, 0]))


def converged_fit(data):
    fits = fit(data)
    assume(all(cf.converged for cf in fits))
    return fits


class TestInvariance:
    @settings(max_examples=30, deadline=None)
    @given(data=table1_datasets(), rnd=st.randoms(use_true_random=False))
    def test_subject_order_does_not_matter(self, data, rnd):
        order = list(range(data.n))
        rnd.shuffle(order)
        for cf, shuffled in zip(converged_fit(data), fit(take(data, order))):
            np.testing.assert_allclose(shuffled.beta, cf.beta, rtol=1e-10)
            np.testing.assert_array_equal(shuffled.baseline.knots, cf.baseline.knots)
            np.testing.assert_allclose(shuffled.baseline.values, cf.baseline.values, rtol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(data=table1_datasets())
    def test_duplicating_every_subject_does_not_matter(self, data):
        # twice the data doubles the gradient, so the stop (an absolute
        # 1e-8 on it) can come one Newton step apart: both ends are within
        # about 1e-8 / information of the same maximizer
        doubled = fit(take(data, np.repeat(np.arange(data.n), 2)))
        for cf, twice in zip(converged_fit(data), doubled):
            np.testing.assert_allclose(twice.beta, cf.beta, rtol=1e-8)
            np.testing.assert_array_equal(twice.baseline.knots, cf.baseline.knots)
            np.testing.assert_allclose(twice.baseline.values, cf.baseline.values, rtol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(data=table1_datasets())
    def test_one_cause_alone_fits_as_in_the_full_data(self, data):
        for cf in converged_fit(data):
            [alone] = fit(data.select_cause(cf.cause))
            np.testing.assert_array_equal(alone.beta, cf.beta)
            np.testing.assert_array_equal(alone.baseline.values, cf.baseline.values)
            assert alone.loglik_trace == cf.loglik_trace


class TestSubjectWeights:
    @settings(max_examples=30, deadline=None)
    @given(data=table1_datasets(), gridded=st.booleans(),
           zero_at=st.sampled_from(["none", "first", "last", "both"]),
           weights=st.lists(st.integers(0, 3), min_size=60, max_size=60))
    def test_weighted_fit_equals_explicit_resample_fit(self, data, gridded, zero_at, weights):
        a = data.arrays
        if gridded:  # visit gaps are >= 1, so ceil keeps a subject's times distinct
            data = PanelDataset._from_arrays(data.ids, PanelArrays.build(
                np.ceil(a.t), a.subj, a.counts, a.Z))
            a = data.arrays
        w = np.array(weights[:data.n])
        # no weight on the subjects seen at the first and/or last distinct time
        for q in {"none": [], "first": [0], "last": [-1], "both": [0, -1]}[zero_at]:
            w[a.subj[a.inverse == q % a.times.size]] = 0
        assume(w.sum() > 0)
        explicit = fit(take(data, np.repeat(np.arange(data.n), w)))
        for ef in explicit:
            [wf] = lockstep_fits(data, [ef.cause], w[:, None])
            assert (wf.converged, wf.error) == (ef.converged, ef.error)
            np.testing.assert_allclose(wf.beta, ef.beta, rtol=1e-8)
            np.testing.assert_array_equal(wf.baseline.knots, ef.baseline.knots)
            np.testing.assert_allclose(wf.baseline.values, ef.baseline.values, rtol=1e-8)

    @staticmethod
    def weight_columns(data, draws, min_subjects):
        """One weight column per draw, zero on the subjects seen at the
        first and/or last distinct time as the draw says; columns with
        fewer than `min_subjects` subjects of positive weight are dropped."""
        a = data.arrays
        W = np.array([w[:data.n] for w, _ in draws]).T
        for i, (_, zero_at) in enumerate(draws):
            for q in {"none": [], "first": [0], "last": [-1], "both": [0, -1]}[zero_at]:
                W[a.subj[a.inverse == q % a.times.size], i] = 0
        W = W[:, (W > 0).sum(axis=0) >= min_subjects]
        assume(W.shape[1] > 0)
        return W

    draws = st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=12, max_size=12),
                               st.sampled_from(["none", "first", "last", "both"])),
                     min_size=1, max_size=4)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 12), k=st.integers(1, 3),
           draws=draws)
    def test_every_column_equals_its_explicit_refit(self, seed, n, k, draws):
        # one lockstep call over every (draw, cause) column.  Six or more
        # subjects keep the outcome clear of rounding: with fewer, a
        # near-singular design can stop one Newton step apart or flip
        # between singular and converged under any change in summation
        # order, the explicit refit's own order included
        data = random_small_dataset(np.random.default_rng(seed), n=n, k=k)
        W = self.weight_columns(data, draws, min_subjects=6)
        fits = lockstep_fits(data, np.tile(np.arange(1, k + 1), W.shape[1]),
                             np.repeat(W, k, axis=1))
        for i, w in enumerate(W.T):
            explicit = fit(take(data, np.repeat(np.arange(data.n), w)))
            for lf, ef in zip(fits[i * k:(i + 1) * k], explicit):
                assert (lf.cause, lf.converged, lf.error) == (ef.cause, ef.converged, ef.error)
                np.testing.assert_array_equal(lf.baseline.knots, ef.baseline.knots)
                if ef.converged:  # a failed fit's last iterate is as ill-conditioned as its design
                    np.testing.assert_allclose(lf.beta, ef.beta, rtol=1e-8)
                    np.testing.assert_allclose(lf.baseline.values, ef.baseline.values, rtol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), draws=draws)
    def test_a_column_fits_as_if_alone(self, seed, k, draws):
        # tiny designs: many columns diverge or are singular, and none of
        # that reaches the other columns of the call
        data = random_small_dataset(np.random.default_rng(seed), k=k)
        W = np.repeat(self.weight_columns(data, draws, min_subjects=1), k, axis=1)
        causes = np.tile(np.arange(1, k + 1), W.shape[1] // k)
        start = np.random.default_rng(seed).normal(0, 0.3, size=(causes.size, data.d))
        together = lockstep_fits(data, causes, W, start)
        for c, lf in enumerate(together):
            [alone] = lockstep_fits(data, causes[c:c + 1], W[:, c:c + 1], start[c:c + 1])
            assert (lf.cause, lf.converged, lf.error) == (alone.cause, alone.converged, alone.error)
            assert lf.loglik_trace == alone.loglik_trace
            np.testing.assert_array_equal(lf.beta, alone.beta)
            np.testing.assert_array_equal(lf.baseline.knots, alone.baseline.knots)
            np.testing.assert_array_equal(lf.baseline.values, alone.baseline.values)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
           weights=st.lists(st.integers(0, 3), min_size=6, max_size=6))
    def test_sums_equal_a_loop_over_the_explicit_resample(self, seed, k, weights):
        data = random_small_dataset(np.random.default_rng(seed), k=k)
        w = np.array(weights[:data.n])
        assume(w.sum() > 0)
        idx = np.repeat(np.arange(data.n), w)
        resample = take(data, idx)
        columns = _CauseWorkspace(data, np.arange(1, k + 1), np.repeat(w[:, None], k, axis=1))
        for cause in range(1, k + 1):
            used, _, n_obs, _ = columns._pava[cause - 1]
            per_time = {}  # time -> (observations, count total)
            count_sum = np.zeros(data.n)  # per subject, over its repeats
            for i, s in zip(idx, resample.subjects):
                for t, c in zip(s.times, s.counts[cause - 1]):
                    obs, total = per_time.get(t, (0, 0))
                    per_time[t] = (obs + 1, total + c)
                    count_sum[i] += c
            times = sorted(per_time)
            np.testing.assert_array_equal(columns.times[used], times)
            np.testing.assert_array_equal(n_obs, [per_time[t][0] for t in times])
            np.testing.assert_array_equal(columns.total[cause - 1, used],
                                          [per_time[t][1] for t in times])
            np.testing.assert_array_equal(np.delete(columns.total[cause - 1], used), 0)
            # Z' times the per-subject count sums, 0 at weight 0
            np.testing.assert_array_equal(columns.zcs[cause - 1], data.arrays.Z.T @ count_sum)


@pytest.fixture(scope="module")
def table1_seed0_fit():
    cfg = SimConfig(n=200, beta1=[0.5, -0.5], beta2=[1.0, 0.5], seed=0)
    data = gen_dataset(cfg, np.random.default_rng([0, 0]))
    return data, fit(data)


@pytest.fixture(scope="module")
def fitted():
    data = gen_dataset(table1_config(n=50, seed=41), np.random.default_rng([41, 0]))
    return fit(data)[0]


class TestPredictMean:

    def test_zero_covariates_give_baseline(self, fitted):
        t = float(fitted.baseline.knots[3])
        assert predict_mean(fitted, t, [0.0, 0.0]) == pytest.approx(
            fitted.baseline(t)
        )

    def test_before_first_knot_is_zero(self, fitted):
        assert predict_mean(fitted, fitted.baseline.knots[0] / 2, [0.3, 0.1]) == 0.0

    def test_unit_linear_predictor_shift_multiplies_by_e(self, fitted):
        # adding 1/beta_0 to z_0 adds exactly 1 to the linear predictor
        t = float(fitted.baseline.knots[-1])
        z = np.array([1.0, 0.5])
        z2 = z.copy()
        z2[0] += 1.0 / fitted.beta[0]
        base = predict_mean(fitted, t, z)
        assert predict_mean(fitted, t, z2) == pytest.approx(base * np.e, rel=1e-9)

    def test_wrong_covariate_length_rejected(self, fitted):
        with pytest.raises(ValueError, match="length"):
            predict_mean(fitted, 1.0, [0.0])
