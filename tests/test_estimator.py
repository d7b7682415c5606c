import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse import csr_array

from panelmean import (
    ConvergenceError,
    NumericError,
    PanelDataset,
    SimConfig,
    StepFunction,
    Subject,
    baseline_step,
    beta_step,
    bootstrap_se,
    fit,
    gen_dataset,
    log_pseudo_likelihood,
    parse_panel_csv,
    predict_mean,
    aggregate,
    sandwich_se,
    weighted_isotonic,
    write_panel_csv,
)
from panelmean import estimator
from panelmean.data import PanelArrays
from panelmean.estimator import (_NEWTON_TOL, _CauseWorkspace, _descends, _lockstep,
                                  _profile_grad_hess, _z_range)

from _oracles import (
    alternating_fit,
    baseline_profile_objective,
    baseline_values_by_column,
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

    def test_needs_a_covariate(self):
        data = PanelDataset([Subject("a", [1.0], [[1]], [])], k=1, d=0)
        with pytest.raises(ValueError, match="beta step needs at least one covariate"):
            beta_step(data, 1, flat_baseline(data), [])

    def test_wrong_length_start_rejected(self):
        data = PanelDataset([Subject("a", [1.0], [[1]], [0.0, 1.0])], k=1, d=2)
        with pytest.raises(ValueError, match="beta has length 3, expected 2"):
            beta_step(data, 1, flat_baseline(data), [0.0, 0.0, 0.0])

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


class TestBaselineValues:
    # the workspace forms every column's PAVA inputs as whole arrays and
    # checks them once: each column's baseline is the one solved column by
    # column, bit for bit
    @staticmethod
    def assert_by_column(ws, seed):
        beta = np.random.default_rng(seed).normal(0, 0.5, size=(len(ws._cols), ws.d))
        exposure = ws.exposure(beta)
        values = ws.baseline_values(exposure)
        assert values.tobytes() == baseline_values_by_column(ws, exposure).tobytes()

    def test_stack_of_mixed_sizes(self):
        datasets = [gen_dataset(table1_config(n=n, seed=6), np.random.default_rng([6, rep]))
                    for rep, n in enumerate([20, 333] * 2)]
        self.assert_by_column(_CauseWorkspace(datasets, np.arange(1, 3)), 0)

    @staticmethod
    def weighted_chunk(data):
        """Eight bootstrap-like replicates of both causes, in which about a
        third of the subjects, the first time's among them, weigh 0."""
        W = np.random.default_rng(1).integers(0, 3, size=(data.n, 8)).astype(float)
        W[data.arrays.subj[data.arrays.inverse == 0]] = 0
        return _CauseWorkspace(data, np.tile([1, 2], 8), np.repeat(W, 2, axis=1))

    def test_weighted_chunk_with_zero_weight_subjects(self, table1_dataset_n100):
        ws = self.weighted_chunk(table1_dataset_n100)
        assert (ws.obs[:, 0] == 0).all() and (ws.obs > 0).any(axis=1).all()
        self.assert_by_column(ws, 1)

    def test_single_dataset(self, table1_dataset_n200):
        self.assert_by_column(_CauseWorkspace(table1_dataset_n200, np.arange(1, 3)), 2)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 8), min_size=1, max_size=3),
           k=st.integers(1, 3), reps=st.integers(1, 3))
    def test_random_stacks_equal_the_public_isotonic_regression(self, seed, sizes, k, reps):
        # the oracle calls SciPy's public isotonic_regression, so a change in
        # the compiled PAVA the workspace calls directly shows here.  Zero
        # weights leave times unused, and about half the columns get an
        # exposure under which they are already monotone
        rng = np.random.default_rng(seed)
        datasets = []
        for n in sizes:
            # every count positive, so every used time's count total is, and
            # any increasing values are a column's y at some exposure
            data = random_small_dataset(rng, n=n, k=k)
            datasets.append(PanelDataset([Subject(s.id, s.times, s.counts + 1, s.covariates)
                                          for s in data.subjects], k=k, d=data.d))
        W = rng.integers(0, 3, size=(sum(sizes), reps))
        W[np.cumsum([0, *sizes[:-1]])] += 1  # each dataset's first subject weighs
        ws = _CauseWorkspace(datasets, np.tile(np.arange(1, k + 1), reps), np.repeat(W, k, axis=1))
        exposure = ws.exposure(rng.normal(0, 0.5, size=(len(ws._cols), ws.d)))
        for i, t, _, _ in ws._cols:
            if rng.random() < 0.5:
                used = ws.obs[i, t] > 0  # y = total / exposure: increasing, well apart
                exposure[i, t][used] = ws.total[i, t][used] / np.cumsum(1 + rng.random(used.sum()))
        values = ws.baseline_values(exposure)
        assert values.tobytes() == baseline_values_by_column(ws, exposure).tobytes()

    @pytest.mark.parametrize("bad", [0.0, np.inf, -np.inf, np.nan])
    def test_exposure_checked_at_used_times_only(self, table1_dataset_n100, bad):
        ws = self.weighted_chunk(table1_dataset_n100)
        exposure = ws.exposure(np.zeros((16, 2)))
        values = ws.baseline_values(exposure)
        unused, used = np.flatnonzero(ws.obs[3] == 0)[-1], np.flatnonzero(ws.obs[3] > 0)[-1]
        at_unused = exposure.copy()
        at_unused[3, unused] = bad
        assert ws.baseline_values(at_unused).tobytes() == values.tobytes()
        at_used = exposure.copy()
        at_used[3, used] = bad
        with pytest.raises(NumericError, match="exposure must be finite and strictly positive"):
            ws.baseline_values(at_used)


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
            values = np.sort(rng.uniform(0.3, 2.5, size=ws.r))[None]

            def grad(b):
                return ws.fixed_derivs(ws.evaluate(b[None], values)[1])[0][0]

            hess = ws.fixed_derivs(ws.evaluate(beta[None], values)[1])[1][0]
            fd = np.column_stack([(up - down) / (2 * h)
                                  for up, down in central_differences(grad, beta, h)])
            assert np.linalg.norm(hess - fd) <= 1e-6 * max(1.0, np.linalg.norm(hess))

    def test_profile_hessian_matches_central_differences(self):
        # the profile gradient is smooth while the PAVA blocks stay put
        rng = np.random.default_rng(42)
        h = 1e-6
        checked = 0
        for ws, beta in hessian_draws(rng):
            def grad_and_blocks(b):
                _, state = ws.evaluate(b[None])
                grad, _, _, start = ws.derivs(state)
                return grad[0], start

            sides = central_differences(grad_and_blocks, beta, h)
            if any(not np.array_equal(up[1], down[1]) for up, down in sides):
                continue
            _, state = ws.evaluate(beta[None])
            hess = ws.derivs(state)[1][0]
            fd = np.column_stack([(up[0] - down[0]) / (2 * h) for up, down in sides])
            assert np.linalg.norm(hess - fd) <= 1e-6 * max(1.0, np.linalg.norm(hess))
            checked += 1
        assert checked >= 190



class TestIncidence:
    # _Incidence calls SciPy's compiled kernels as scipy.sparse dispatches
    # them, so its products have a csr_array's bits, in either orientation

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), r=st.integers(1, 12),
           data=st.sampled_from(["ones", "float", "int"]),
           width=st.sampled_from([None, 1, 2, 5]), layout=st.sampled_from(["C", "F", "strided"]),
           transpose=st.booleans())
    def test_products_have_the_bits_of_scipy_sparse(self, seed, n, r, data, width, layout,
                                                    transpose):
        rng = np.random.default_rng(seed)
        visits = rng.integers(0, r + 1, size=n)
        inverse = np.concatenate([np.sort(rng.choice(r, v, replace=False)) for v in visits])
        inc = estimator._subject_incidence(np.repeat(np.arange(n), visits), inverse, n, r)
        if data == "float":
            inc = estimator._with_counts(inc, rng.exponential(5.0, inverse.size))
        elif data == "int":  # as PanelArrays holds counts
            inc = estimator._with_counts(inc, rng.integers(0, 20, inverse.size))
        ref = csr_array((inc.data, inc.indices, inc.indptr), shape=inc.shape)
        if transpose:
            inc, ref = inc.T, ref.T
        size = inc.shape[1]
        # terms of many magnitudes, so that a different order of additions shows
        full = np.exp(rng.normal(0.0, 8.0, (2 * size, width or 1, 2)))
        x = {"C": full[:size, :, 0].copy(), "F": np.asfortranarray(full[:size, :, 0]),
             "strided": full[::2, :, 1]}[layout]
        if width is None:
            x = x[:, 0]
        got, want = inc @ x, ref @ x
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    def test_wrong_length_operand_and_bad_index_pointer_raise(self):
        inc = estimator._subject_incidence(np.array([0, 0, 1]), np.array([0, 2, 1]), 2, 3)
        for bad in (np.ones(2), np.ones((2, 3)), np.ones((3, 1, 1))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                inc @ bad
        assert (inc.T @ np.ones(2)).tolist() == [1.0, 1.0, 1.0]
        for indptr in ([0, 2], [1, 2, 3], [0, 2, 2], [0, 2, 4]):
            with pytest.raises(ValueError, match="index pointer"):
                estimator._Incidence("csr", (2, 3), np.array(indptr), inc.indices, inc.data)

def monthly_dataset(seed, n=2000, k=2):
    """A bootstrap_monthly-shaped dataset: n subjects with 2-8 visits on
    months 1-36, k causes, a Bernoulli and a normal covariate."""
    rng = np.random.default_rng(seed)
    visits = rng.integers(2, 9, size=n)
    months = np.concatenate([np.sort(rng.choice(36, v, replace=False)) + 1.0 for v in visits])
    jumps = rng.poisson(0.3, size=(k, months.size))
    total, first = jumps.cumsum(axis=1), np.cumsum(visits) - visits
    counts = total - np.repeat(total[:, first] - jumps[:, first], visits, axis=1)
    Z = np.column_stack([rng.random(n) < 0.5, rng.normal(0, 0.5, n)]).astype(float)
    return PanelDataset._from_arrays(tuple(map(str, range(n))), PanelArrays.build(
        months, np.repeat(np.arange(n), visits), counts, Z))


class TestFixedDerivatives:
    # each column's gradient and Hessian at a fixed baseline are one
    # matrix-vector product of its dataset's covariate products with its
    # part of mu

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_covariate_products_are_z_and_its_pairwise_products(self, d):
        data = random_small_dataset(np.random.default_rng(d), n=40, d=d)
        Z = data.arrays.Z
        products = data.arrays._covariate_products
        expected = [Z[:, l] for l in range(d)]
        expected += [Z[:, l] * Z[:, m] for l, m in zip(*np.triu_indices(d))]
        assert products.shape == (len(expected), data.n)
        for row, want in zip(products, expected):
            assert row.tobytes() == want.tobytes()
        assert not products.flags.writeable
        assert data.arrays._covariate_products is products  # made once per dataset

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_the_per_column_formula(self, d):
        # against Z'mu and Z' diag(mu) Z column by column, within 1e-13 of
        # the sum of the terms' magnitudes: the sums add the same terms in
        # another order, and entries that cancel have no finer scale
        rng = np.random.default_rng(60 + d)
        for _ in range(25):
            data = random_small_dataset(rng, n=int(rng.integers(2, 300)), k=2, d=d)
            causes = np.array([1, 2, 2])
            ws = _CauseWorkspace(data, causes, rng.integers(0, 4, size=(data.n, 3)))
            mu = rng.uniform(0.01, 5.0, size=(data.n, 3))
            grad, hess = ws._fixed_grad_hess(mu)
            Z, A = data.arrays.Z, np.abs(data.arrays.Z)
            for c, row in enumerate(mu.T):
                np.testing.assert_array_less(np.abs(grad[c] - (ws.zcs[c] - Z.T @ row)),
                                             1e-13 * (np.abs(ws.zcs[c]) + A.T @ row))
                np.testing.assert_array_less(np.abs(hess[c] + (Z * row[:, None]).T @ Z),
                                             1e-13 * ((A * row[:, None]).T @ A))
                assert hess[c].tobytes() == hess[c].T.tobytes()

    def test_a_column_is_the_same_alone_in_a_chunk_and_in_a_stack(self):
        # bit for bit: in a 62-column chunk of bootstrap weights on the
        # monthly shape, alone, and beside datasets of other sizes
        data = monthly_dataset(25)
        rng = np.random.default_rng(25)
        causes = np.tile([1, 2], 31)
        weights = rng.integers(0, 4, size=(data.n, causes.size)).astype(float)
        mu = rng.uniform(0.1, 3.0, size=(data.n, causes.size))
        grad, hess = _CauseWorkspace(data, causes, weights)._fixed_grad_hess(mu)
        for c in (0, 1, 30, 61):
            alone = _CauseWorkspace(data, causes[[c]], weights[:, [c]])._fixed_grad_hess(
                mu[:, [c]])
            assert alone[0][0].tobytes() == grad[c].tobytes()
            assert alone[1][0].tobytes() == hess[c].tobytes()

        small, large = (gen_dataset(table1_config(n=n, seed=25), np.random.default_rng([25, n]))
                        for n in (20, 333))
        stack = _CauseWorkspace([small, data, large], np.arange(1, 3))
        mu = rng.uniform(0.1, 3.0, size=(stack.n, 2))
        grad, hess = stack._fixed_grad_hess(mu)
        alone = _CauseWorkspace(data, np.arange(1, 3))._fixed_grad_hess(
            mu[stack.first[1]:stack.first[2]])
        assert grad[2:4].tobytes() == alone[0].tobytes()
        assert hess[2:4].tobytes() == alone[1].tobytes()


class TestBlockSums:
    # derivs sums w exp(beta'z) z_l per time through the incidence whose
    # entries are the epochs' z_l.  With the products formed first, the
    # kernel multiplies 1.0 * (w exp(beta'z) z_l), which is exact even as a
    # fused multiply-add; with z_l in the incidence it multiplies
    # z_l * w exp(beta'z), which a fused multiply-add would add unrounded.
    # The bits are equal only while the kernels round every product, which
    # this test holds at the widths of csc_matvec (1) and csc_matvecs

    @pytest.mark.parametrize("kk", [1, 2, 62])
    def test_covariate_incidences_have_the_bits_of_the_formed_products(self, kk):
        rng = np.random.default_rng(40 + kk)
        if kk == 1:  # one column on many distinct times, as a continuous fit
            data = gen_dataset(table1_config(n=400), np.random.default_rng([40, kk]))
            ws = _CauseWorkspace(data, 1)
        elif kk == 2:  # a stack of Table-1 datasets, one column per cause
            ws = _CauseWorkspace([gen_dataset(table1_config(n=n), np.random.default_rng([40, n]))
                                  for n in (50, 120, 80)], np.arange(1, 3))
        else:  # a chunk of bootstrap columns on the monthly shape
            data = monthly_dataset(40)
            ws = _CauseWorkspace(data, np.tile([1, 2], kk // 2),
                                 rng.integers(0, 4, size=(data.n, kk)).astype(float))
        # terms of many magnitudes, so that a different rounding shows
        wez = np.exp(rng.normal(0.0, 8.0, (ws.n, ws.kk))) * ws.w
        assert len(ws.z_inc) == ws.d
        for inc_l, z in zip(ws.z_inc, ws.Z.T):
            got, want = inc_l @ wez, ws.inc @ (wez * z[:, None])
            assert got.shape == (ws.r, ws.kk)
            assert got.tobytes() == want.tobytes()

    def test_epoch_covariates_are_each_epochs_z_made_once(self):
        data = random_small_dataset(np.random.default_rng(41), n=30, k=2, d=3)
        a = data.arrays
        z = a._epoch_covariates
        assert z.tobytes() == np.ascontiguousarray(a.Z[a.subj].T).tobytes()
        assert z.shape == (data.d, a.t.size) and z.flags.c_contiguous and not z.flags.writeable
        assert a._epoch_covariates is z


class TestFit:
    @pytest.mark.parametrize("one_trial", [False, True])
    def test_path_state_is_a_fresh_evaluation_at_the_path_beta(self, table1_dataset_n100,
                                                              monkeypatch, one_trial):
        # an accepted trial becomes the path's state, the cells of the
        # columns it refused set to the path's: on a call where a halving
        # both accepts and refuses, and where columns stop at different
        # steps (column 0 at its start), the state is every column's own
        # evaluation at its last beta.  A later trial evaluates a refused
        # column at its path's row again, so only the last trial's refused
        # cells last: with one step of one halving, a column the trial
        # refuses stops there (no_ascent) and keeps them
        data, causes = table1_dataset_n100, np.tile([1, 2], 3)
        fits = fit(data)
        if one_trial:
            monkeypatch.setattr(estimator, "_MAX_HALVINGS", 1)
            monkeypatch.setattr(estimator, "_MAX_STEPS", 1)
        rng = np.random.default_rng(4)
        weights = rng.integers(0, 3, size=(data.n, causes.size)).astype(float)
        weights[:, 0] = 1.0
        start = np.array([fits[c - 1].beta for c in causes])
        start[2:] += rng.normal(0.0, 4.0, size=(4, data.d))
        mixed = []
        accept = estimator._Path.accept

        def recorded(path, ws, took, refused, *args):
            mixed.append(took.any() and refused.any())
            return accept(path, ws, took, refused, *args)

        monkeypatch.setattr(estimator._Path, "accept", recorded)
        ws = _CauseWorkspace(data, causes, weights)
        path = estimator._newton(ws, start, ws.evaluate, ws.derivs)
        assert any(mixed)
        steps = [len(trace) for trace in path.trace]
        assert steps[0] == 1 and len(set(steps)) > (1 if one_trial else 2)
        assert ("no_ascent" in path.stop) is one_trial
        ll, fresh = ws.evaluate(path.beta)
        for kept, new in zip(path.state, fresh):
            assert kept.tobytes() == new.tobytes()
        assert ll.tolist() == [trace[-1] for trace in path.trace]

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

    def test_all_zero_counts_are_singular(self):
        # log-likelihood is exactly 0 at the zero baseline for every beta,
        # and so are the gradient and the information: beta is not
        # identified, and the fit says so at its start
        subjects = [
            Subject(str(i), [1.0 + i, 2.0 + i], [[0, 0]], [float(i % 2)])
            for i in range(6)
        ]
        data = PanelDataset(subjects, k=1, d=1)
        cf = fit(data)[0]
        assert not cf.converged and cf.error == estimator._STOPS["singular"][1]
        np.testing.assert_array_equal(cf.baseline.values, 0.0)
        assert cf.loglik_trace == [0.0]

    def test_collinear_covariates_at_a_flat_start_are_singular(self):
        # z2 = 2 z1 and every subject alike in its counts: the gradient is
        # already 0 at beta = 0, but the information is singular there, so
        # the fit is not reported as converged
        subjects = [Subject(f"s{i}", [1.0, 2.0], [[1, 2]], [float(i), 2.0 * i])
                    for i in range(5)]
        cf = fit(PanelDataset(subjects, k=1, d=2))[0]
        assert not cf.converged and cf.iterations == 1
        assert cf.error == estimator._STOPS["singular"][1]
        np.testing.assert_array_equal(cf.beta, [0.0, 0.0])

    def test_decreasing_trace_raises_numeric_error(self, monkeypatch):
        assert not _descends([1.0, 2.0, 2.0])
        assert _descends([2.0, 1.0])
        # a trace that descends stops its column as `descent`, which beta_step raises
        monkeypatch.setattr(estimator, "_descends", lambda trace: True)
        subjects = [Subject("a", [1.0], [[1]], [0.0]), Subject("b", [1.0], [[2]], [1.0])]
        with pytest.raises(NumericError, match="log-likelihood trace decreased"):
            beta_step(PanelDataset(subjects, k=1, d=1), 1, StepFunction([1.0], [1.0]), [0.0])

    def test_max_iter_reached_flags_not_converged(self, monkeypatch):
        cfg_sim = table1_config(n=40, seed=53)
        data = gen_dataset(cfg_sim, np.random.default_rng([53, 0]))
        monkeypatch.setattr(estimator, "_MAX_STEPS", 2)
        cf = fit(data)[0]
        assert not cf.converged and cf.iterations == 2 and cf.error is None

    @staticmethod
    def one_level_without_events(z0):
        """Six subjects on z = z0 + i % 2, with no events at z0 + 1."""
        return PanelDataset([
            Subject(f"s{i}", [1.0 + 0.01 * i, 2.0 + 0.01 * i], [[0, 3 * (1 - i % 2)]],
                    [z0 + i % 2])
            for i in range(6)], k=1, d=1)

    @pytest.mark.parametrize("stop", ["gradient", "diverged", "singular", "no_ascent",
                                      "step_cap"])
    def test_fit_reports_how_it_stopped(self, monkeypatch, stop):
        # one input per code, those of the tests above
        if stop in ("diverged", "no_ascent"):
            data = self.one_level_without_events(0.0 if stop == "diverged" else 46.0)
        else:
            cfg = table1_config(n=40, seed=53)
            if stop == "singular":  # z1 = 1 for everyone
                cfg = SimConfig(n=40, beta1=[0.5, -0.5], beta2=[-1.0, 0.5], bernoulli_p=1.0,
                                seed=42)
            data = gen_dataset(cfg, np.random.default_rng([cfg.seed, 0]))
        if stop == "step_cap":
            monkeypatch.setattr(estimator, "_MAX_STEPS", 2)
        cf = fit(data)[0]
        assert cf.stop == stop
        assert cf.converged is (stop == "gradient")
        assert cf.error == (None if stop == "step_cap" else estimator._STOPS[stop][1])


class TestStackedFit:
    # fit(sequence) fits consecutive datasets as columns of one workspace,
    # each over its own dataset's subjects and times only: the fits of
    # each dataset alone, bit for bit
    @staticmethod
    def assert_same_fits(stacked, alone, datasets):
        assert len(stacked) == len(alone) == sum(d.k for d in datasets)
        owners = [d for d in datasets for _ in range(d.k)]
        for s, a, data in zip(stacked, alone, owners):
            assert (s.cause, s.iterations, s.converged, s.error) == \
                (a.cause, a.iterations, a.converged, a.error)
            assert s.baseline.knots.tobytes() == a.baseline.knots.tobytes()
            assert s.beta.tobytes() == a.beta.tobytes()
            assert s.baseline.values.tobytes() == a.baseline.values.tobytes()
            assert s.loglik_trace == a.loglik_trace
            assert s._arrays is data.arrays

    def assert_stack_fits_alone(self, monkeypatch, datasets):
        alone = [cf for data in datasets for cf in fit(data)]
        stacked = fit(datasets)
        self.assert_same_fits(stacked, alone, datasets)
        owners = [d for d in datasets for _ in range(d.k)]
        alone_cov = [sandwich_se(data, a).cov if a.converged else None
                     for a, data in zip(alone, owners)]
        # the stacked fits' sandwich reads their own last evaluation, cut to
        # their dataset: it builds no workspace
        monkeypatch.setattr(estimator, "_CauseWorkspace", None)
        for s, cov, data in zip(stacked, alone_cov, owners):
            if cov is not None:
                assert sandwich_se(data, s).cov.tobytes() == cov.tobytes()

    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("n", [20, 37, 101, 200, 333])
    def test_stack_of_five_matches_each_fit_alone(self, monkeypatch, n, seed):
        cfg = table1_config(n=n, seed=seed)
        datasets = [gen_dataset(cfg, np.random.default_rng([seed, rep])) for rep in range(5)]
        monkeypatch.setattr(estimator, "_CHUNK_FLOATS", 2**20)  # the five in one stack
        assert [len(stack) for stack in estimator._stacks(datasets)] == [5]
        self.assert_stack_fits_alone(monkeypatch, datasets)

    def test_largest_stack_matches_each_fit_alone(self, monkeypatch):
        # at n = 20 the default bound makes the largest stacks
        cfg = table1_config(n=20, seed=4)
        datasets = [gen_dataset(cfg, np.random.default_rng([4, rep])) for rep in range(40)]
        sizes = [len(stack) for stack in estimator._stacks(datasets)]
        assert len(sizes) > 1 and sizes[0] >= 12
        stack = datasets[:sizes[0]]
        # _lockstep does not split it: its columns are one chunk
        chunks = estimator._lockstep(stack, np.arange(1, 3), np.zeros((2 * len(stack), 2)))
        assert [cols.size for cols, _, _ in chunks] == [2 * len(stack)]
        self.assert_stack_fits_alone(monkeypatch, stack)

    def test_stack_of_mixed_sizes_matches_each_fit_alone(self, monkeypatch):
        # n = 20 and n = 333 in turn: the datasets' time axes differ
        # about 17-fold in length
        datasets = [gen_dataset(table1_config(n=n, seed=6), np.random.default_rng([6, rep]))
                    for rep, n in enumerate([20, 333] * 3)]
        monkeypatch.setattr(estimator, "_CHUNK_FLOATS", 2**20)  # the six in one stack
        assert [len(stack) for stack in estimator._stacks(datasets)] == [6]
        self.assert_stack_fits_alone(monkeypatch, datasets)

    @pytest.mark.parametrize("seed", range(10))
    def test_a_column_does_not_depend_on_its_stack_mates(self, seed):
        a, b, c = (gen_dataset(table1_config(n=n, seed=seed), np.random.default_rng([seed, n]))
                   for n in (200, 20, 333))
        assert [len(stack) for stack in estimator._stacks([c, a])] == [2]
        beside_b, beside_c = fit([b, a])[2:], fit([c, a])[2:]
        for x, y in zip(beside_b, beside_c):
            assert x.beta.tobytes() == y.beta.tobytes()
            assert x.baseline.values.tobytes() == y.baseline.values.tobytes()
            assert x.loglik_trace == y.loglik_trace

    def test_sequence_of_one_is_the_dataset(self, table1_dataset_n100):
        # a stack of one is the single-dataset fit, bit for bit
        for s, a in zip(fit([table1_dataset_n100]), fit(table1_dataset_n100)):
            assert s.beta.tobytes() == a.beta.tobytes()
            assert s.baseline.values.tobytes() == a.baseline.values.tobytes()
            assert s.loglik_trace == a.loglik_trace
        assert fit([]) == []

    def test_diverging_dataset_fails_alone_in_its_stack(self):
        # no cause-1 events where z1 = 1 in the middle dataset: its cause-1
        # beta diverges, and every other column fits as it does alone
        cfg = table1_config(n=40, seed=12)
        datasets = [gen_dataset(cfg, np.random.default_rng([12, rep])) for rep in range(3)]
        datasets[1] = PanelDataset(
            [Subject(s.id, s.times, np.vstack([s.counts[0] * (s.covariates[0] == 0), s.counts[1]]),
                     s.covariates) for s in datasets[1].subjects], k=2, d=2)
        assert [len(stack) for stack in estimator._stacks(datasets)] == [3]
        alone = [cf for data in datasets for cf in fit(data)]
        stacked = fit(datasets)
        self.assert_same_fits(stacked, alone, datasets)
        assert [cf.error is None for cf in stacked] == [True, True, False, True, True, True]
        assert stacked[2].error.startswith("beta diverged")

    @pytest.mark.parametrize("k, d", [(1, 2), (2, 1)])
    def test_mixed_causes_or_covariates_rejected(self, table1_dataset_n100, k, d):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="same numbers of causes and covariates"):
            fit([table1_dataset_n100, random_small_dataset(rng, n=6, k=k, d=d)])


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

    def test_memory_order_of_covariates_does_not_matter(self):
        # a fit's last bits depend on Z's memory order, so PanelArrays.build
        # stores Z in C order, as every constructor makes it
        for seed in range(10):
            data = gen_dataset(table1_config(n=40), np.random.default_rng([seed, 0]))
            a = data.arrays
            f_order = PanelDataset._from_arrays(data.ids, PanelArrays.build(
                a.t, a.subj, a.counts, np.asfortranarray(a.Z)))
            for cf, ff in zip(fit(data), fit(f_order)):
                assert (ff.converged, ff.error, ff.loglik_trace) == \
                    (cf.converged, cf.error, cf.loglik_trace)
                np.testing.assert_array_equal(ff.beta, cf.beta)
                np.testing.assert_array_equal(ff.baseline.values, cf.baseline.values)

    TIME_MAPS = {"2t": lambda t: 2 * t, "exp(t/10)": lambda t: np.exp(t / 10),
                 "sqrt(t)+1000": lambda t: np.sqrt(t) + 1000}

    @settings(max_examples=60, deadline=None)
    @given(data=table1_datasets(),
           change=st.sampled_from([*TIME_MAPS, "causes", "ids", "covariates"]))
    def test_incidental_choices_leave_fit_and_covariances_as_they_are(
            self, tmp_path_factory, data, change):
        # fit, the sandwich of each cause and the bootstrap (B = 20) agree
        # bit for bit under a strictly increasing map of time (the fit sees
        # times only through their order), permuted causes (a bootstrap
        # replicate's causes share one draw) and relabelled ids (subjects
        # keep their first-appearance order through the CSV).  Permuted
        # covariate columns sum in another order: rtol 1e-12, taken for a
        # covariance relative to its largest entry, as an off-diagonal one
        # can be near 0.  Over 300 draws, covariance entries agreed within
        # 3.7e-14 of the largest and beta within 4.7e-14, while one entry at
        # a correlation of 3e-5 was 3.6e-12 off relative to itself
        a = data.arrays
        causes, columns = [0, 1], [0, 1]
        if change == "ids":  # descending labels: sorting them would reverse the subjects
            path = tmp_path_factory.mktemp("ids") / "relabelled.csv"
            write_panel_csv(PanelDataset._from_arrays(
                tuple(f"s{data.n - i:03d}" for i in range(data.n)), a), path)
            other = parse_panel_csv(path)
        else:
            t, counts, Z = a.t, a.counts, a.Z
            if change in self.TIME_MAPS:
                t = self.TIME_MAPS[change](t)
            elif change == "causes":
                causes = [1, 0]
                counts = counts[causes]
            else:
                columns = [1, 0]
                Z = Z[:, columns]
            other = PanelDataset._from_arrays(data.ids, PanelArrays.build(t, a.subj, counts, Z))
        assert other.arrays.times.size == a.times.size
        fits, other_fits = converged_fit(data), fit(other)
        boot, other_boot = bootstrap_se(data, B=20), bootstrap_se(other, B=20)
        block = np.ix_(columns, columns)
        for j, c in enumerate(causes):
            cf, of = fits[c], other_fits[j]
            assert of.converged
            for got, want in [(of.beta, cf.beta[columns]),
                              (of.baseline.values, cf.baseline.values),
                              (sandwich_se(other, of).cov, sandwich_se(data, cf).cov[block]),
                              (other_boot[j].cov, boot[c].cov[block])]:
                if change == "covariates":
                    np.testing.assert_allclose(got, want, rtol=1e-12,
                                               atol=1e-12 * np.abs(want).max())
                else:
                    assert got.tobytes() == want.tobytes()


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

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_z_range_equals_the_masked_max_and_min(self, seed, n):
        rng = np.random.default_rng(seed)
        # few distinct values, so ties are common; z3 is 0 for all
        Z = np.column_stack([rng.integers(-2, 3, size=(n, 2)) * 0.5, np.zeros(n)])
        active = rng.random((n, 6)) < rng.random(6)
        active[:, 0] = np.arange(n) == rng.integers(n)  # one subject
        active[:, 1] = Z[:, 0] == Z[rng.integers(n), 0]  # z1 constant over its subjects
        active[:, 2] = False  # no subject: inf, as the max and min of no value give
        active[:, 3] = True
        hi = np.stack([np.where(active, z[:, None], -np.inf).max(axis=0) for z in Z.T], axis=1)
        lo = np.stack([np.where(active, z[:, None], np.inf).min(axis=0) for z in Z.T], axis=1)
        spread = hi - lo
        shared = np.where(spread > 0, spread, np.abs(hi))
        want = np.where(shared > 0, shared, 1.0)
        got = _z_range(Z, np.argsort(Z.T, axis=1), active)
        assert got.tobytes() == want.tobytes()
        assert (got[2] == np.inf).all() and got[1, 0] == (abs(Z[active[:, 1], 0][0]) or 1.0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), stacked=st.integers(1, 3))
    def test_unit_weight_z_range_is_the_plain_max_and_min(self, seed, k, stacked):
        rng = np.random.default_rng(seed)
        datasets = [random_small_dataset(rng, k=k, d=3) for _ in range(stacked)]
        const = rng.normal()
        datasets[::2] = [  # a constant covariate, and one that is 0 for all
            PanelDataset([Subject(s.id, s.times, s.counts, [s.covariates[0], const, 0.0])
                          for s in data.subjects], k=k, d=3) for data in datasets[::2]]
        ws = _CauseWorkspace(datasets, np.arange(1, k + 1))
        for j, data in enumerate(datasets):
            zt = data.arrays.Z.T.copy()
            hi, lo = zt.max(axis=1), zt.min(axis=1)
            spread = hi - lo
            shared = np.where(spread > 0, spread, np.abs(hi))
            want = np.tile(np.where(shared > 0, shared, 1.0), (k, 1))
            assert ws.z_range[j * k:(j + 1) * k].tobytes() == want.tobytes()

    def test_workspaces_of_a_dataset_share_one_covariate_order(self, monkeypatch):
        data = random_small_dataset(np.random.default_rng(5), n=6, k=2, d=3)
        orders = []
        z_range = estimator._z_range
        monkeypatch.setattr(estimator, "_z_range",
                            lambda Z, order, active: orders.append(order) or z_range(Z, order, active))
        _CauseWorkspace(data, 1)
        _CauseWorkspace(data, np.array([1, 2]), np.array([[0, 1], [2, 1]] * 3))
        _CauseWorkspace([data, data], 2)
        order = data.arrays._covariate_order
        assert len(orders) == 4 and all(o is order for o in orders)
        assert order.shape == (data.d, data.n) and not order.flags.writeable
        with pytest.raises(ValueError):
            order[0, 0] = 1
        zt = data.arrays.Z.T
        np.testing.assert_array_equal(np.take_along_axis(zt, order, axis=1), np.sort(zt, axis=1))

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
            n_obs = columns.obs[cause - 1]  # weighted observations per time
            used = n_obs > 0
            per_time = {}  # time -> (observations, count total)
            count_sum = np.zeros(data.n)  # per subject, over its repeats
            for i, s in zip(idx, resample.subjects):
                for t, c in zip(s.times, s.counts[cause - 1]):
                    obs, total = per_time.get(t, (0, 0))
                    per_time[t] = (obs + 1, total + c)
                    count_sum[i] += c
            times = sorted(per_time)
            np.testing.assert_array_equal(columns.times[used], times)
            np.testing.assert_array_equal(n_obs[used], [per_time[t][0] for t in times])
            np.testing.assert_array_equal(columns.total[cause - 1, used],
                                          [per_time[t][1] for t in times])
            np.testing.assert_array_equal(columns.total[cause - 1, ~used], 0)
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


class TestOverflowGuard:
    # |beta'z| > _MAX_LP: the fit's evaluation reports -inf without forming
    # exp(beta'z); the public wrappers keep no guard of their own
    @pytest.fixture(scope="class")
    def data(self):
        cfg = SimConfig(n=200, beta1=[.5, -.5], beta2=[1, .5], seed=0)
        return gen_dataset(cfg, np.random.default_rng([0, 0]))

    def test_lockstep_column_beyond_the_guard_leaves_the_others_alone(self, data):
        start = np.array([[1000.0, 1000.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bad, good = [ws.cause_fit(path, i)
                         for cols, ws, path in _lockstep(data, np.array([1, 1]), start)
                         for i in range(cols.size)]
        assert bad.error == "objective not finite at the starting point"
        assert not bad.converged
        [solo] = fit(data.select_cause(1))
        assert good.beta.tobytes() == solo.beta.tobytes()
        assert good.loglik_trace == solo.loglik_trace
        assert good.baseline.knots.tobytes() == solo.baseline.knots.tobytes()
        assert good.baseline.values.tobytes() == solo.baseline.values.tobytes()
        assert (good.iterations, good.converged, good.error) == (solo.iterations, True, None)

    def test_zero_weight_subject_beyond_the_guard_flags_no_column(self, data):
        # subject 0's z_1 = 1e4 puts its beta'z beyond _MAX_LP on every
        # evaluation from beta = 1, so the guard trips each time.  Where it
        # weighs 0 the guard masks it before judging the columns, and the
        # column is the fit with its z_1 ordinary, bit for bit: both add
        # only zeros for it.  Where it weighs 1 its column stops at the start
        def with_z1(value):
            return PanelDataset([Subject(s.id, s.times, s.counts,
                                         [value, s.covariates[1]] if i == 0 else s.covariates)
                                 for i, s in enumerate(data.subjects)], k=data.k, d=data.d)

        W = np.random.default_rng(8).integers(1, 3, size=(data.n, 3)).astype(float)
        W[0] = [0.0, 0.0, 1.0]
        causes, start = [1, 2, 1], np.ones((3, data.d))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            far = lockstep_fits(with_z1(1e4), causes, W, start)
            near = lockstep_fits(data, causes, W, start)
        for a, b in zip(far[:2], near[:2]):
            assert a.converged and abs(a.beta[0]) * 1e4 > 600  # tripped at the end too
            assert a.beta.tobytes() == b.beta.tobytes()
            assert a.loglik_trace == b.loglik_trace
            assert a.baseline.knots.tobytes() == b.baseline.knots.tobytes()
            assert a.baseline.values.tobytes() == b.baseline.values.tobytes()
        assert far[2].error == "objective not finite at the starting point"
        assert near[2].converged

    def test_public_wrappers_beyond_the_guard(self, data):
        baseline = fit(data)[0].baseline
        with np.errstate(over="ignore"):
            assert log_pseudo_likelihood(data, 1, [1000.0, 1000.0], baseline) == -np.inf
            with pytest.raises(NumericError):
                baseline_step(data, 1, [1000.0, 1000.0])
            with pytest.raises(NumericError):
                beta_step(data, 1, baseline, [1000.0, 1000.0])
        # underflow alone is no overflow: exp(beta'z) is 0 for z_1 = 1
        ll = log_pseudo_likelihood(data, 1, [-1000.0, 0.0], baseline)
        assert np.isfinite(ll)
        ref = naive_loglik(data, 1, [-1000.0, 0.0], baseline.knots, baseline.values)
        assert ll == pytest.approx(ref, rel=1e-12)

    def test_overflowed_exposure_on_a_zero_baseline_is_minus_inf(self, data):
        # exp(beta'z) = inf meets v = 0 at the first times: 0 * inf counts as 0
        fitted = fit(data)[0].baseline
        values = fitted.values.copy()
        values[:5] = 0.0
        baseline = StepFunction(fitted.knots, values)
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert log_pseudo_likelihood(data, 1, [1000.0, 1000.0], baseline) == -np.inf


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

    def test_array_time_is_baseline_times_exp_lp_and_flat_after_the_last_knot(self, fitted):
        knots = fitted.baseline.knots
        t = np.array([knots[0] / 2, knots[0], knots[knots.size // 2], knots[-1], 2 * knots[-1]])
        z = [1.0, -0.4]
        pred = predict_mean(fitted, t, z)
        np.testing.assert_allclose(pred, fitted.baseline(t) * np.exp(fitted.beta @ z), rtol=1e-15)
        assert pred[0] == 0.0 and pred[-1] == pred[-2]
        assert predict_mean(fitted, t[2], z) == pred[2]

    def test_no_covariates_take_an_empty_z(self):
        [cf] = fit(random_small_dataset(np.random.default_rng(45), d=0))
        t = cf.baseline.knots[-1]
        assert predict_mean(cf, t, []) == cf.baseline(t)

    def test_nan_time_gives_nan(self, fitted):
        assert np.isnan(predict_mean(fitted, np.nan, [0.3, 0.1]))

    def test_wrong_covariate_length_rejected(self, fitted):
        with pytest.raises(ValueError, match="length"):
            predict_mean(fitted, 1.0, [0.0])
