import numpy as np
import pytest

from qnbench import rng
from qnbench.objectives import AssumptionViolationError
from qnbench.glmsim import (
    GlmModelConfig,
    default_covariance_diagonal,
    early_stop_by_validation,
    fit_loglog_slope,
    generate_dataset,
    high_snr_config,
    low_snr_config,
    low_snr_population_objective,
    run_glm_method,
    run_radius_sweep,
    scalar_moment_ratio,
    split_train_validation,
)
from qnbench.solvers import SolverConfig, run_bfgs


class TestConfig:
    def test_default_covariance_halves_per_axis(self):
        assert default_covariance_diagonal(3) == pytest.approx([0.25, 0.0625, 0.015625])

    def test_low_snr_requires_zero_truth(self):
        with pytest.raises(ValueError):
            GlmModelConfig(2, 2, np.array([0.1, 0.0]), regime="low-snr")

    def test_high_snr_requires_unit_truth(self):
        with pytest.raises(ValueError):
            GlmModelConfig(2, 2, np.array([2.0, 0.0]), regime="high-snr")

    def test_high_snr_helper_draws_unit_vector(self):
        config = high_snr_config(4, 2, seed=5)
        assert np.linalg.norm(config.theta_star) == pytest.approx(1.0, abs=1e-12)

    def test_full_covariance_must_be_spd(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(ValueError):
            GlmModelConfig(2, 2, np.zeros(2), cov=bad)

    def test_full_covariance_square_root(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        config = GlmModelConfig(2, 2, np.zeros(2), cov=cov)
        assert config.cov_sqrt @ config.cov_sqrt.T == pytest.approx(cov, rel=1e-12)


class TestLowSnrPopulationObjective:
    def test_scalar_value(self):
        config = low_snr_config(1, 2, cov=np.ones(1), noise_std=0.0)
        obj = low_snr_population_objective(config)
        assert obj.value(np.array([1.0])) == pytest.approx(3.0, rel=1e-14)

    def test_noise_floor_at_origin(self):
        config = low_snr_config(3, 2, cov=np.ones(3), noise_std=1.3)
        obj = low_snr_population_objective(config)
        assert obj.value(np.zeros(3)) + config.noise_var == 1.3 ** 2

    def test_p3_example(self):
        config = low_snr_config(2, 3, cov=np.ones(2), noise_std=1.0)
        obj = low_snr_population_objective(config)
        loss = obj.value(np.array([1.0, 0.0])) + config.noise_var
        assert loss == pytest.approx(16.0, rel=1e-14)

    def test_even_in_theta(self):
        cov = np.array([[1.09, 0.21], [0.21, 0.49]])
        obj = low_snr_population_objective(low_snr_config(2, 2, cov=cov, noise_std=0.5))
        theta = rng.normals(46, 2)
        assert obj.value(theta) == obj.value(-theta)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_the_gaussian_moment_formula(self, p):
        # E (x' theta)**(2p) = (2p-1)!! ||S theta||**(2p) for x ~ N(0, S S')
        config = low_snr_config(4, p)
        obj = low_snr_population_objective(config)
        assert obj.q == 2 * p
        assert obj.condition_number == pytest.approx(8.0, rel=1e-12)
        coeff = {2: 3, 3: 15}[p]
        for seed in range(10):
            theta = rng.normals(rng.derive_seed(47, p, seed), 4)
            expected = coeff * np.linalg.norm(config.cov_sqrt @ theta) ** (2 * p)
            assert obj.value(theta) == pytest.approx(expected, rel=1e-14)

    def test_rejects_high_snr(self):
        with pytest.raises(ValueError, match="low SNR"):
            low_snr_population_objective(high_snr_config(2, 2, seed=5))

    def test_gram_floor_rejects_the_decaying_covariance_from_d_18(self):
        low_snr_population_objective(low_snr_config(17, 2))
        with pytest.raises(AssumptionViolationError):
            low_snr_population_objective(low_snr_config(18, 2))


class TestGenerateDataset:
    def test_bit_identical_for_identical_seeds(self):
        config = low_snr_config(3, 2)
        a = generate_dataset(config, 128, seed=9)
        b = generate_dataset(config, 128, seed=9)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        config = low_snr_config(3, 2)
        a = generate_dataset(config, 64, seed=9)
        b = generate_dataset(config, 64, seed=10)
        assert not np.array_equal(a.x, b.x)

    def test_degenerate_model_yields_zero_labels(self):
        config = low_snr_config(2, 2, noise_std=0.0)
        loss = generate_dataset(config, 50, seed=11)
        assert np.all(loss.y == 0.0)

    def test_noiseless_link_is_exact(self):
        config = high_snr_config(1, 2, seed=12, noise_std=0.0)
        loss = generate_dataset(config, 80, seed=12)
        expected = (loss.x[:, 0] * config.theta_star[0]) ** 2
        assert np.array_equal(loss.y, expected)

    def test_labels_have_zero_mean_under_pure_noise(self):
        config = low_snr_config(1, 2)
        n = 100_000
        loss = generate_dataset(config, n, seed=13)
        # y = (x theta*)^2 + noise with theta* = 0: mean must be near 0
        assert abs(np.mean(loss.y)) <= 4.0 / np.sqrt(n)

    def test_sign_symmetry_for_even_link(self):
        base = high_snr_config(3, 2, seed=14)
        flipped = GlmModelConfig(
            3, 2, -base.theta_star, cov=base.cov, noise_std=base.noise_std,
            regime="high-snr",
        )
        a = generate_dataset(base, 60, seed=15)
        b = generate_dataset(flipped, 60, seed=15)
        assert np.array_equal(a.y, b.y)


class TestSplit:
    def test_contiguous_ninety_ten(self):
        config = low_snr_config(2, 2)
        full = generate_dataset(config, 100, seed=16)
        train, val = split_train_validation(full)
        assert train.n == 90 and val.n == 10
        assert np.array_equal(np.vstack([train.x, val.x]), full.x)

    def test_tiny_datasets_keep_both_sides_nonempty(self):
        config = low_snr_config(1, 2)
        full = generate_dataset(config, 2, seed=17)
        train, val = split_train_validation(full)
        assert train.n == 1 and val.n == 1


class TestScalarOptimum:
    def test_even_power_negative_ratio_gives_origin(self):
        # a negative ratio leaves the origin the even-power loss's only
        # stationary point
        from qnbench.objectives import EmpiricalGlmLoss

        loss = EmpiricalGlmLoss(np.ones(4), -np.ones(4), 2)
        assert scalar_moment_ratio(loss) < 0

    def test_all_zero_features_rejected(self):
        from qnbench.objectives import EmpiricalGlmLoss

        loss = EmpiricalGlmLoss(np.zeros(5), np.ones(5), 2)
        with pytest.raises(ValueError):
            scalar_moment_ratio(loss)

    def test_low_snr_magnitude_shrinks_at_quarter_rate(self):
        # the stationary scale |ratio|^(1/p) ~ n^(-1/4): median over 40
        # seeds, three sample sizes.  (The signed optimum is 0 whenever the
        # even-power ratio comes out negative, which pure noise does half
        # the time, so the rate lives in the magnitude of the ratio.)
        config = low_snr_config(1, 2)
        ns = [100, 1000, 10_000]
        medians = []
        for i, n in enumerate(ns):
            values = [
                abs(scalar_moment_ratio(generate_dataset(config, n, rng.derive_seed(600, i, s))))
                ** 0.5
                for s in range(40)
            ]
            medians.append(np.median(values))
        slope, _ = fit_loglog_slope(ns, medians)
        assert slope == pytest.approx(-0.25, abs=0.08)


class TestEarlyStop:
    def test_single_iterate_trace(self):
        config = low_snr_config(2, 2)
        full = generate_dataset(config, 100, seed=20)
        train, val = split_train_validation(full)
        trace = run_bfgs(
            train, np.zeros(2), np.eye(2), SolverConfig(max_iters=5), np.zeros(2)
        )
        # gradient vanishes at the origin: single recorded iterate
        assert len(trace) == 1
        choice = early_stop_by_validation(trace, val)
        assert choice.index == 0

    def test_monotone_validation_picks_last(self):
        from qnbench.objectives import EmpiricalGlmLoss
        from qnbench.solvers import SolverTrace

        val = EmpiricalGlmLoss(np.ones(10), np.ones(10), 2)
        iterates = np.array([3.0, 2.0, 1.5, 1.0])  # val loss keeps falling
        trace = SolverTrace(
            iterates=iterates,
            errors=np.abs(iterates),
            grad_norms=np.zeros(4),
            losses=np.zeros(4),
            stop_reason="max-iters",
        )
        assert early_stop_by_validation(trace, val).index == 3

    def test_losses_are_validation_values_at_each_iterate(self):
        config = low_snr_config(2, 2)
        train, val = split_train_validation(generate_dataset(config, 200, seed=22))
        trace = run_bfgs(
            train, np.ones(2), None, SolverConfig(max_iters=8), np.zeros(2)
        )
        choice = early_stop_by_validation(trace, val)
        assert choice.losses.shape == (len(trace),)
        for k, theta in enumerate(trace.iterates):
            assert choice.losses[k] == val.value(theta)
        assert choice.val_loss == choice.losses[choice.index] == np.min(choice.losses)

    @staticmethod
    def scalar_trace(iterates):
        from qnbench.solvers import SolverTrace

        iterates = np.array(iterates)
        return SolverTrace(
            iterates=iterates,
            errors=np.abs(iterates),
            grad_norms=np.zeros(iterates.size),
            losses=np.zeros(iterates.size),
            stop_reason="diverged",
        )

    def test_non_finite_iterates_and_values_never_win(self):
        from qnbench.objectives import EmpiricalGlmLoss

        val = EmpiricalGlmLoss(np.ones(10), np.ones(10), 2)
        # 1e200 is a finite iterate whose validation loss overflows to inf
        trace = self.scalar_trace([3.0, np.nan, 1e200, np.inf, 2.0])
        choice = early_stop_by_validation(trace, val)
        assert choice.losses[0] == val.value(np.array([3.0]))
        assert np.isnan(choice.losses[1]) and np.isnan(choice.losses[3])
        assert choice.losses[2] == np.inf
        assert choice.index == 4
        assert choice.val_loss == val.value(np.array([2.0]))

    def test_batched_losses_match_per_iterate_loop(self):
        from qnbench.objectives import EmpiricalGlmLoss
        from qnbench.solvers import SolverTrace

        x = rng.normals(23, 2 * 40).reshape(40, 2)
        val = EmpiricalGlmLoss(x, rng.normals(24, 40), 2)
        assert val.uses_moments
        points = 0.5 * rng.normals(25, 2 * 4).reshape(4, 2)
        best = points[np.argmin([val.value(theta) for theta in points])]
        iterates = np.vstack(
            [points[:2], [[np.nan, 0.0], [1e200, -1e200]], points[2:], best, best]
        )
        trace = SolverTrace(
            iterates=iterates,
            errors=np.zeros(len(iterates)),
            grad_norms=np.zeros(len(iterates)),
            losses=np.zeros(len(iterates)),
            stop_reason="max-iters",
        )
        choice = early_stop_by_validation(trace, val)
        assert np.isnan(choice.losses[2])
        assert choice.losses[3] == np.inf
        # the best point appears three times: the first occurrence wins
        first = int(np.nonzero((iterates == best).all(axis=1))[0][0])
        assert first < len(iterates) - 2
        assert choice.index == first
        # the loop the batched call replaced
        expected = np.full(len(iterates), np.nan)
        with np.errstate(all="ignore"):
            for i, theta in enumerate(iterates):
                if np.all(np.isfinite(theta)):
                    expected[i] = val.value(theta)
        assert np.array_equal(choice.losses, expected, equal_nan=True)
        assert choice.val_loss == expected[first]

    def test_no_finite_loss_leaves_val_loss_infinite(self):
        from qnbench.objectives import EmpiricalGlmLoss

        val = EmpiricalGlmLoss(np.ones(10), np.ones(10), 2)
        trace = self.scalar_trace([np.nan, 1e200, -np.inf])
        choice = early_stop_by_validation(trace, val)
        assert choice.index == 0
        assert choice.val_loss == np.inf
        assert np.isnan(choice.losses[0]) and np.isnan(choice.losses[2])
        assert choice.losses[1] == np.inf

    def test_selected_error_close_to_best(self):
        # median over 40 seeds: validation pick within 3x of the trace best
        config = low_snr_config(4, 2)
        ratios = []
        for s in range(40):
            data_seed = rng.derive_seed(321, s)
            full = generate_dataset(config, 10_000, data_seed)
            train, val = split_train_validation(full)
            theta0 = 2.0 * rng.unit_vector(4, rng.derive_seed(data_seed, 2))
            trace = run_bfgs(
                train, theta0, None, SolverConfig(max_iters=100), np.zeros(4)
            )
            choice = early_stop_by_validation(trace, val)
            ratios.append(trace.errors[choice.index] / trace.min_error)
        assert np.median(ratios) <= 3.0


class TestSlopeFit:
    def test_exact_power_law(self):
        ns = [10, 100, 1000]
        values = [2.0 * n ** -0.5 for n in ns]
        slope, stderr = fit_loglog_slope(ns, values)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([10], [1.0])


class TestRadiusSweep:
    def sweep(self, **kwargs):
        config = low_snr_config(2, 2)
        solver = SolverConfig(max_iters=40)
        defaults = dict(
            config=config, solver=solver, n_grid=[50, 100, 200], trials=5, seed0=30,
            method="bfgs",
        )
        defaults.update(kwargs)
        return run_radius_sweep(**defaults)

    def test_rows_sorted_and_complete(self):
        result = self.sweep()
        assert [row.n for row in result.rows] == [50] * 5 + [100] * 5 + [200] * 5
        assert all(row.min_error >= 0.0 for row in result.rows)

    def test_summary_quantile_ordering(self):
        result = self.sweep()
        for n, median, q25, q75, _ in result.summaries():
            assert q25 <= median <= q75

    def test_deterministic(self):
        a = self.sweep()
        b = self.sweep()
        assert a.fitted_slope == b.fitted_slope
        assert all(
            ra.min_error == rb.min_error and ra.seed == rb.seed
            for ra, rb in zip(a.rows, b.rows)
        )

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            self.sweep(n_grid=[100, 50])

    def test_unknown_method_rejected_before_any_dataset(self, monkeypatch):
        import qnbench.glmsim as glmsim

        def no_data(*args):
            raise AssertionError("a dataset was generated")

        monkeypatch.setattr(glmsim, "generate_dataset", no_data)
        with pytest.raises(ValueError, match="method"):
            self.sweep(method="sgd")

    def test_no_validation_early_stop(self, monkeypatch):
        # the sweep reads only the training trace; validation is not scored
        import qnbench.glmsim as glmsim

        def no_early_stop(*args):
            raise AssertionError("the sweep ran the validation early stop")

        monkeypatch.setattr(glmsim, "early_stop_by_validation", no_early_stop)
        assert len(self.sweep().rows) == 15

    def test_scalar_solver_used_in_one_dimension(self):
        config = low_snr_config(1, 2)
        solver = SolverConfig(max_iters=30)
        result = run_radius_sweep(
            config, solver, [50, 100, 200], 3, seed0=31, method="bfgs"
        )
        assert len(result.rows) == 9

    def test_noiseless_identifiability_up_to_sign(self):
        # high SNR without noise: the solver lands on the truth (or its mirror)
        config = high_snr_config(3, 2, seed=32, noise_std=0.0)
        loss = generate_dataset(config, 400, seed=33)
        theta0 = config.theta_star + 0.3 * rng.unit_vector(3, 34)
        trace = run_bfgs(
            loss, theta0, None, SolverConfig(max_iters=80, grad_tol=1e-14),
            config.theta_star,
        )
        best = min(
            min(np.linalg.norm(t - config.theta_star) for t in trace.iterates),
            min(np.linalg.norm(t + config.theta_star) for t in trace.iterates),
        )
        assert best <= 1e-6

    def test_low_snr_slope_less_negative_than_high_snr(self):
        n_grid = [100, 316, 1000]
        low = run_radius_sweep(
            low_snr_config(4, 2),
            SolverConfig(max_iters=60),
            n_grid, trials=15, seed0=35, init_radius=2.0, method="bfgs",
        )
        high = run_radius_sweep(
            GlmModelConfig(4, 2, rng.unit_vector(4, 36), cov=np.ones(4), regime="high-snr"),
            SolverConfig(max_iters=60),
            n_grid, trials=15, seed0=35, init_radius=1.0, method="bfgs",
        )
        assert low.fitted_slope > high.fitted_slope

    def test_other_methods_dispatch(self):
        config = low_snr_config(2, 2)
        for method in ("gd-constant", "gd-polyak", "newton"):
            solver = SolverConfig(step_size=0.1, max_iters=20)
            result = run_radius_sweep(
                config, solver, [50, 100, 150], 2, seed0=37, method=method
            )
            assert len(result.rows) == 6

    def test_unknown_method_rejected(self):
        config = low_snr_config(2, 2)
        with pytest.raises(ValueError):
            run_glm_method(
                "sgd", generate_dataset(config, 20, 1), np.zeros(2),
                SolverConfig(), np.zeros(2),
            )
