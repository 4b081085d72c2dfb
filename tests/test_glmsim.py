import errno
import multiprocessing
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnbench
from qnbench import glmsim, rng
from qnbench.objectives import AssumptionViolationError
from qnbench.glmsim import (
    NOISE_VAR,
    GlmModelConfig,
    default_covariance_diagonal,
    draw_trial,
    early_stop_by_validation,
    fit_loglog_slope,
    generate_dataset,
    high_snr_config,
    low_snr_config,
    low_snr_population_objective,
    run_glm_method,
    run_radius_sweep,
    run_trials,
    scalar_moment_ratio,
    split_train_validation,
)
from qnbench.solvers import METHODS, SolverConfig, run_bfgs, run_gd_polyak


def pipe_can_grow():
    """Whether this system lets a process grow a pipe to ``run_trials``'s size."""
    import fcntl

    read_end, write_end = os.pipe()
    try:
        fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, glmsim._PIPE_BYTES)
        return True
    except (AttributeError, OSError):
        return False
    finally:
        os.close(read_end)
        os.close(write_end)


class TestConfig:
    def test_default_covariance_halves_per_axis(self):
        assert default_covariance_diagonal(3) == pytest.approx([0.25, 0.0625, 0.015625])

    @pytest.mark.parametrize("theta_star", [[0.0, 0.0], [0.6, -0.8], [0.0, -1.0]])
    def test_truth_is_zero_or_unit(self, theta_star):
        config = GlmModelConfig(2, 2, np.array(theta_star))
        assert np.array_equal(config.theta_star, theta_star)

    def test_low_snr_requires_zero_truth(self):
        with pytest.raises(ValueError, match="zero .* or finite with unit norm"):
            GlmModelConfig(2, 2, np.array([0.1, 0.0]))

    def test_high_snr_requires_unit_truth(self):
        for theta_star in ([2.0, 0.0], [np.nan, 0.0], [np.inf, 0.0], [1.0, 1e-4]):
            with pytest.raises(ValueError, match="zero .* or finite with unit norm"):
                GlmModelConfig(2, 2, np.array(theta_star))

    def test_high_snr_helper_draws_unit_vector(self):
        config = high_snr_config(4, 2, seed=5)
        assert np.linalg.norm(config.theta_star) == pytest.approx(1.0, abs=1e-12)

    def test_covariance_is_diagonal(self):
        # the features are standard normals scaled per axis by sqrt(cov)
        config = GlmModelConfig(2, 2, np.zeros(2), cov=[4.0, 0.25])
        assert np.array_equal(config.cov, [4.0, 0.25])
        z = rng.normals(rng.derive_seed(3, 0), 16).reshape(8, 2)
        assert np.array_equal(generate_dataset(config, 8, seed=3).x, z * [2.0, 0.5])

    @pytest.mark.parametrize(
        "cov",
        [[np.nan, 1.0], [0.0, 1.0], [-1.0, 1.0], [np.inf, 1.0], [1.0],
         [[2.0, 0.5], [0.5, 1.0]]],
        ids=["nan", "zero", "negative", "inf", "short", "spd-matrix"],
    )
    def test_rejects_bad_variances(self, cov):
        with pytest.raises(ValueError, match="d positive, finite variances"):
            GlmModelConfig(2, 2, np.zeros(2), cov=cov)


class TestLowSnrPopulationObjective:
    def test_scalar_value(self):
        config = low_snr_config(1, 2, cov=np.ones(1))
        obj = low_snr_population_objective(config)
        assert obj.value(np.array([1.0])) == pytest.approx(3.0, rel=1e-14)

    def test_noise_floor_at_origin(self):
        config = low_snr_config(3, 2, cov=np.ones(3))
        obj = low_snr_population_objective(config)
        assert obj.value(np.zeros(3)) + NOISE_VAR == 1.0

    def test_p3_example(self):
        config = low_snr_config(2, 3, cov=np.ones(2))
        obj = low_snr_population_objective(config)
        loss = obj.value(np.array([1.0, 0.0])) + NOISE_VAR
        assert loss == pytest.approx(16.0, rel=1e-14)

    def test_even_in_theta(self):
        obj = low_snr_population_objective(low_snr_config(2, 2, cov=[1.09, 0.49]))
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
            expected = coeff * np.linalg.norm(np.sqrt(config.cov) * theta) ** (2 * p)
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

    @pytest.mark.parametrize(
        "config", [low_snr_config(2, 2), high_snr_config(3, 3, seed=12)],
        ids=["low-snr", "high-snr"],
    )
    def test_labels_are_link_plus_unit_noise(self, config):
        loss = generate_dataset(config, 80, seed=11)
        noise = rng.normals(rng.derive_seed(11, 1), 80)
        expected = (loss.x @ config.theta_star) ** config.p + noise
        assert np.array_equal(loss.y, expected)

    def test_labels_have_zero_mean_under_pure_noise(self):
        config = low_snr_config(1, 2)
        n = 100_000
        loss = generate_dataset(config, n, seed=13)
        # y = (x theta*)^2 + noise with theta* = 0: mean must be near 0
        assert abs(np.mean(loss.y)) <= 4.0 / np.sqrt(n)

    def test_sign_symmetry_for_even_link(self):
        base = high_snr_config(3, 2, seed=14)
        flipped = GlmModelConfig(3, 2, -base.theta_star, cov=base.cov)
        a = generate_dataset(base, 60, seed=15)
        b = generate_dataset(flipped, 60, seed=15)
        assert np.array_equal(a.y, b.y)


class TestDrawTrial:
    def test_splits_the_dataset_of_its_seed(self):
        config = low_snr_config(2, 2)
        train, val, _theta0 = draw_trial(config, 100, 16, 1.0)
        expected = split_train_validation(generate_dataset(config, 100, 16))
        for got, want in zip((train, val), expected):
            assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_high_snr_start_faces_theta_star_at_the_radius(self, d, radius):
        for seed in range(8):
            config = high_snr_config(d, 2, seed)
            for trial in range(4):
                _train, _val, theta0 = draw_trial(config, 20, 100 * seed + trial, radius)
                step = theta0 - config.theta_star
                assert np.linalg.norm(step) == pytest.approx(radius, rel=1e-15)
                assert step @ config.theta_star > 0.0

    def test_low_snr_start_is_the_unit_vector_of_its_stream(self):
        _train, _val, theta0 = draw_trial(low_snr_config(3, 2), 50, 19, 2.0)
        assert np.array_equal(theta0, 2.0 * rng.unit_vector(3, rng.derive_seed(19, 2)))


class TestRunTrials:
    PLAN = [(60, 41), (80, 42), (60, 43)]

    def test_runs_come_in_plan_then_method_order(self):
        runs = run_trials(
            low_snr_config(2, 2), SolverConfig(max_iters=5), self.PLAN,
            ["newton", "gd-constant"], 1.0,
        )
        assert [(n, seed, method) for n, seed, method, _trace, _val in runs] == [
            (n, seed, method)
            for n, seed in self.PLAN for method in ("newton", "gd-constant")
        ]

    @pytest.mark.parametrize("methods", [["bfgs"], list(METHODS)])
    def test_one_dataset_per_plan_entry(self, monkeypatch, tmp_path, methods):
        # the draws happen in the worker process, so they are logged to a file
        log = tmp_path / "drawn"

        def keep(*args):
            with open(log, "a") as handle:
                handle.write(f"{args[1]} {args[2]}\n")
            return generate_dataset(*args)

        monkeypatch.setattr(glmsim, "generate_dataset", keep)
        runs = list(run_trials(
            low_snr_config(2, 2), SolverConfig(max_iters=5), self.PLAN, methods, 1.0
        ))
        assert len(runs) == len(self.PLAN) * len(methods)
        drawn = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert drawn == self.PLAN

    def test_draw_error_follows_the_runs_before_it(self):
        # n = 1 cannot be split; the error comes after the first trial's runs
        runs = run_trials(
            low_snr_config(2, 2), SolverConfig(max_iters=5), [(60, 41), (1, 42)],
            ["bfgs", "newton"], 1.0,
        )
        assert [next(runs)[:3], next(runs)[:3]] == [(60, 41, "bfgs"), (60, 41, "newton")]
        with pytest.raises(ValueError) as raised:
            next(runs)
        assert type(raised.value) is ValueError
        assert str(raised.value) == "need at least two samples to split"

    def test_worker_death_is_an_error(self, monkeypatch):
        monkeypatch.setattr(glmsim, "generate_dataset", lambda *args: os._exit(3))
        runs = run_trials(low_snr_config(2, 2), SolverConfig(), self.PLAN, ["bfgs"], 1.0)
        with pytest.raises(RuntimeError, match="exited with code 3 before sending the trial "
                                               "n=60, data_seed=41"):
            next(runs)

    def test_closing_early_leaves_no_worker(self):
        runs = run_trials(
            low_snr_config(2, 2), SolverConfig(max_iters=5), self.PLAN * 20, ["bfgs"], 1.0
        )
        next(runs)
        runs.close()
        assert multiprocessing.active_children() == []

    def test_interleaved_runs_close_without_hanging(self):
        # the second worker is forked holding a copy of the first pipe's read
        # end, so the first worker, blocked in a send once its pipe is full
        # (400 trials of statistics, about 2 MB, outgrow even a grown pipe),
        # never meets a broken pipe; a fresh interpreter with a timeout keeps
        # a hang out of this process
        script = (
            "from qnbench.glmsim import low_snr_config, run_trials\n"
            "from qnbench.solvers import SolverConfig\n"
            "plan = [(3000, seed) for seed in range(400)]\n"
            "a, b = (run_trials(low_snr_config(4, 2), SolverConfig(max_iters=5), plan,"
            " ['bfgs'], 1.0) for _ in range(2))\n"
            "next(a); next(b); a.close(); b.close()\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(qnbench.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_worker_runs_ahead_by_bytes(self, monkeypatch, tmp_path):
        # 40 trials sent as statistics (d = 4, p = 2), about 190 KB: more
        # than a default 64 KiB pipe holds, well within a grown one
        if not pipe_can_grow():
            pytest.skip("this system refuses to grow a pipe")
        log = tmp_path / "drawn"

        def keep(*args):
            with open(log, "a") as handle:
                handle.write(f"{args[2]}\n")
            return generate_dataset(*args)

        monkeypatch.setattr(glmsim, "generate_dataset", keep)
        plan = [(1000, seed) for seed in range(40)]
        runs = run_trials(low_snr_config(4, 2), SolverConfig(max_iters=5), plan, ["bfgs"], 1.0)
        next(runs)
        deadline = time.monotonic() + 30.0
        while len(log.read_text().splitlines()) < len(plan) and time.monotonic() < deadline:
            time.sleep(0.01)
        drawn = len(log.read_text().splitlines())
        runs.close()
        assert drawn == len(plan)

    def test_a_refused_resize_keeps_the_default_pipe(self, monkeypatch):
        import fcntl

        refused = []

        def refuse(*args):
            refused.append(args[1])
            raise OSError(errno.EPERM, "pipe size refused")

        # about 100 KB of statistics: the default pipe fills and the worker waits
        plan = [(1000, seed) for seed in range(20)]
        config, solver = high_snr_config(4, 2, seed=45), SolverConfig(max_iters=30)
        want = list(run_trials(config, solver, plan, ["bfgs", "newton"], 1.0))
        monkeypatch.setattr(fcntl, "fcntl", refuse)
        got = list(run_trials(config, solver, plan, ["bfgs", "newton"], 1.0))
        assert refused == [fcntl.F_SETPIPE_SZ]
        assert len(got) == len(want) == 2 * len(plan)
        for (*head, trace, _val), (*want_head, want_trace, _want_val) in zip(got, want):
            assert head == want_head
            assert np.array_equal(trace.iterates, want_trace.iterates)
            assert trace.stop_reason == want_trace.stop_reason

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("high_snr", [False, True])
    def test_traces_match_a_hand_loop(self, d, high_snr):
        config = high_snr_config(d, 2, seed=44) if high_snr else low_snr_config(d, 2)
        solver = SolverConfig(step_size=0.1, max_iters=25)
        runs = run_trials(config, solver, self.PLAN, METHODS, 1.5)
        for n, seed in self.PLAN:
            train, val, theta0 = draw_trial(config, n, seed, 1.5)
            for method in METHODS:
                _n, _seed, _method, trace, got_val = next(runs)
                want = run_glm_method(method, train, theta0, solver, config.theta_star)
                for field in ("iterates", "errors", "grad_norms", "losses"):
                    assert np.array_equal(getattr(trace, field), getattr(want, field))
                assert trace.stop_reason == want.stop_reason
                # at d = 1 the validation part evaluates through its
                # statistics and is sent as them alone; at d = 4 (n = 6, 8)
                # it is per-sample and sent with its samples
                assert (got_val.n, got_val.uses_moments) == (val.n, val.uses_moments)
                if val.uses_moments:
                    assert got_val.x is None and got_val.y is None
                    for got, expected in zip(got_val.moments(), val.moments()):
                        assert np.array_equal(got, expected)
                else:
                    assert np.array_equal(got_val.x, val.x)
                    assert np.array_equal(got_val.y, val.y)
        assert next(runs, None) is None

    @pytest.mark.parametrize("plan,methods,message", [
        ([], ["bfgs"], "need at least one trial"),
        (PLAN, ["bfgs", "sgd"], "method must be one of"),
    ])
    def test_rejects_before_any_dataset(self, monkeypatch, plan, methods, message):
        def no_data(*args):
            raise AssertionError("a dataset was generated")

        monkeypatch.setattr(glmsim, "generate_dataset", no_data)
        with pytest.raises(ValueError, match=message):
            next(run_trials(low_snr_config(2, 2), SolverConfig(), plan, methods, 1.0))


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
        trace = run_bfgs(train, np.zeros(2), SolverConfig(max_iters=5), np.zeros(2))
        # gradient vanishes at the origin: single recorded iterate
        assert len(trace) == 1
        choice = early_stop_by_validation(trace, val)
        assert choice.index == 0

    def test_monotone_validation_picks_last(self):
        from qnbench.objectives import EmpiricalGlmLoss
        from qnbench.solvers import SolverTrace

        val = EmpiricalGlmLoss(np.ones(10), np.ones(10), 2)
        iterates = np.array([[3.0], [2.0], [1.5], [1.0]])  # val loss keeps falling
        trace = SolverTrace(
            iterates=iterates,
            errors=np.abs(iterates[:, 0]),
            grad_norms=np.zeros(4),
            losses=np.zeros(4),
            stop_reason="max-iters",
        )
        assert early_stop_by_validation(trace, val).index == 3

    def test_losses_are_validation_values_at_each_iterate(self):
        config = low_snr_config(2, 2)
        train, val = split_train_validation(generate_dataset(config, 200, seed=22))
        trace = run_bfgs(
            train, np.ones(2), SolverConfig(max_iters=8), np.zeros(2)
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
            iterates=iterates[:, None],
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
            train, val, theta0 = draw_trial(config, 10_000, rng.derive_seed(321, s), 2.0)
            trace = run_bfgs(
                train, theta0, SolverConfig(max_iters=100), np.zeros(4)
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

    def test_rejects_all_equal_x(self):
        with pytest.raises(ValueError, match="all x are equal"):
            fit_loglog_slope([10, 10], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_point_off_the_log_domain(self, bad):
        # the message names the first point whose log is not finite
        with pytest.raises(ValueError, match=re.escape(f"(100.0, {bad!r})")):
            fit_loglog_slope([10, 100, 1000], [1.0, bad, bad])
        with pytest.raises(ValueError, match=re.escape(f"({bad!r}, 2.0)")):
            fit_loglog_slope([10, bad], [1.0, 2.0])


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

    @staticmethod
    def record_runs(monkeypatch, name="run_glm_method"):
        """The arguments of every call to glmsim's ``name``."""
        real = getattr(glmsim, name)
        calls = []

        def keep(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(glmsim, name, keep)
        return calls

    def test_rows_sorted_and_complete(self, monkeypatch):
        runs = self.record_runs(monkeypatch)
        result = self.sweep()
        assert list(result.table) == [
            "n", "median_min_error", "q25", "q75", "median_iters_to_min"
        ]
        assert result.table["n"] == [50, 100, 200]
        assert all(len(column) == 3 for column in result.table.values())
        # every run is made, size by size in grid order, on the training part
        assert [loss.n for _method, loss, *_ in runs] == [45] * 5 + [90] * 5 + [180] * 5
        assert all(error >= 0.0 for error in result.table["q25"])

    def test_summary_quantile_ordering(self):
        table = self.sweep().table
        for q25, median, q75 in zip(table["q25"], table["median_min_error"], table["q75"]):
            assert q25 <= median <= q75

    def test_deterministic(self):
        a = self.sweep()
        b = self.sweep()
        assert a.table == b.table
        assert (a.fitted_slope, a.slope_stderr) == (b.fitted_slope, b.slope_stderr)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            self.sweep(n_grid=[100, 50, 200])

    def test_rejects_short_grid_before_any_dataset(self, monkeypatch):
        def no_data(*args):
            raise AssertionError("a dataset was generated")

        monkeypatch.setattr(glmsim, "generate_dataset", no_data)
        with pytest.raises(ValueError, match="need at least three sample sizes"):
            self.sweep(n_grid=[50, 100])

    def test_slope_is_fitted_to_the_table_medians(self, monkeypatch):
        # two trials per size whose np.median and np.percentile differ in
        # the last bit; the slope and its stderr are those of the medians
        # the table (and so the CSV) holds
        from qnbench.solvers import SolverTrace

        pairs = [
            (7.513269487278362e-05, 0.0005510449957933047),
            (0.00044005061215591205, 9.261766771369695e-05),
            (0.00012856232576884604, 1.9945337648167302e-05),
        ]
        errors = iter([error for pair in pairs for error in pair])
        stops = iter(["grad-tol", "diverged"] + ["grad-tol"] * 4)

        def one_record(method, loss, theta0, config, theta_ref):
            return SolverTrace(
                iterates=np.zeros((1, loss.d)), errors=np.array([next(errors)]),
                grad_norms=np.zeros(1), losses=np.zeros(1), stop_reason=next(stops),
            )

        monkeypatch.setattr(glmsim, "run_glm_method", one_record)
        result = self.sweep(trials=2)
        medians = [float(np.percentile(pair, [25, 50, 75])[1]) for pair in pairs]
        slope, stderr = fit_loglog_slope([50, 100, 200], medians)
        assert result.fitted_slope == slope
        assert result.slope_stderr == stderr
        assert result.table["median_min_error"] == medians
        assert result.table["median_iters_to_min"] == [0.0] * 3
        assert result.flagged_trials == 1

    def test_unknown_method_rejected_before_any_dataset(self, monkeypatch):
        def no_data(*args):
            raise AssertionError("a dataset was generated")

        monkeypatch.setattr(glmsim, "generate_dataset", no_data)
        with pytest.raises(ValueError, match="method"):
            self.sweep(method="sgd")

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("d", [2, 1])
    def test_bad_init_radius_rejected_before_any_dataset(self, monkeypatch, radius, d):
        # a negative radius would flip every start into the mirror hemisphere
        def no_data(*args):
            raise AssertionError("a dataset was generated")

        monkeypatch.setattr(glmsim, "generate_dataset", no_data)
        with pytest.raises(ValueError, match="init_radius must be positive and finite"):
            self.sweep(config=low_snr_config(d, 2), init_radius=radius)

    def test_no_validation_early_stop(self, monkeypatch):
        # the sweep reads only the training trace; validation is not scored
        def no_early_stop(*args):
            raise AssertionError("the sweep ran the validation early stop")

        monkeypatch.setattr(glmsim, "early_stop_by_validation", no_early_stop)
        runs = self.record_runs(monkeypatch)
        self.sweep()
        assert len(runs) == 15

    def test_scalar_solver_used_in_one_dimension(self, monkeypatch):
        runs = self.record_runs(monkeypatch, "run_scalar_bfgs")
        config = low_snr_config(1, 2)
        solver = SolverConfig(max_iters=30)
        result = run_radius_sweep(
            config, solver, [50, 100, 200], 3, seed0=31, method="bfgs"
        )
        assert len(runs) == 9
        assert result.table["n"] == [50, 100, 200]

    def test_noiseless_identifiability_up_to_sign(self):
        # high SNR without noise: the solver lands on the truth (or its mirror)
        from qnbench.objectives import EmpiricalGlmLoss

        config = high_snr_config(3, 2, seed=32)
        full = generate_dataset(config, 400, seed=33)
        loss = EmpiricalGlmLoss(full.x, (full.x @ config.theta_star) ** 2, 2)
        theta0 = config.theta_star + 0.3 * rng.unit_vector(3, 34)
        trace = run_bfgs(
            loss, theta0, SolverConfig(max_iters=80),
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
            GlmModelConfig(4, 2, rng.unit_vector(4, 36), cov=np.ones(4)),
            SolverConfig(max_iters=60),
            n_grid, trials=15, seed0=35, init_radius=1.0, method="bfgs",
        )
        assert low.fitted_slope > high.fitted_slope

    def test_other_methods_dispatch(self, monkeypatch):
        runs = self.record_runs(monkeypatch, "run_method")
        config = low_snr_config(2, 2)
        for method in ("gd-constant", "gd-polyak", "newton"):
            solver = SolverConfig(step_size=0.1, max_iters=20)
            result = run_radius_sweep(
                config, solver, [50, 100, 150], 2, seed0=37, method=method
            )
            assert [args[0] for args in runs] == [method] * 6
            assert result.table["n"] == [50, 100, 150]
            runs.clear()

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_polyak_matches_the_target_clamped_to_the_start(self, radius):
        # the start loss is 0.973 at radius 1, below NOISE_VAR, and 1.168 at
        # radius 2: passing NOISE_VAR unclamped gives the same run, bit for
        # bit, as min(NOISE_VAR, loss at the start)
        train, _val, theta0 = draw_trial(low_snr_config(2, 2), 200, 4, radius)
        assert (train.value(theta0) < NOISE_VAR) == (radius == 1.0)
        solver = SolverConfig(max_iters=50)
        trace = run_glm_method("gd-polyak", train, theta0, solver, np.zeros(2))
        clamped = run_gd_polyak(
            train, theta0, min(NOISE_VAR, train.value(theta0)), solver, np.zeros(2)
        )
        assert (len(trace) == 1) == (radius == 1.0)
        for field in ("iterates", "errors", "grad_norms", "losses"):
            assert np.array_equal(getattr(trace, field), getattr(clamped, field))
        assert np.array_equal(trace.step_info["step_size"], clamped.step_info["step_size"])
        assert trace.stop_reason == clamped.stop_reason

    def test_scalar_runs_start_at_theta0_then_pulled_toward_the_truth(self):
        for config in (low_snr_config(1, 2), high_snr_config(1, 2, seed=4)):
            loss = generate_dataset(config, 1000, seed=38)
            theta_star = config.theta_star[0]
            theta0 = theta_star - 0.5
            trace = run_glm_method(
                "bfgs", loss, np.array([theta0]), SolverConfig(max_iters=5),
                config.theta_star,
            )
            assert trace.iterates[:2, 0].tolist() == [
                theta0, theta_star + 0.999 * (theta0 - theta_star)
            ]

    @settings(max_examples=25)
    @given(
        theta0=st.floats(0.05, 4.0),
        seed=st.integers(0, 2**31 - 1),
        n=st.sampled_from([20, 300]),
    )
    def test_low_snr_quadratic_scalar_run_from_minus_theta0_is_the_mirror(
        self, theta0, seed, n
    ):
        # the loss is even in theta, so the d = 1 run from -theta0 negates
        # every iterate and keeps every error and loss to the bit
        loss = generate_dataset(low_snr_config(1, 2), n, seed)
        solver = SolverConfig(max_iters=60)
        plus, minus = (
            run_glm_method("bfgs", loss, np.array([t]), solver, np.zeros(1))
            for t in (theta0, -theta0)
        )
        assert np.array_equal(minus.iterates, -plus.iterates)
        assert np.array_equal(minus.errors, plus.errors)
        assert np.array_equal(minus.losses, plus.losses)
        assert minus.stop_reason == plus.stop_reason

    def test_unknown_method_rejected(self):
        config = low_snr_config(2, 2)
        with pytest.raises(ValueError):
            run_glm_method(
                "sgd", generate_dataset(config, 20, 1), np.zeros(2),
                SolverConfig(), np.zeros(2),
            )
