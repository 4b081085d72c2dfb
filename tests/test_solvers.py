import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qnbench import rng, solvers
from qnbench.acceptance import replay_bfgs
from qnbench.glmsim import draw_trial, generate_dataset, low_snr_config, scalar_moment_ratio
from qnbench.objectives import (
    AssumptionViolationError,
    EmpiricalGlmLoss,
    PowNormObjective,
    design_gram,
    random_pow_norm_objective,
)
from qnbench.rates import (
    contraction_sequence,
    newton_factor,
    scalar_secant_contraction_bound,
)
from qnbench.solvers import (
    CURVATURE_FLOOR,
    METHODS,
    STOP_DIVERGED,
    STOP_GRAD_TOL,
    STOP_MAX_ITERS,
    STOP_SECANT_BREAKDOWN,
    STOPS_INTERRUPTED,
    SolverConfig,
    bfgs_update,
    initial_inverse_hessian,
    run_bfgs,
    run_gd_constant,
    run_gd_polyak,
    run_method,
    run_newton,
    run_scalar_bfgs,
)


def scalar_quartic():
    return PowNormObjective(design_gram([[1.0]]), np.array([0.0]), 4)


def zero_opt_instance(d, q, seed, m=None):
    # keeping the solution at the origin leaves the whole iterate at the
    # error's own floating-point scale, so per-step ratios stay measurable
    return random_pow_norm_objective(d, m or 2 * d, q, seed=seed, theta_opt=np.zeros(d))


def cosines_to_start(trace, theta_opt):
    e0 = trace.iterates[0] - theta_opt
    out = []
    for theta in trace.iterates:
        e = theta - theta_opt
        norm = np.linalg.norm(e) * np.linalg.norm(e0)
        if norm > 0:
            out.append(float(e @ e0) / norm)
    return out


class TestGdConstant:
    def test_one_step_arithmetic(self):
        trace = run_gd_constant(
            scalar_quartic(), np.array([1.0]), SolverConfig(step_size=0.1, max_iters=1)
        )
        assert trace.iterates[1] == pytest.approx(0.6, rel=1e-14)
        assert trace.stop_reason == STOP_MAX_ITERS

    def test_stops_immediately_at_solution(self):
        obj = random_pow_norm_objective(3, 6, 4, seed=1)
        trace = run_gd_constant(obj, obj.theta_opt, SolverConfig(step_size=0.1))
        assert trace.stop_reason == STOP_GRAD_TOL
        assert len(trace) == 1
        assert trace.errors[0] == 0.0

    def test_diverges_cleanly_with_huge_step(self):
        obj = zero_opt_instance(3, 4, seed=2)
        trace = run_gd_constant(
            obj, np.ones(3), SolverConfig(step_size=1e6, max_iters=50)
        )
        assert trace.stop_reason == STOP_DIVERGED

    def test_loss_never_increases_with_modest_step(self):
        obj = zero_opt_instance(4, 4, seed=3)
        trace = run_gd_constant(
            obj, 0.5 * np.ones(4), SolverConfig(step_size=1e-3, max_iters=200)
        )
        diffs = np.diff(trace.losses)
        assert np.all(diffs <= 1e-12 * np.abs(trace.losses[:-1]).max())

    def test_sublinear_next_to_bfgs(self):
        # constant-step GD after 1000 iterations trails BFGS after 40
        obj = zero_opt_instance(10, 4, seed=4)
        theta0 = rng.normals(5, 10)
        gd_traces = [
            run_gd_constant(obj, theta0, SolverConfig(step_size=10.0 ** -k, max_iters=1000))
            for k in range(1, 7)
        ]
        bfgs = run_bfgs(obj, theta0, SolverConfig(max_iters=40))
        best_gd_error = min(t.errors[-1] for t in gd_traces)
        assert best_gd_error > bfgs.errors[-1]

    def test_rejects_bad_step(self):
        for step in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive finite step_size"):
                run_gd_constant(
                    scalar_quartic(), np.array([1.0]), SolverConfig(step_size=step)
                )


class TestGdPolyak:
    def test_one_step_arithmetic(self):
        # f = theta^4, f* = 0: eta_0 = 1/16, theta_1 = 1 - 4/16
        trace = run_gd_polyak(
            scalar_quartic(), np.array([1.0]), 0.0, SolverConfig(max_iters=1)
        )
        assert trace.iterates[1] == pytest.approx(0.75, rel=1e-14)
        assert trace.step_info["step_size"][0] == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_stops_when_value_reaches_target(self):
        obj = scalar_quartic()
        trace = run_gd_polyak(obj, np.array([1.0]), 1.0, SolverConfig(max_iters=10))
        assert trace.stop_reason == STOP_GRAD_TOL
        assert len(trace) == 1

    def test_beats_tuned_constant_step_on_well_conditioned_instance(self):
        # near-orthogonal design, condition number ~ 1
        a = np.eye(10) + 0.01 * rng.normals(7, 100).reshape(10, 10)
        obj = PowNormObjective(design_gram(a), np.zeros(10), 4)
        assert obj.condition_number < 1.5
        theta0 = rng.normals(8, 10)
        polyak = run_gd_polyak(obj, theta0, 0.0, SolverConfig(max_iters=10_000))
        hits = np.nonzero(polyak.errors <= 1e-6)[0]
        assert hits.size > 0
        polyak_iters = int(hits[0])
        for k in range(1, 7):
            trace = run_gd_constant(
                obj, theta0, SolverConfig(step_size=10.0 ** -k, max_iters=10_000)
            )
            gd_hits = np.nonzero(trace.errors <= 1e-6)[0]
            assert gd_hits.size == 0 or int(gd_hits[0]) > polyak_iters

    def test_distance_to_optimum_never_increases(self):
        # the Polyak step guarantees monotone distance, not monotone loss
        # (on anisotropic instances the step overshoots the line minimum)
        obj = zero_opt_instance(4, 6, seed=9)
        trace = run_gd_polyak(obj, 0.5 * np.ones(4), 0.0, SolverConfig(max_iters=300))
        assert np.all(np.diff(trace.errors) <= 0.0)

    def test_loss_never_increases_when_well_conditioned(self):
        a = np.eye(6) + 0.01 * rng.normals(19, 36).reshape(6, 6)
        obj = PowNormObjective(design_gram(a), np.zeros(6), 4)
        trace = run_gd_polyak(obj, rng.normals(18, 6), 0.0, SolverConfig(max_iters=200))
        assert np.all(np.diff(trace.losses) <= 0.0)

    def test_f_star_above_start_stops_at_grad_tol(self):
        # the start is already at or below the target: no step is taken
        trace = run_gd_polyak(scalar_quartic(), np.array([1.0]), 2.0, SolverConfig())
        assert trace.stop_reason == STOP_GRAD_TOL
        assert len(trace) == 1
        assert len(trace.step_info["step_size"]) == 0


class TestNewton:
    def test_scalar_one_step(self):
        trace = run_newton(scalar_quartic(), np.array([1.0]), SolverConfig(max_iters=1))
        assert trace.iterates[1] == pytest.approx(2.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("q", [4, 6, 10])
    def test_exact_linear_rate(self, q):
        obj = zero_opt_instance(5, q, seed=10 + q)
        trace = run_newton(obj, rng.normals(20 + q, 5), SolverConfig(max_iters=200))
        expected = newton_factor(q)
        ratios = trace.error_ratios()
        for k, ratio in enumerate(ratios):
            if trace.errors[k] < 1e-12:
                break
            assert ratio == pytest.approx(expected, rel=1e-8)

    def test_collinear_error_vectors(self):
        obj = zero_opt_instance(6, 4, seed=31)
        trace = run_newton(obj, rng.normals(32, 6), SolverConfig(max_iters=40))
        for cos in cosines_to_start(trace, obj.theta_opt):
            assert cos == pytest.approx(1.0, abs=1e-10)

    def test_start_at_the_solution_stops_without_raising(self):
        # r = 0: the evaluation gives no direction and an exactly zero
        # gradient, so the run stops at grad-tol before any step
        obj = random_pow_norm_objective(3, 6, 4, seed=35)
        trace = run_newton(obj, obj.theta_opt, SolverConfig())
        assert len(trace) == 1
        assert trace.stop_reason == STOP_GRAD_TOL

    def test_one_evaluation_per_record(self):
        # each step takes the direction evaluated with the loss and gradient
        # at its point, and nothing evaluates that point again
        calls = []

        class Counting(PowNormObjective):
            def value_and_gradient(self, theta):
                calls.append("value_and_gradient")
                return super().value_and_gradient(theta)

            def value_gradient_and_newton_direction(self, theta):
                calls.append("combined")
                return super().value_gradient_and_newton_direction(theta)

        # zero_opt_instance(4, 4, seed=36)'s design, redrawn from its stream
        a = rng.normals(rng.derive_seed(36, 0, 0), 8 * 4).reshape(8, 4)
        obj = Counting(design_gram(a), np.zeros(4), 4)
        trace = run_newton(obj, rng.normals(37, 4), SolverConfig(max_iters=30))
        assert len(trace) == 31
        assert calls == ["combined"] * 31

    def test_newton_on_empirical_loss(self):
        # noiseless identifiable data: Newton lands on the truth
        truth = np.array([0.4, -0.2, 0.1])
        x = rng.normals(33, 1200).reshape(400, 3)
        loss = EmpiricalGlmLoss(x, (x @ truth) ** 2, 2)
        theta0 = truth + 0.05 * rng.normals(34, 3)
        trace = run_newton(
            loss, theta0, SolverConfig(max_iters=60),
            theta_ref=truth,
        )
        assert trace.min_error <= 1e-6


class TestBfgs:
    def test_first_step_ratio(self):
        obj = zero_opt_instance(4, 4, seed=40)
        trace = run_bfgs(obj, rng.normals(41, 4), SolverConfig(max_iters=1))
        assert trace.error_ratios()[0] == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_second_step_ratio_is_15_19(self):
        obj = zero_opt_instance(4, 4, seed=42)
        trace = run_bfgs(obj, rng.normals(43, 4), SolverConfig(max_iters=2))
        assert trace.error_ratios()[1] == pytest.approx(15.0 / 19.0, rel=1e-10)

    @pytest.mark.parametrize("q,d", [(4, 2), (6, 10), (10, 3)])
    def test_follows_factor_recursion(self, q, d):
        obj = zero_opt_instance(d, q, seed=50 + q + d)
        trace = run_bfgs(obj, rng.normals(60 + d, d), SolverConfig(max_iters=20))
        ratios = trace.error_ratios()
        expected = contraction_sequence(q, len(ratios)).factors
        for k, ratio in enumerate(ratios):
            assert ratio == pytest.approx(expected[k], rel=1e-6)

    def test_collinear_error_vectors(self):
        obj = zero_opt_instance(8, 6, seed=70)
        trace = run_bfgs(obj, rng.normals(71, 8), SolverConfig(max_iters=25))
        for cos in cosines_to_start(trace, obj.theta_opt):
            assert cos == pytest.approx(1.0, abs=1e-8)

    def test_secant_condition_and_symmetry(self):
        obj = zero_opt_instance(6, 4, seed=72)
        trace = run_bfgs(obj, rng.normals(73, 6), SolverConfig(max_iters=30))
        # the replay makes the run's 30 updates, with its curvatures
        replay = replay_bfgs(obj, trace)
        assert len(replay) == 30
        assert np.array_equal(replay[:, 0], trace.step_info["curvature"])
        assert np.all(replay[:, 1] <= 1e-8)
        assert np.all(replay[:, 2] == 0.0)

    def test_nonzero_solution_instance(self):
        # contract holds regardless of where the solution sits
        obj = random_pow_norm_objective(5, 10, 4, seed=74)
        trace = run_bfgs(
            obj, obj.theta_opt + rng.normals(75, 5), SolverConfig(max_iters=15)
        )
        expected = contraction_sequence(4, 20).factors
        ratios = trace.error_ratios()
        for k, ratio in enumerate(ratios):
            assert ratio == pytest.approx(expected[k], rel=1e-6)

    def test_breakdown_is_recorded_not_raised(self):
        obj = zero_opt_instance(3, 4, seed=76)
        trace = run_bfgs(obj, rng.normals(77, 3), SolverConfig(max_iters=10_000))
        # at the rounding floor the update's coefficients would overflow:
        # the run stops there as a breakdown, on a finite iterate
        assert np.isfinite(trace.iterates).all()
        assert trace.stop_reason == STOP_SECANT_BREAKDOWN


def out_of_place_update(h, s, u):
    """The whole-matrix form of the update, ``h - rho (s w' + w s') +
    coeff s s'``: the oracle for ``bfgs_update``."""
    rho = 1.0 / float(s @ u)
    w = h @ u
    coeff = rho + rho * rho * float(u @ w)
    return h - rho * (np.outer(s, w) + np.outer(w, s)) + coeff * np.outer(s, s)


# Normwise relative distance allowed between ``bfgs_update`` and the
# oracle, which round differently; at most 4.9e-16 was measured over the
# cases below.
UPDATE_TOLERANCE = 2e-15


def assert_matches_oracle(h, expected):
    assert np.linalg.norm(h - expected) <= UPDATE_TOLERANCE * np.linalg.norm(expected)


class TestBfgsUpdate:
    @pytest.mark.parametrize("d", [1, 2, 63, 64, 65, 200])
    def test_in_place_matches_out_of_place_to_the_bit(self, d):
        # normwise against the oracle, and symmetric to the bit
        for seed in range(3):
            a = rng.normals(rng.derive_seed(600, d, seed), d * d).reshape(d, d)
            h = a @ a.T + np.eye(d)
            s = rng.normals(rng.derive_seed(601, d, seed), d)
            u = s + 0.1 * rng.normals(rng.derive_seed(602, d, seed), d)
            expected = out_of_place_update(h, s, u)
            assert bfgs_update(h, s, u) is h
            assert_matches_oracle(h, expected)
            assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("d", [2, 65, 200])
    @pytest.mark.parametrize("h_scale,step_scale,log_ratio", [
        (1e21, 1.0, 20), (1e-30, 1e9, -20),
    ])
    def test_matches_oracle_at_extreme_update_scales(self, d, h_scale, step_scale,
                                                     log_ratio):
        # ||a|| / ||s|| about 1e+-20, a = coeff/2 s - rho H u: unbalanced,
        # p p' - m m' would cancel catastrophically
        for seed in range(3):
            b = rng.normals(rng.derive_seed(610, d, seed), d * d).reshape(d, d)
            h = (b @ b.T / d + np.eye(d)) * h_scale
            s = rng.normals(rng.derive_seed(611, d, seed), d) * step_scale
            u = s + 0.1 * rng.normals(rng.derive_seed(612, d, seed), d) * step_scale
            rho = 1.0 / float(s @ u)
            coeff = rho + rho * rho * float(u @ h @ u)
            a = 0.5 * coeff * s - rho * (h @ u)
            ratio = np.linalg.norm(a) / np.linalg.norm(s)
            assert abs(np.log10(ratio) - log_ratio) <= 2
            expected = out_of_place_update(h, s, u)
            bfgs_update(h, s, u)
            assert_matches_oracle(h, expected)
            assert np.array_equal(h, h.T)

    def test_zero_update_leaves_h_untouched(self):
        # H = I and u = s already satisfy the secant condition: with
        # s's = 4, a = coeff/2 s - rho s is exactly zero
        h = np.eye(4)
        s = np.array([1.0, -1.0, 1.0, 1.0])
        assert bfgs_update(h, s, s.copy()) is h
        assert np.array_equal(h, np.eye(4))

    def test_allocates_no_square_temporary(self):
        # tracemalloc sees numpy's data buffers: the update's peak is one
        # panel buffer and its 2 x d factors, where one d x d temporary
        # alone would take 8 MB
        d = 1000
        b = rng.normals(620, d * d).reshape(d, d)
        h = b + b.T
        s = rng.normals(621, d)
        u = s + 0.1 * rng.normals(622, d)
        tracemalloc.start()
        try:
            bfgs_update(h, s, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_overflowing_coefficients_leave_h_untouched(self):
        # s'u = 1e-160: 1/s'u is finite, its square is not
        h = np.eye(2)
        s, u = np.array([1e-80, 0.0]), np.array([1e-80, 0.0])
        with pytest.raises(OverflowError):
            bfgs_update(h, s, u)
        assert np.array_equal(h, np.eye(2))

    @settings(max_examples=300)
    @given(
        d=st.one_of(
            st.sampled_from([1, 63, 64, 65, 128, 129, 193, 257, 1001]), st.integers(1, 200)
        ),
        seed=st.integers(0, 2**32 - 1),
        h_scale=st.integers(-30, 30),
        step_scale=st.integers(-30, 30),
    )
    def test_bit_symmetric_h_stays_bit_symmetric(self, d, seed, h_scale, step_scale):
        # entries (i, j) and (j, i) take the same operations, whatever the
        # panel they fall in and whatever the scale; a last panel of one
        # row (d = 65, 129, 193, 257) joins the one before
        m = rng.normals(rng.derive_seed(seed, 0), d * d).reshape(d, d)
        h = (m + m.T) * 10.0**h_scale
        s = rng.normals(rng.derive_seed(seed, 1), d) * 10.0**step_scale
        u = rng.normals(rng.derive_seed(seed, 2), d) * 10.0**step_scale
        if s @ u < 0:
            u = -u
        before = h.copy()
        try:
            bfgs_update(h, s, u)
        except OverflowError:
            assert np.array_equal(h, before)
            return
        assert np.array_equal(h, h.T)

    def test_secant_condition_exact(self):
        for seed in range(8):
            h = np.eye(4) + 0.1 * rng.normals(seed, 16).reshape(4, 4)
            h = h @ h.T
            s = rng.normals(100 + seed, 4)
            u = rng.normals(200 + seed, 4)
            if s @ u <= 0:
                u = -u
            h_new = bfgs_update(h, s, u)
            assert np.linalg.norm(h_new @ u - s) <= 1e-12 * np.linalg.norm(s)

    def test_preserves_symmetry_to_the_bit(self):
        h = np.eye(5)
        for seed in range(20):
            s = rng.normals(300 + seed, 5)
            u = s + 0.1 * rng.normals(400 + seed, 5)
            if s @ u <= 0:
                continue
            h = bfgs_update(h, s, u)
            assert np.array_equal(h, h.T)


# Dimensions for the pending-pair tests: one panel, a last panel of one
# row joined to the one before, and several panels.
PANEL_DIMENSIONS = st.one_of(st.sampled_from([1, 63, 64, 65, 129]), st.integers(1, 200))

# Normwise distance allowed between a run's product ``H g`` and the
# product with ``bfgs_update``'s matrix, relative to ||g|| times the
# largest ||H|| so far times the sum, over the updates, of
# ``1 + (||g|| + ||g_prev||) / ||u||``: the run derives ``H u`` as
# ``H g - H g_prev``, which rounds at the scale of the gradients rather than
# of ``u``.  At most 3.3e-16 was measured, over the examples below and
# over 8,000 more sequences of up to 50 updates.
PENDING_TOLERANCE = 1e-15


def update_sequence(d, seed, count):
    """A seed ``H`` and ``count`` secant pairs for it: independent gradients
    ``g_0 .. g_count``, their differences ``u`` and steps ``s = C u`` for a
    positive definite ``C``, so every curvature ``s'u`` is positive."""
    b = rng.normals(rng.derive_seed(seed, 0), d * d).reshape(d, d)
    h = b @ b.T / d + np.eye(d)
    c = rng.normals(rng.derive_seed(seed, 1), d * d).reshape(d, d)
    c = c @ c.T / d + np.eye(d)
    grads = rng.normals(rng.derive_seed(seed, 2), (count + 1) * d).reshape(count + 1, d)
    us = np.diff(grads, axis=0)
    return h, grads, us @ c


def pending_state(inverse):
    # rows of pairs past the pending ones are unused buffer space, never read
    return inverse.h.copy(), inverse.pairs[: inverse.pending].copy(), inverse.pending


class TestPendingInverseHessian:
    @settings(max_examples=200)
    @given(
        d=PANEL_DIMENSIONS,
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 3 * solvers.BFGS_PENDING_PAIRS + 2),
    )
    def test_products_match_sequential_updates(self, d, seed, count):
        # after each update, the derived direction and a fresh product both
        # match the matrix that bfgs_update makes, across flushes
        h, grads, steps = update_sequence(d, seed, count)
        inverse = solvers._InverseHessian(h.copy())
        direction = inverse.times(grads[0])
        h_norm, growth = np.linalg.norm(h), 0.0
        for g_prev, g, s in zip(grads, grads[1:], steps):
            u = g - g_prev
            growth += 1.0 + (np.linalg.norm(g) + np.linalg.norm(g_prev)) / np.linalg.norm(u)
            bfgs_update(h, s, u)
            h_norm = max(h_norm, np.linalg.norm(h))
            direction = inverse.update(s, u, direction, g)
            expected = h @ g
            bound = PENDING_TOLERANCE * h_norm * np.linalg.norm(g) * growth
            assert np.linalg.norm(direction - expected) <= bound
            assert np.linalg.norm(inverse.times(g) - expected) <= bound

    @settings(max_examples=200)
    @given(
        d=PANEL_DIMENSIONS,
        seed=st.integers(0, 2**32 - 1),
        h_scale=st.integers(-30, 30),
        step_scale=st.integers(-30, 30),
    )
    def test_bit_symmetric_after_every_flush(self, d, seed, h_scale, step_scale):
        # a flush's panel products have the pending rows as inner dimension:
        # entries (i, j) and (j, i) still take the same operations
        count = 2 * solvers.BFGS_PENDING_PAIRS + 1
        h, grads, steps = update_sequence(d, seed, count)
        inverse = solvers._InverseHessian(h * 10.0**h_scale)
        grads = grads * 10.0**step_scale
        direction = inverse.times(grads[0])
        queued = flushes = 0
        for g_prev, g, s in zip(grads, grads[1:], steps * 10.0**step_scale):
            before = pending_state(inverse)
            try:
                direction = inverse.update(s, g - g_prev, direction, g)
            except OverflowError:
                after = pending_state(inverse)
                assert all(np.array_equal(x, y) for x, y in zip(before, after))
                return
            # an update with a = 0 (at d = 1, once H is exact) queues nothing
            queued += inverse.pending != before[2]
            if inverse.pending == 0 and inverse.pending != before[2]:
                flushes += 1
                assert np.array_equal(inverse.h, inverse.h.T)
        assert flushes == queued // solvers.BFGS_PENDING_PAIRS

    @settings(max_examples=100)
    @given(
        d=PANEL_DIMENSIONS,
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 2 * solvers.BFGS_PENDING_PAIRS + 1),
    )
    def test_overflowing_update_leaves_state_untouched(self, d, seed, count):
        # after any number of updates, s'u = 1e-160 with s = u and g_prev = 0:
        # 1/s'u is finite, its square is not
        h, grads, steps = update_sequence(d, seed, count)
        inverse = solvers._InverseHessian(h)
        direction = inverse.times(grads[0])
        for g_prev, g, s in zip(grads, grads[1:], steps):
            direction = inverse.update(s, g - g_prev, direction, g)
        before = pending_state(inverse)
        tiny = np.zeros(d)
        tiny[seed % d] = 1e-80
        with pytest.raises(OverflowError):
            inverse.update(tiny, tiny, np.zeros(d), tiny)
        after = pending_state(inverse)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def test_zero_update_leaves_state_untouched(self):
        # H = I and u = s already satisfy the secant condition: with
        # s's = 4, a is exactly zero and the direction is H g = s
        inverse = solvers._InverseHessian(np.eye(4))
        s = np.array([1.0, -1.0, 1.0, 1.0])
        before = pending_state(inverse)
        direction = inverse.update(s, s.copy(), np.zeros(4), s.copy())
        assert np.array_equal(direction, s)
        after = pending_state(inverse)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    @pytest.mark.parametrize("max_iters", [1, 16, 40])
    def test_one_product_per_update_and_one_flush_per_k_updates(
        self, monkeypatch, max_iters
    ):
        products, flushes = [], []
        times, flush = solvers._InverseHessian.times, solvers.flush_pairs

        def counting_times(inverse, g):
            products.append(g)
            return times(inverse, g)

        def counting_flush(*args):
            flushes.append(args)
            return flush(*args)

        monkeypatch.setattr(solvers._InverseHessian, "times", counting_times)
        monkeypatch.setattr(solvers, "flush_pairs", counting_flush)
        obj = zero_opt_instance(6, 4, seed=72)
        trace = run_bfgs(obj, rng.normals(73, 6), SolverConfig(max_iters=max_iters))
        updates = len(trace.step_info["curvature"])
        assert updates == max_iters
        assert len(products) == updates + 1
        assert len(flushes) == updates // solvers.BFGS_PENDING_PAIRS


class FixedHessian:
    """An objective with a Hessian and no closed-form inverse, so
    ``initial_inverse_hessian`` inverts ``hess`` by ``_solve_symmetric``."""

    def __init__(self, hess):
        self.hess = np.asarray(hess, dtype=float)

    def hessian(self, _theta):
        return self.hess


def forbid_lstsq(monkeypatch):
    def lstsq(*_args, **_kwargs):
        raise AssertionError("least squares reached")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)


class TestInitialInverseHessian:
    def test_indefinite_hessian_is_solved_directly(self, monkeypatch):
        # eigenvalues of both signs: the LU solve takes it as it is
        hess = np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 1.0], [0.0, 1.0, 1.0]])
        assert np.linalg.eigvalsh(hess).min() < 0 < np.linalg.eigvalsh(hess).max()
        forbid_lstsq(monkeypatch)
        inv = initial_inverse_hessian(FixedHessian(hess), np.zeros(3))
        assert np.max(np.abs(hess @ inv - np.eye(3))) <= 1e-12
        assert np.array_equal(inv, inv.T)

    def test_singular_hessian_takes_the_ridge_retry(self, monkeypatch):
        # LU meets an exact zero pivot in ones((2, 2)); with ridge 1 the
        # retry inverts [[2, 1], [1, 2]], whose inverse is [[2, -1], [-1, 2]] / 3
        forbid_lstsq(monkeypatch)
        hess = FixedHessian(np.ones((2, 2)))
        assert np.isfinite(initial_inverse_hessian(hess, np.zeros(2))).all()
        monkeypatch.setattr(solvers, "NEWTON_RIDGE", 1.0)
        inv = initial_inverse_hessian(hess, np.zeros(2))
        assert inv == pytest.approx(np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3, rel=1e-15)

    def test_singular_after_ridge_falls_back_to_least_squares(self):
        # the ridge shifts -ridge to an exact 0, so the retry is singular
        # too; least squares gives the pseudo-inverse
        ridge = solvers.NEWTON_RIDGE
        hess = np.diag([0.0, -ridge])
        inv = initial_inverse_hessian(FixedHessian(hess), np.zeros(2))
        assert inv == pytest.approx(np.diag([0.0, -1.0 / ridge]), rel=1e-15)


class TestScalarBfgs:
    def test_stationary_start_stops(self):
        x = rng.normals(500, 50)
        y = rng.normals(501, 50)
        loss = EmpiricalGlmLoss(x, y, 2)
        trace = run_scalar_bfgs(loss, 0.0, 0.1, SolverConfig())
        assert trace.stop_reason == STOP_GRAD_TOL

    def test_noiseless_recovery(self):
        x = rng.normals(502, 100)
        loss = EmpiricalGlmLoss(x, (0.5 * x) ** 2, 2)
        trace = run_scalar_bfgs(
            loss, 0.999, 1.0, SolverConfig(max_iters=200),
            theta_ref=0.5,
        )
        assert trace.min_error <= 1e-6

    def test_low_snr_monotone_decrease_with_floor(self):
        config = low_snr_config(1, 2)
        loss = generate_dataset(config, 10_000, seed=504)
        trace = run_scalar_bfgs(loss, 0.9, 1.0, SolverConfig(max_iters=100))
        cutoff = 2.0 * abs(scalar_moment_ratio(loss)) ** 0.5
        seq = trace.iterates[:, 0]
        checked = 0
        for k in range(1, len(seq) - 1):
            if seq[k] <= cutoff or seq[k + 1] <= cutoff:
                break
            checked += 1
            assert 0.0 < seq[k + 1] < seq[k]
            assert seq[k + 1] >= (2.0 / 3.0) * seq[k]
        assert checked >= 1

    def test_error_contracts_at_guaranteed_rate(self):
        # while ordered above twice the empirical optimum, the error to
        # that optimum shrinks by at least the guaranteed factor
        for p in (2, 3):
            config = low_snr_config(1, p)
            bound = scalar_secant_contraction_bound(p)
            checked = 0
            for s in range(10):
                loss = generate_dataset(config, 10_000, rng.derive_seed(77, p, s))
                ratio = scalar_moment_ratio(loss)
                if ratio <= 0:
                    continue  # the guarantee is stated for a real optimum
                optimum = ratio ** (1.0 / p)
                trace = run_scalar_bfgs(loss, 1.8, 2.0, SolverConfig(max_iters=100))
                seq = trace.iterates[:, 0]
                for k in range(2, len(seq) - 1):
                    if seq[k] <= 2 * optimum or seq[k + 1] <= 2 * optimum:
                        break
                    checked += 1
                    assert seq[k + 1] - optimum <= bound * (seq[k] - optimum) * (
                        1 + 1e-12
                    )
            assert checked >= 10

    def test_secant_breakdown_near_irrational_minimum(self):
        # minimizer at sqrt(2): the gradient never hits exactly zero, so
        # the run ends when consecutive gradients become indistinguishable
        loss = EmpiricalGlmLoss(np.ones(4), 2.0 * np.ones(4), 2)
        trace = run_scalar_bfgs(loss, 0.9, 2.0, SolverConfig(max_iters=500))
        assert trace.stop_reason == STOP_SECANT_BREAKDOWN
        assert len(trace) < 50

    def test_start_pair_below_the_curvature_floor_breaks_down(self):
        # f = (2 - theta^2)^2 falls away from its maximum at 0, so the pair
        # (0.1, 0.2) has s'u < 0: no step, one breakdown rule at every d
        loss = EmpiricalGlmLoss(np.ones(4), 2.0 * np.ones(4), 2)
        trace = run_scalar_bfgs(loss, 0.2, 0.1, SolverConfig(max_iters=50))
        assert trace.stop_reason == STOP_SECANT_BREAKDOWN
        assert trace.iterates[:, 0].tolist() == [0.1, 0.2]
        assert trace.step_info["curvature"].size == 0

    def test_rejects_equal_start_gradients(self):
        # f = (1 - theta^2)^2 is stationary at 0 and at 1
        loss = EmpiricalGlmLoss(np.ones(4), np.ones(4), 2)
        with pytest.raises(ValueError, match="gradients"):
            run_scalar_bfgs(loss, 1.0, 0.0, SolverConfig())

    def test_rejects_identical_starts(self):
        loss = EmpiricalGlmLoss(np.ones(4), np.ones(4), 2)
        with pytest.raises(ValueError):
            run_scalar_bfgs(loss, 1.0, 1.0, SolverConfig())

    def test_rejects_vector_loss(self):
        loss = EmpiricalGlmLoss(np.ones((4, 2)), np.ones(4), 2)
        with pytest.raises(ValueError):
            run_scalar_bfgs(loss, 1.0, 0.9, SolverConfig())


def secant_reference(loss, theta0, theta_prev, max_iters):
    """The secant form of one-dimensional BFGS, theta <- theta - (theta -
    prev) / (grad - grad_prev) * grad, until the gradient or its change is
    zero: the oracle for ``run_scalar_bfgs``, as a list of iterates."""
    prev, cur = theta_prev, theta0
    g_prev, g_cur = (float(loss.gradient(np.array([t]))[0]) for t in (prev, cur))
    seq = [prev, cur]
    while len(seq) < max_iters + 2 and g_cur != 0.0 and g_cur != g_prev:
        prev, cur = cur, cur - (cur - prev) / (g_cur - g_prev) * g_cur
        g_prev, g_cur = g_cur, float(loss.gradient(np.array([cur]))[0])
        seq.append(cur)
    return seq


class TestScalarBfgsIsTheSecantMethod:
    def test_matches_the_secant_form_above_the_floor(self):
        # criterion 10's datasets; the two forms round their inverse
        # Hessian differently, so they part only at the floating-point
        # floor, on the datasets whose minimum error is near 0
        config = low_snr_config(1, 2)
        compared = 0
        for s in range(11):
            loss = generate_dataset(config, 10_000, rng.derive_seed(900, s))
            trace = run_scalar_bfgs(loss, 0.999, 1.0, SolverConfig(max_iters=200))
            assert trace.iterates.shape == (len(trace), 1)
            if trace.min_error < 0.09:
                continue
            compared += 1
            errors = np.abs(secant_reference(loss, 0.999, 1.0, 200))
            k = trace.iters_to_min
            assert trace.errors[: k + 1] == pytest.approx(errors[: k + 1], rel=1e-14, abs=0)
            hit = np.argmax(trace.errors <= 1.5 * trace.min_error)
            assert hit == np.argmax(errors <= 1.5 * errors.min())
        assert compared == 5


class Cliff:
    """f = s * theta'theta / 2 with gradient s * theta, whose value is +inf
    wherever ||theta|| > 2.  ``hessian_inverse`` is ``scale * I``, and
    the Newton direction is ``scale`` times the gradient, so that Newton,
    like the other methods, can jump past the cliff in one step."""

    def __init__(self, sign=1.0, scale=1.0):
        self.sign, self.scale = sign, scale
        self.theta_opt = np.zeros(1)

    def value_and_gradient(self, theta):
        value = 0.5 * self.sign * float(theta @ theta)
        if np.linalg.norm(theta) > 2.0:
            value = np.inf
        return value, self.sign * theta

    def hessian_inverse(self, theta):
        return self.scale * np.eye(theta.size)

    def value_gradient_and_newton_direction(self, theta):
        return (*self.value_and_gradient(theta), self.scale * self.sign * theta)


class TestStopPrecedence:
    def test_breakdown_on_last_allowed_step_beats_max_iters(self):
        # concave, with seed 0.1 I: the first BFGS step has curvature
        # s'u = -0.01
        trace = run_bfgs(
            Cliff(sign=-1.0, scale=0.1), np.array([1.0]), SolverConfig(max_iters=1)
        )
        assert trace.stop_reason == STOP_SECANT_BREAKDOWN
        assert len(trace) == 2
        assert trace.iterates[1] == pytest.approx(1.1, rel=1e-15)
        assert len(trace.step_info.get("curvature", ())) == 0

    def test_breakdown_beats_a_zero_gradient(self):
        # concave, with seed -1 I: the first BFGS step lands exactly on the
        # zero gradient at 0 with curvature s'u = -1, and the breakdown
        # comes before the zero-gradient rule, so the run does not read as
        # converged
        trace = run_bfgs(
            Cliff(sign=-1.0, scale=-1.0), np.array([1.0]), SolverConfig(max_iters=5)
        )
        assert trace.iterates[:, 0].tolist() == [1.0, 0.0]
        assert trace.grad_norms[-1] == 0.0
        assert trace.stop_reason == STOP_SECANT_BREAKDOWN
        assert len(trace) == 2
        assert len(trace.step_info.get("curvature", ())) == 0

    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_value_on_last_allowed_step_is_diverged(self, method):
        # every method steps from 1 to -4 or -7, past the cliff at |theta| = 2;
        # bfgs starts from Cliff.hessian_inverse, 5 I
        trace = run_method(
            method, Cliff(scale=5.0), np.array([1.0]),
            SolverConfig(step_size=5.0, max_iters=1), f_star=-7.5,
        )
        assert len(trace) == 2
        assert not np.isfinite(trace.losses[-1])
        assert trace.stop_reason == STOP_DIVERGED

    @pytest.mark.parametrize("method", METHODS)
    def test_last_allowed_step_to_a_zero_gradient_is_grad_tol(self, method):
        # every method steps from 1 exactly to the minimizer 0 (gd-polyak's
        # step is (0.5 + 0.5) / 1), so the record after the last allowed
        # step has a zero gradient: converged, not out of budget
        trace = run_method(
            method, Cliff(), np.array([1.0]), SolverConfig(step_size=1.0, max_iters=1),
            f_star=-0.5,
        )
        assert trace.iterates[:, 0].tolist() == [1.0, 0.0]
        assert trace.stop_reason == STOP_GRAD_TOL

    def test_polyak_target_on_last_allowed_record_is_grad_tol(self):
        # concave f = -theta**2 / 2 with f* = -1: the step (-0.5 + 1) / 1
        # goes to 1.5, where f = -1.125 <= f*; the method's own rule
        # comes before the budget
        trace = run_gd_polyak(
            Cliff(sign=-1.0), np.array([1.0]), -1.0, SolverConfig(max_iters=1)
        )
        assert trace.iterates[:, 0].tolist() == [1.0, 1.5]
        assert trace.stop_reason == STOP_GRAD_TOL

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_gradient_above_the_minimum_stops_at_grad_tol(self, method):
        # an even-link GLM loss is stationary at the origin, with value
        # mean(y**2) > 0 there: no method can step, and the generic rule
        # stops each at grad-tol before gd-polyak's target is consulted
        x = rng.normals(90, 50)
        y = 1.0 + rng.normals(91, 50) ** 2
        loss = EmpiricalGlmLoss(x, y, 2)
        trace = run_method(
            method, loss, np.zeros(1), SolverConfig(max_iters=5), theta_ref=np.zeros(1)
        )
        assert trace.grad_norms.tolist() == [0.0]
        assert trace.losses[0] > 0.0
        assert trace.stop_reason == STOP_GRAD_TOL

    def test_bfgs_overflowed_step_is_diverged_not_breakdown(self):
        # seeded with 1e300: the step lands at theta = -4e300, where loss and
        # gradient overflow, so the curvature s'u is non-finite too;
        # gd-constant reaches the same record
        class HugeSeed(PowNormObjective):
            def hessian_inverse(self, theta):
                return np.array([[1e300]])

        obj = HugeSeed([[1.0]], [0.0], 4)
        theta0 = np.array([1.0])
        bfgs = run_bfgs(obj, theta0, SolverConfig(max_iters=5))
        gd = run_gd_constant(obj, theta0, SolverConfig(step_size=1e300, max_iters=5))
        for trace in (bfgs, gd):
            assert len(trace) == 2
            assert trace.iterates[1] == pytest.approx(-4e300)
            assert trace.losses[1] == np.inf
            assert trace.stop_reason == STOP_DIVERGED

    def test_overflowing_power_of_finite_norm_is_diverged(self):
        # the second iterate's residual norm is finite, but its 10th power
        # overflows: the record is infinite and the run stops as diverged
        obj = random_pow_norm_objective(6, 12, 10, seed=3, theta_opt=np.zeros(6))
        trace = run_method(
            "gd-constant", obj, np.ones(6), SolverConfig(step_size=1e-3, max_iters=100)
        )
        assert len(trace) == 3
        assert np.isfinite(trace.iterates).all()
        assert trace.losses[-1] == np.inf
        assert trace.stop_reason == STOP_DIVERGED

    @pytest.mark.parametrize("q", [4, 10])
    @pytest.mark.parametrize("method", METHODS)
    def test_start_at_the_minimizer_stops_at_grad_tol(self, method, q):
        # the gradient is exactly zero there and the Hessian singular: no
        # method steps, and BFGS builds no seed from that Hessian
        obj = random_pow_norm_objective(3, 6, q, seed=1)
        trace = run_method(method, obj, obj.theta_opt, SolverConfig(step_size=1e-3))
        assert len(trace) == 1
        assert trace.stop_reason == STOP_GRAD_TOL

    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_start_is_diverged(self, method):
        # ||r||**10 overflows at the start; bfgs's seed H is then zero
        obj = random_pow_norm_objective(6, 12, 10, seed=3, theta_opt=np.zeros(6))
        trace = run_method(method, obj, np.full(6, 1e32), SolverConfig())
        assert len(trace) == 1
        assert trace.losses[0] == np.inf
        assert trace.stop_reason == STOP_DIVERGED

    def test_bfgs_overflowing_update_is_breakdown_on_finite_iterates(self):
        # at the rounding floor s'u = 6.4e-155 still passes the relative
        # curvature floor, but 1/s'u squared overflows: the update is not
        # made, so no infinite H ever yields a NaN iterate
        obj = random_pow_norm_objective(3, 6, 4, seed=76, theta_opt=np.zeros(3))
        trace = run_bfgs(obj, rng.normals(77, 3), SolverConfig(max_iters=10_000))
        assert trace.stop_reason == STOP_SECANT_BREAKDOWN
        assert len(trace) == 591
        # the last step passed the curvature floor: the overflow guard
        # stopped the run
        s = trace.iterates[-1] - trace.iterates[-2]
        u = obj.gradient(trace.iterates[-1]) - obj.gradient(trace.iterates[-2])
        assert s @ u > CURVATURE_FLOOR * np.linalg.norm(s) * np.linalg.norm(u)
        for values in (trace.iterates, trace.losses, trace.grad_norms, trace.errors):
            assert np.isfinite(values).all()
        assert (trace.step_info["curvature"] > 0).all()

    @pytest.mark.parametrize("f_star,max_iters", [(0.0, 25), (1.0, 10)])
    def test_polyak_step_sizes_one_per_step(self, f_star, max_iters):
        trace = run_gd_polyak(
            scalar_quartic(), np.array([1.0]), f_star, SolverConfig(max_iters=max_iters)
        )
        assert len(trace.step_info.get("step_size", ())) == len(trace) - 1

    @pytest.mark.parametrize("seed,max_iters", [(73, 3), (76, 10_000)])
    def test_bfgs_diagnostics_one_per_update(self, seed, max_iters):
        obj = zero_opt_instance(3, 4, seed=seed)
        trace = run_bfgs(
            obj, rng.normals(seed + 1, 3), SolverConfig(max_iters=max_iters)
        )
        # seed 76 stops where the update's coefficients would overflow: the
        # after-record check records its iterate but makes no update
        updates = len(trace) - (2 if trace.stop_reason in STOPS_INTERRUPTED else 1)
        assert len(trace.step_info.get("curvature", ())) == updates


class TestRunMethod:
    def test_methods_in_report_order(self):
        assert METHODS == ("gd-constant", "gd-polyak", "newton", "bfgs")

    def test_calls_runner_by_module_name(self, monkeypatch):
        # the benchmark counts steps by rebinding solvers.run_* the same way
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return run_newton(*args, **kwargs)

        monkeypatch.setattr(solvers, "run_newton", counting)
        obj = zero_opt_instance(3, 4, seed=84)
        trace = run_method("newton", obj, np.ones(3), SolverConfig(max_iters=5))
        assert len(calls) == 1
        assert len(trace) == 6

    @pytest.mark.parametrize("method", ["sgd", "scalar-bfgs"])
    def test_unknown_name_names_methods(self, method):
        with pytest.raises(ValueError, match=re.escape(str(METHODS))):
            run_method(method, scalar_quartic(), np.array([1.0]), SolverConfig())


class TestNorm:
    def test_matches_numpy_norm_to_the_bit(self):
        # including where the square under- or overflows; abs(1e-170) would
        # not be 0
        vectors = [
            rng.normals(700 + d, d) * 10.0**e for d in (1, 3, 1000) for e in (-170, 0, 160)
        ]
        with np.errstate(over="ignore"):
            for v in vectors + [np.array([np.inf, 1.0])]:
                assert solvers._norm(v) == np.linalg.norm(v)
        assert np.isnan(solvers._norm(np.array([np.nan, 1.0])))


class TestTraceShape:
    def test_lists_share_length(self):
        obj = zero_opt_instance(3, 4, seed=80)
        trace = run_gd_constant(
            obj, np.ones(3), SolverConfig(step_size=1e-3, max_iters=17)
        )
        n = len(trace.iterates)
        assert trace.errors.shape == (n,)
        assert trace.grad_norms.shape == (n,)
        assert trace.losses.shape == (n,)

    def test_error_ratios_handle_zero_denominators(self):
        obj = random_pow_norm_objective(2, 4, 4, seed=81)
        trace = run_gd_constant(obj, obj.theta_opt, SolverConfig(step_size=0.1))
        assert trace.error_ratios().size == 0


class TestStopInvariantsOnRandomInstances:
    """Every method's trace on random pow-norm instances keeps the driver's
    promises: a known stop reason, at most one record per step after the
    start, finite records up to the last, a non-finite one only where the
    run diverged, and convergence only where it is exact."""

    STOPS = (STOP_GRAD_TOL, STOP_MAX_ITERS, STOP_DIVERGED, STOP_SECANT_BREAKDOWN)

    @settings(max_examples=150)
    @given(
        q=st.sampled_from([4, 6, 10]),
        shape=st.integers(1, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(d, 3 * d))),
        seed=st.integers(0, 10_000),
    )
    def test_every_method_keeps_the_stop_rules(self, q, shape, seed):
        d, m = shape
        try:
            obj = random_pow_norm_objective(d, m, q, seed)
        except AssumptionViolationError:
            reject()
        config = SolverConfig(max_iters=200)
        for method in METHODS:
            trace = run_method(method, obj, rng.normals(seed + 1, d), config)
            records = np.column_stack(
                [trace.iterates, trace.errors, trace.grad_norms, trace.losses]
            )
            assert trace.stop_reason in self.STOPS, method
            assert len(trace) <= config.max_iters + 1, method
            assert np.isfinite(records[:-1]).all(), method
            if not np.isfinite(records[-1]).all():
                assert trace.stop_reason == STOP_DIVERGED, method
            if trace.stop_reason == STOP_GRAD_TOL:
                # gd-polyak's f_star is 0, the instance's exact minimum
                converged = method == "gd-polyak" and trace.losses[-1] <= 0.0
                assert trace.grad_norms[-1] == 0.0 or converged, method


class TestSolverConfig:
    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True, False, "3", None, 0, -1])
    def test_rejects_a_budget_that_is_not_a_positive_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=max_iters)

    def test_accepts_numpy_integers(self):
        trace = run_gd_constant(
            scalar_quartic(), np.array([1.0]), SolverConfig(max_iters=np.int64(3))
        )
        assert len(trace) == 4


def small_glm_trial(d, n, seed):
    """A low-SNR quadratic-link training loss and its start."""
    train, _val, theta0 = draw_trial(low_snr_config(d, 2), n, seed, 1.0)
    return train, theta0


def unfilled(run, *args):
    """``run(*args)`` with the cycle fill turned off: the reference run."""
    with mock.patch.object(solvers, "CYCLE_WINDOW", 0):
        return run(*args)


def assert_same_run(filled, reference):
    """Equal to the bit: the four trace arrays, the stop reason and every
    ``step_info`` entry but ``cycle``, which the reference never has."""
    assert "cycle" not in reference.step_info
    for name in ("iterates", "errors", "grad_norms", "losses"):
        ours, theirs = getattr(filled, name), getattr(reference, name)
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes(), name
    assert filled.stop_reason == reference.stop_reason
    info = {key: value for key, value in filled.step_info.items() if key != "cycle"}
    assert info.keys() == reference.step_info.keys()
    for key, value in info.items():
        assert value.shape == reference.step_info[key].shape
        assert value.tobytes() == reference.step_info[key].tobytes(), key


def memoryless_runs(objective, theta0, config, f_star, theta_ref):
    """One zero-argument runner for each memoryless run: gd-constant,
    gd-polyak, and Newton on its closed-form or Hessian-solve path."""
    return [
        lambda: run_gd_constant(objective, theta0, config, theta_ref),
        lambda: run_gd_polyak(objective, theta0, f_star, config, theta_ref),
        lambda: run_newton(objective, theta0, config, theta_ref),
    ]


class TestCycleFill:
    @settings(max_examples=40)
    @given(
        d=st.integers(1, 5),
        extra_rows=st.integers(0, 4),
        q=st.sampled_from([4, 6]),
        seed=st.integers(0, 10_000),
        max_iters=st.integers(1, 250),
    )
    def test_pow_norm_runs_equal_the_unfilled_runs(self, d, extra_rows, q, seed,
                                                   max_iters):
        m = d + extra_rows
        obj = random_pow_norm_objective(d, m, q, seed, entry_std=1.0 / np.sqrt(m))
        config = SolverConfig(step_size=0.1, max_iters=max_iters)
        for run in memoryless_runs(obj, rng.normals(seed + 1, d), config, 0.0, None):
            assert_same_run(run(), unfilled(run))

    @settings(max_examples=40)
    @given(
        d=st.integers(1, 4),
        n=st.integers(20, 200),
        seed=st.integers(0, 10_000),
        max_iters=st.integers(1, 150),
    )
    def test_glm_runs_equal_the_unfilled_runs(self, d, n, seed, max_iters):
        # an empirical loss has no closed-form direction: Newton solves
        # with its Hessian
        loss, theta0 = small_glm_trial(d, n, seed)
        assert not hasattr(loss, "value_gradient_and_newton_direction")
        config = SolverConfig(step_size=0.1, max_iters=max_iters)
        for run in memoryless_runs(loss, theta0, config, 1.0, np.zeros(d)):
            assert_same_run(run(), unfilled(run))

    def test_period_16_is_filled(self):
        loss, theta0 = small_glm_trial(5, 100, 40)
        config = SolverConfig(max_iters=200)
        trace = run_newton(loss, theta0, config, np.zeros(5))
        # record 35 is the first to repeat one, record 19, to the bit
        assert trace.step_info["cycle"].tolist() == [36, 16]
        assert trace.stop_reason == STOP_MAX_ITERS
        assert trace.iterates[35].tobytes() == trace.iterates[19].tobytes()
        assert_same_run(trace, unfilled(run_newton, loss, theta0, config, np.zeros(5)))

    @pytest.mark.parametrize("window,filled", [(16, True), (15, False)])
    def test_window_bounds_the_period(self, monkeypatch, window, filled):
        monkeypatch.setattr(solvers, "CYCLE_WINDOW", window)
        loss, theta0 = small_glm_trial(5, 100, 40)
        trace = run_newton(loss, theta0, SolverConfig(max_iters=200), np.zeros(5))
        assert ("cycle" in trace.step_info) == filled
        assert len(trace) == 201

    def test_no_evaluation_after_the_repeat(self):
        calls = []

        class Counting(EmpiricalGlmLoss):
            def value_and_gradient(self, theta):
                calls.append("value_and_gradient")
                return super().value_and_gradient(theta)

            def hessian(self, theta):
                calls.append("hessian")
                return super().hessian(theta)

        loss, theta0 = small_glm_trial(2, 200, 0)
        counting = Counting(loss.x, loss.y, loss.p)
        trace = run_newton(counting, theta0, SolverConfig(max_iters=300), np.zeros(2))
        first_copied, period = trace.step_info["cycle"].tolist()
        assert (first_copied, period) == (14, 4)
        assert len(trace) == 301
        # records 0 .. 13 are evaluated, and a Hessian taken at 0 .. 12
        assert calls.count("value_and_gradient") == first_copied
        assert calls.count("hessian") == first_copied - 1

    def test_cycle_closing_on_the_last_allowed_step_fills_nothing(self):
        # the repeat is record 13, so a budget of 13 steps ends there
        loss, theta0 = small_glm_trial(2, 200, 0)
        for max_iters, cycle in ((13, None), (14, [14, 4])):
            config = SolverConfig(max_iters=max_iters)
            trace = run_newton(loss, theta0, config, np.zeros(2))
            assert trace.stop_reason == STOP_MAX_ITERS
            assert len(trace) == max_iters + 1
            assert trace.step_info.get("cycle", np.array(None)).tolist() == cycle
            assert_same_run(trace, unfilled(run_newton, loss, theta0, config, np.zeros(2)))

    def test_polyak_step_sizes_one_per_step_when_filled(self):
        obj = random_pow_norm_objective(3, 6, 4, 1)
        trace = run_gd_polyak(obj, rng.normals(101, 3), 0.0, SolverConfig(max_iters=300))
        first_copied, period = trace.step_info["cycle"].tolist()
        assert period == 2 and first_copied < 300
        assert len(trace.step_info["step_size"]) == len(trace) - 1 == 300

    def test_bfgs_revisit_is_not_filled(self):
        # BFGS carries its inverse-Hessian approximation, so an iterate it
        # revisits is no cycle: this run revisits record 19 at record 24,
        # and goes on to its budget computing every step
        loss, theta0 = small_glm_trial(2, 50, 10)
        config = SolverConfig(max_iters=300)
        trace = run_bfgs(loss, theta0, config, np.zeros(2))
        assert trace.iterates[24].tobytes() == trace.iterates[19].tobytes()
        assert trace.stop_reason == STOP_MAX_ITERS
        assert "cycle" not in trace.step_info
        assert_same_run(trace, unfilled(run_bfgs, loss, theta0, config, np.zeros(2)))
        assert len(trace.step_info["curvature"]) == len(trace) - 1

    def test_fill_copies_whole_periods(self):
        values = np.arange(10.0)
        values[7:] = -1.0
        solvers._fill_periodic(values, 7, 10, 3)
        assert values.tolist() == [0, 1, 2, 3, 4, 5, 6, 4, 5, 6]
        long = np.zeros(100)
        long[:5] = [0, 1, 2, 0, 1]
        solvers._fill_periodic(long, 5, 100, 3)
        assert long.tolist() == [[0.0, 1.0, 2.0][k % 3] for k in range(100)]


def assert_budget_prefix(short, full, budget):
    """``short``, a run with a budget of ``budget`` steps, is ``full``, the
    same run with a larger budget, cut after that many steps, to the bit:
    records, stop reason and ``step_info``, whose lists hold one entry per
    step or update and whose ``cycle`` the cut run has if its fill began
    within the budget."""
    records = min(len(full), budget + 1)
    assert len(short) == records
    for name in ("iterates", "errors", "grad_norms", "losses"):
        assert getattr(short, name).tobytes() == getattr(full, name)[:records].tobytes(), name
    cut = records < len(full)
    assert short.stop_reason == (STOP_MAX_ITERS if cut else full.stop_reason)
    assert short.step_info.keys() <= full.step_info.keys()
    for key, value in short.step_info.items():
        expected = full.step_info[key]
        if key != "cycle":
            expected = expected[:budget] if cut else expected
        assert value.shape == expected.shape, key
        assert value.tobytes() == expected.tobytes(), key


class TestBudgetPrefix:
    """A run's first K + 1 records do not depend on its budget, K steps or
    more: the stop rules read only the records, and the cycle fill copies
    what the run would have computed.  Criterion 10 rests on this when it
    stops each GD step size at the best count so far."""

    @pytest.mark.parametrize("instance", ["glm", "pow-norm"])
    def test_a_smaller_budget_cuts_the_same_run(self, instance):
        if instance == "glm":
            objective, theta0 = small_glm_trial(2, 200, 0)
            f_star, theta_ref = 1.0, np.zeros(2)
        else:
            objective = random_pow_norm_objective(3, 6, 4, 4, entry_std=1.0 / np.sqrt(6))
            theta0, f_star, theta_ref = rng.normals(104, 3), 0.0, None
        cut_after_fill = 0
        for method in METHODS:
            def run(budget):
                config = SolverConfig(step_size=0.1, max_iters=budget)
                return run_method(method, objective, theta0, config, f_star, theta_ref)

            full = run(300)
            for budget in (1, 12, 100, 160, 250):
                short = run(budget)
                assert_budget_prefix(short, full, budget)
                cut_after_fill += "cycle" in short.step_info and len(short) < len(full)
        # Newton's fill (and on the pow-norm instance gd-polyak's) starts
        # before the larger budgets
        assert cut_after_fill >= 3
