import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnbench import rng, solvers
from qnbench.acceptance import replay_bfgs
from qnbench.glmsim import generate_dataset, low_snr_config, scalar_moment_ratio
from qnbench.objectives import EmpiricalGlmLoss, PowNormObjective, random_pow_norm_objective
from qnbench.rates import (
    contraction_sequence,
    newton_factor,
    scalar_secant_contraction_bound,
)
from qnbench.solvers import (
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
    return PowNormObjective(np.array([[1.0]]), np.array([0.0]), 4)


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
        bfgs = run_bfgs(obj, theta0, None, SolverConfig(max_iters=40))
        best_gd_error = min(t.errors[-1] for t in gd_traces)
        assert best_gd_error > bfgs.errors[-1]

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            run_gd_constant(scalar_quartic(), np.array([1.0]), SolverConfig(step_size=0.0))


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
        obj = PowNormObjective(a, np.zeros(10), 4)
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
        obj = PowNormObjective(a, np.zeros(6), 4)
        trace = run_gd_polyak(obj, rng.normals(18, 6), 0.0, SolverConfig(max_iters=200))
        assert np.all(np.diff(trace.losses) <= 0.0)

    def test_zero_gradient_above_target_is_breakdown(self):
        # empirical loss has zero gradient at the origin but positive value
        x = rng.normals(90, 50)
        y = 1.0 + rng.normals(91, 50) ** 2
        loss = EmpiricalGlmLoss(x, y, 2)
        trace = run_gd_polyak(loss, np.zeros(1), 0.0, SolverConfig(max_iters=5),
                              theta_ref=np.zeros(1))
        assert trace.stop_reason == STOP_SECANT_BREAKDOWN

    def test_rejects_f_star_above_start(self):
        with pytest.raises(ValueError):
            run_gd_polyak(scalar_quartic(), np.array([1.0]), 2.0, SolverConfig())


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

        base = zero_opt_instance(4, 4, seed=36)
        obj = Counting(base.a, base.theta_opt, 4)
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
            loss, theta0, SolverConfig(max_iters=60, grad_tol=1e-13),
            theta_ref=truth,
        )
        assert trace.min_error <= 1e-6


class TestBfgs:
    def test_first_step_ratio(self):
        obj = zero_opt_instance(4, 4, seed=40)
        trace = run_bfgs(obj, rng.normals(41, 4), None, SolverConfig(max_iters=1))
        assert trace.error_ratios()[0] == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_second_step_ratio_is_15_19(self):
        obj = zero_opt_instance(4, 4, seed=42)
        trace = run_bfgs(obj, rng.normals(43, 4), None, SolverConfig(max_iters=2))
        assert trace.error_ratios()[1] == pytest.approx(15.0 / 19.0, rel=1e-10)

    @pytest.mark.parametrize("q,d", [(4, 2), (6, 10), (10, 3)])
    def test_follows_factor_recursion(self, q, d):
        obj = zero_opt_instance(d, q, seed=50 + q + d)
        trace = run_bfgs(obj, rng.normals(60 + d, d), None, SolverConfig(max_iters=20))
        ratios = trace.error_ratios()
        expected = contraction_sequence(q, len(ratios)).factors
        for k, ratio in enumerate(ratios):
            assert ratio == pytest.approx(expected[k], rel=1e-6)

    def test_collinear_error_vectors(self):
        obj = zero_opt_instance(8, 6, seed=70)
        trace = run_bfgs(obj, rng.normals(71, 8), None, SolverConfig(max_iters=25))
        for cos in cosines_to_start(trace, obj.theta_opt):
            assert cos == pytest.approx(1.0, abs=1e-8)

    def test_secant_condition_and_symmetry(self):
        obj = zero_opt_instance(6, 4, seed=72)
        trace = run_bfgs(obj, rng.normals(73, 6), None, SolverConfig(max_iters=30))
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
            obj, obj.theta_opt + rng.normals(75, 5), None, SolverConfig(max_iters=15)
        )
        expected = contraction_sequence(4, 20).factors
        ratios = trace.error_ratios()
        for k, ratio in enumerate(ratios):
            assert ratio == pytest.approx(expected[k], rel=1e-6)

    def test_breakdown_is_recorded_not_raised(self):
        obj = zero_opt_instance(3, 4, seed=76)
        trace = run_bfgs(obj, rng.normals(77, 3), None, SolverConfig(max_iters=10_000))
        # at the rounding floor the update's coefficients would overflow:
        # the run stops there as a breakdown, on a finite iterate
        assert np.isfinite(trace.iterates).all()
        assert trace.stop_reason == STOP_SECANT_BREAKDOWN

    def test_rejects_asymmetric_seed_matrix(self):
        obj = zero_opt_instance(3, 4, seed=78)
        h0 = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            run_bfgs(obj, np.ones(3), h0, SolverConfig())


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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
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
        inv = initial_inverse_hessian(hess, np.zeros(2), ridge=1.0)
        assert inv == pytest.approx(np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3, rel=1e-15)
        assert np.isfinite(initial_inverse_hessian(hess, np.zeros(2))).all()

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
            loss, 0.999, 1.0, SolverConfig(max_iters=200, grad_tol=1e-15),
            theta_ref=0.5,
        )
        assert trace.min_error <= 1e-6

    def test_single_start_bootstraps_gradient_step(self):
        config = low_snr_config(1, 2)
        loss = generate_dataset(config, 1000, seed=503)
        trace = run_scalar_bfgs(loss, 1.0, None, SolverConfig(max_iters=5))
        grad0 = loss.gradient(np.array([1.0]))[0]
        assert trace.iterates[0] == 1.0
        assert trace.iterates[1] == pytest.approx(1.0 - 1e-3 * grad0, rel=1e-14)

    def test_low_snr_monotone_decrease_with_floor(self):
        config = low_snr_config(1, 2)
        loss = generate_dataset(config, 10_000, seed=504)
        trace = run_scalar_bfgs(loss, 0.9, 1.0, SolverConfig(max_iters=100))
        cutoff = 2.0 * abs(scalar_moment_ratio(loss)) ** 0.5
        seq = trace.iterates
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
                seq = trace.iterates
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

    def test_rejects_identical_starts(self):
        loss = EmpiricalGlmLoss(np.ones(4), np.ones(4), 2)
        with pytest.raises(ValueError):
            run_scalar_bfgs(loss, 1.0, 1.0, SolverConfig())

    def test_rejects_vector_loss(self):
        loss = EmpiricalGlmLoss(np.ones((4, 2)), np.ones(4), 2)
        with pytest.raises(ValueError):
            run_scalar_bfgs(loss, 1.0, 0.9, SolverConfig())


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
        # concave: the first BFGS step has curvature s'u = -0.01
        trace = run_bfgs(
            Cliff(sign=-1.0), np.array([1.0]), np.array([[0.1]]),
            SolverConfig(max_iters=1),
        )
        assert trace.stop_reason == STOP_SECANT_BREAKDOWN
        assert len(trace) == 2
        assert trace.iterates[1] == pytest.approx(1.1, rel=1e-15)
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

    def test_bfgs_overflowed_step_is_diverged_not_breakdown(self):
        # the step lands at theta = -4e300: loss and gradient overflow, so the
        # curvature s'u is non-finite too; gd-constant reaches the same record
        obj = PowNormObjective([[1.0]], [0.0], 4)
        theta0 = np.array([1.0])
        bfgs = run_bfgs(obj, theta0, np.array([[1e300]]), SolverConfig(max_iters=5))
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

    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_start_is_diverged(self, method):
        # ||r||**10 overflows at the start; bfgs's seed H is then zero
        obj = random_pow_norm_objective(6, 12, 10, seed=3, theta_opt=np.zeros(6))
        trace = run_method(method, obj, np.full(6, 1e32), SolverConfig())
        assert len(trace) == 1
        assert trace.losses[0] == np.inf
        assert trace.stop_reason == STOP_DIVERGED

    def test_bfgs_overflowing_update_is_breakdown_on_finite_iterates(self):
        # at the rounding floor s'u = 3.0e-155 still passes the relative
        # curvature floor, but 1/s'u squared overflows: the update is not
        # made, so no infinite H ever yields a NaN iterate
        obj = random_pow_norm_objective(3, 6, 4, seed=76, theta_opt=np.zeros(3))
        trace = run_bfgs(obj, rng.normals(77, 3), None, SolverConfig(max_iters=10_000))
        assert trace.stop_reason == STOP_SECANT_BREAKDOWN
        assert len(trace) == 587
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
            obj, rng.normals(seed + 1, 3), None, SolverConfig(max_iters=max_iters)
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
        # including where the square under- or overflows, and the scalars
        # that scalar-bfgs records; abs(1e-170) would not be 0
        vectors = [
            rng.normals(700 + d, d) * 10.0**e for d in (1, 3, 1000) for e in (-170, 0, 160)
        ]
        scalars = [1e-170, -3.0, np.float64(2.5e-200), 1e160, np.inf]
        with np.errstate(over="ignore"):
            for v in vectors + scalars + [np.array([np.inf, 1.0])]:
                assert solvers._norm(v) == np.linalg.norm(v)
        assert np.isnan(solvers._norm(np.array([np.nan, 1.0])))
        assert np.isnan(solvers._norm(np.nan))


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
