import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnbench import glmsim, objectives, rng
from qnbench.objectives import (
    AssumptionViolationError,
    EmpiricalGlmLoss,
    PowNormObjective,
    SingularHessianError,
    central_difference_gradient,
    central_difference_jacobian,
    design_gram,
    random_pow_norm_objective,
)


def scalar_quartic():
    # f(theta) = theta**4 in one dimension
    return PowNormObjective(design_gram([[1.0]]), np.array([0.0]), 4)


def drawn_design(obj, seed, m, entry_std=1.0):
    """The design ``random_pow_norm_objective(obj.d, m, q, seed, entry_std)``
    drew for ``obj``, redrawn from its stream: the first draw whose Gram
    matrix is the instance's, to the bit."""
    for attempt in range(objectives._MAX_DRAWS):
        draw = rng.normals(rng.derive_seed(seed, 0, attempt), m * obj.d)
        a = entry_std * draw.reshape(m, obj.d)
        if np.array_equal(design_gram(a), obj._gram):
            return a
    raise AssertionError("no draw of the stream has the instance's Gram matrix")


class TestPowNormValue:
    def test_scalar_power(self):
        assert scalar_quartic().value(np.array([2.0])) == 16.0

    def test_zero_at_solution(self):
        obj = random_pow_norm_objective(3, 6, 4, seed=5)
        assert obj.value(obj.theta_opt) == 0.0

    def test_matches_elementwise_summation_oracle(self):
        obj = random_pow_norm_objective(3, 5, 6, seed=9)
        a = drawn_design(obj, 9, 5)
        theta = rng.normals(10, 3)
        # independent oracle: residual norm accumulated row by row, with
        # the target b = A theta_opt
        total = 0.0
        for j in range(5):
            row = sum(a[j, k] * (theta[k] - obj.theta_opt[k]) for k in range(3))
            total += row * row
        expected = total ** (6 / 2)
        assert abs(obj.value(theta) - expected) <= 1e-12 * abs(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scalar_quartic().value(np.array([1.0, 2.0]))

    def test_rounding_negative_quadratic_form_reads_as_zero(self):
        # cond(A) = 5e8 can pass the Gram floor, and along A's weakest
        # direction e'(A'A)e can then round below zero (on OpenBLAS 0.3.31
        # it does for 8 of these 60 seeds): the value is then 0, never
        # NaN.  Draws the constructor rejects (by the floor, or by a
        # singular LU in the inverse) are skipped.
        for seed in range(60):
            u = np.linalg.qr(rng.normals(seed, 9).reshape(3, 3))[0]
            try:
                obj = PowNormObjective(
                    design_gram(u @ np.diag([1e4, 1.0, 2e-5]) @ u.T), np.zeros(3), 4
                )
            except AssumptionViolationError:
                continue
            value, grad = obj.value_and_gradient(1e-3 * u[:, 2])
            assert value >= 0.0 and np.isfinite(grad).all()

    @settings(max_examples=100)
    @given(
        d=st.integers(2, 50),
        extra=st.integers(2, 50),
        q=st.sampled_from([4, 6, 10]),
        seed=st.integers(0, 10_000),
        log_s=st.floats(-14.0, 0.0),
    )
    def test_accurate_near_the_optimum(self, d, extra, q, seed, log_s):
        # at theta_opt + s z the residual A theta - b would cancel to a few
        # digits; the oracle forms A e from the error directly
        obj = random_pow_norm_objective(d, d + extra, q, seed)
        a = drawn_design(obj, seed, d + extra)
        theta = obj.theta_opt + 10.0 ** log_s * rng.normals(rng.derive_seed(seed, 9), d)
        ae = a @ (theta - obj.theta_opt)
        norm = float(np.linalg.norm(ae))
        value, grad = obj.value_and_gradient(theta)
        assert max_relative_gap(value, norm ** q) <= 1e-12
        assert max_relative_gap(grad, q * norm ** (q - 2) * (a.T @ ae)) <= 1e-12


class TestPowNormDerivatives:
    def test_scalar_gradient(self):
        grad = scalar_quartic().gradient(np.array([1.0]))
        assert grad == pytest.approx([4.0], rel=1e-14)

    def test_gradient_zero_at_solution(self):
        obj = random_pow_norm_objective(4, 8, 5, seed=2)
        assert np.all(obj.gradient(obj.theta_opt) == 0.0)

    def test_gradient_matches_central_differences(self):
        obj = random_pow_norm_objective(4, 8, 6, seed=3)
        theta = obj.theta_opt + 0.7 * rng.normals(4, 4)
        grad = obj.gradient(theta)
        fd = central_difference_gradient(obj.value, theta)
        assert np.max(np.abs(fd - grad)) <= 1e-5 * max(1.0, np.max(np.abs(grad)))

    def test_scalar_hessian(self):
        hess = scalar_quartic().hessian(np.array([1.0]))
        assert hess[0, 0] == pytest.approx(12.0, rel=1e-14)

    def test_hessian_exactly_symmetric(self):
        obj = random_pow_norm_objective(5, 9, 4, seed=11)
        hess = obj.hessian(rng.normals(6, 5))
        assert np.array_equal(hess, hess.T)

    def test_hessian_matches_gradient_differences(self):
        obj = random_pow_norm_objective(4, 8, 6, seed=13)
        theta = obj.theta_opt + 0.5 * rng.normals(14, 4)
        hess = obj.hessian(theta)
        fd = central_difference_jacobian(obj.gradient, theta)
        assert np.max(np.abs(fd - hess)) <= 1e-4 * max(1.0, np.max(np.abs(hess)))

    def test_hessian_at_solution(self):
        obj4 = random_pow_norm_objective(3, 6, 4, seed=15)
        with pytest.raises(SingularHessianError):
            obj4.hessian(obj4.theta_opt)
        obj5 = random_pow_norm_objective(3, 6, 5, seed=15)
        assert np.array_equal(obj5.hessian(obj5.theta_opt), np.zeros((3, 3)))


class TestHessianInverse:
    def test_scalar_closed_form(self):
        # 1/(4 theta^2) - 2 theta^2/(12 theta^4) = 1/(12 theta^2)
        inv = scalar_quartic().hessian_inverse(np.array([1.0]))
        assert inv[0, 0] == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_symmetric(self):
        obj = random_pow_norm_objective(4, 7, 6, seed=17)
        inv = obj.hessian_inverse(rng.normals(18, 4))
        assert np.array_equal(inv, inv.T)

    def test_product_with_hessian_is_identity(self):
        # oracle route: dense factorization of the explicit Hessian
        for seed in range(6):
            obj = random_pow_norm_objective(5, 10, 4, seed=40 + seed)
            if obj.condition_number > 10:
                continue
            theta = obj.theta_opt + rng.normals(seed, 5)
            hess = obj.hessian(theta)
            product = obj.hessian_inverse(theta) @ hess
            assert np.max(np.abs(product - np.eye(5))) <= 1e-8
            oracle = np.linalg.inv(hess)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(obj.hessian_inverse(theta) - oracle)) <= 1e-8 * scale

    def test_singular_at_solution(self):
        obj = random_pow_norm_objective(3, 6, 4, seed=19)
        with pytest.raises(SingularHessianError):
            obj.hessian_inverse(obj.theta_opt)


class TestNewtonDirection:
    @pytest.mark.parametrize("q", [4, 6, 10])
    def test_matches_inverse_hessian_times_gradient(self, q):
        for d in range(2, 7):
            for trial in range(4):
                seed = rng.derive_seed(90, q, d, trial)
                obj = random_pow_norm_objective(d, 2 * d, q, seed=seed)
                theta = obj.theta_opt + rng.normals(rng.derive_seed(seed, 1), d)
                expected = obj.hessian_inverse(theta) @ obj.gradient(theta)
                direction = obj.value_gradient_and_newton_direction(theta)[2]
                scale = np.linalg.norm(expected)
                assert np.linalg.norm(direction - expected) <= 1e-10 * scale

    def test_finite_where_closed_form_inverse_is_not(self):
        # ||theta - theta_opt|| ~ 1e-40: ||r||**8 is subnormal and ||r||**10
        # underflows, but the direction is exactly dev / (q - 1) in real
        # arithmetic
        q = 10
        obj = random_pow_norm_objective(4, 8, q, seed=91, theta_opt=np.zeros(4))
        theta = 1e-40 * rng.unit_vector(4, 92)
        with np.errstate(all="ignore"):
            assert not np.isfinite(obj.hessian_inverse(theta)).all()
        direction = obj.value_gradient_and_newton_direction(theta)[2]
        assert np.isfinite(direction).all()
        expected = theta / (q - 1)
        assert np.linalg.norm(direction - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("q", [4, 6, 10])
    def test_combined_evaluation_matches_separate_calls_to_the_bit(self, q):
        for trial in range(5):
            d = 2 + trial
            obj = random_pow_norm_objective(d, 2 * d, q, seed=rng.derive_seed(93, q, d))
            theta = obj.theta_opt + rng.normals(rng.derive_seed(94, q, d), d)
            loss, grad, _direction = obj.value_gradient_and_newton_direction(theta)
            expected_loss, expected_grad = obj.value_and_gradient(theta)
            assert loss == expected_loss
            assert np.array_equal(grad, expected_grad)

    def test_combined_evaluation_has_no_direction_at_solution(self):
        obj = random_pow_norm_objective(3, 6, 4, seed=19)
        loss, grad, direction = obj.value_gradient_and_newton_direction(obj.theta_opt)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(3))
        assert direction is None


class TestPowNormConstruction:
    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            PowNormObjective(np.eye(2), np.zeros(2), 3)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 2)])
    def test_rejects_empty_design(self, shape):
        with pytest.raises(ValueError, match="at least one row and column"):
            design_gram(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 2), (2,)])
    def test_rejects_a_gram_matrix_that_is_not_square(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            PowNormObjective(np.ones(shape), np.zeros(shape[-1]), 4)

    def test_rejects_rank_deficient_design(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(AssumptionViolationError):
            PowNormObjective(design_gram(a), np.zeros(2), 4)

    def test_gram_singular_to_lu_is_an_assumption_violation(self):
        # cond(A) = 5e8: this rotation passes the Gram floor, but LU finds
        # A'A singular (on OpenBLAS 0.3.31, as do 4 more of seeds 0..59)
        u = np.linalg.qr(rng.normals(3, 9).reshape(3, 3))[0]
        gram = design_gram(u @ np.diag([1e4, 1.0, 2e-5]) @ u.T)
        with pytest.raises(AssumptionViolationError, match="numerically singular"):
            PowNormObjective(gram, np.zeros(3), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            design_gram([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            PowNormObjective(np.eye(2), [bad, 0.0], 4)

    def test_overflowing_gram_is_an_assumption_violation(self):
        # 1e200 squared overflows: A'A holds inf and its eigenvalues are NaN
        with pytest.raises(AssumptionViolationError, match="nan"):
            PowNormObjective(design_gram([[1e200, 0.0], [0.0, 1.0]]), np.zeros(2), 4)

    def test_target_is_constructed_from_solution(self):
        # b = A theta_opt is implied by the solution, not stored
        obj = random_pow_norm_objective(3, 6, 4, seed=23)
        a = drawn_design(obj, 23, 6)
        theta = rng.normals(24, 3)
        expected = np.linalg.norm(a @ theta - a @ obj.theta_opt) ** 4
        assert obj.value(theta) == pytest.approx(expected, rel=1e-12)
        assert not hasattr(obj, "b")

    def test_condition_number_reported(self):
        obj = PowNormObjective(design_gram(np.diag([4.0, 1.0])), np.zeros(2), 4)
        assert obj.condition_number == pytest.approx(4.0, rel=1e-12)


class TestEmpiricalGlmLoss:
    def test_zero_model(self):
        loss = EmpiricalGlmLoss(np.ones((5, 2)), np.zeros(5), 2)
        assert loss.value(np.zeros(2)) == 0.0

    def test_single_sample_arithmetic(self):
        loss = EmpiricalGlmLoss(np.array([2.0]), np.array([5.0]), 2)
        assert loss.value(np.array([1.0])) == pytest.approx(1.0, rel=1e-14)

    def test_matches_per_sample_loop_oracle(self):
        x = rng.normals(30, 150).reshape(50, 3)
        y = rng.normals(31, 50)
        loss = EmpiricalGlmLoss(x, y, 2)
        theta = rng.normals(32, 3)
        total = 0.0
        for i in range(50):
            z = sum(x[i, k] * theta[k] for k in range(3))
            total += (y[i] - z ** 2) ** 2
        expected = total / 50
        assert abs(loss.value(theta) - expected) <= 1e-12 * abs(expected)

    def test_gradient_vanishes_at_origin(self):
        x = rng.normals(33, 40).reshape(20, 2)
        y = rng.normals(34, 20)
        for p in (2, 3, 4):
            loss = EmpiricalGlmLoss(x, y, p)
            assert np.all(loss.gradient(np.zeros(2)) == 0.0)

    def test_scalar_gradient_matches_moment_polynomial(self):
        # oracle from expanding the square: grad = 2p(m_x t^(2p-1) - m_y t^(p-1))
        x = rng.normals(35, 60)
        y = rng.normals(36, 60)
        for p in (2, 3):
            loss = EmpiricalGlmLoss(x, y, p)
            m_x = np.mean(x ** (2 * p))
            m_y = np.mean(y * x ** p)
            for t in (0.3, 1.1, -0.8):
                expected = 2 * p * (m_x * t ** (2 * p - 1) - m_y * t ** (p - 1))
                got = loss.gradient(np.array([t]))[0]
                assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_gradient_matches_central_differences(self):
        x = rng.normals(37, 90).reshape(30, 3)
        y = rng.normals(38, 30)
        loss = EmpiricalGlmLoss(x, y, 2)
        theta = 0.5 * rng.normals(39, 3)
        grad = loss.gradient(theta)
        fd = central_difference_gradient(loss.value, theta)
        assert np.max(np.abs(fd - grad)) <= 1e-5 * max(1.0, np.max(np.abs(grad)))

    def test_hessian_matches_gradient_differences(self):
        x = rng.normals(41, 80).reshape(20, 4)
        y = rng.normals(42, 20)
        loss = EmpiricalGlmLoss(x, y, 3)
        theta = 0.4 * rng.normals(43, 4)
        hess = loss.hessian(theta)
        fd = central_difference_jacobian(loss.gradient, theta)
        assert np.max(np.abs(fd - hess)) <= 1e-4 * max(1.0, np.max(np.abs(hess)))

    def test_value_non_negative(self):
        x = rng.normals(44, 50).reshape(25, 2)
        y = rng.normals(45, 25)
        loss = EmpiricalGlmLoss(x, y, 2)
        for seed in range(10):
            assert loss.value(2.0 * rng.normals(seed, 2)) >= 0.0

    def test_rejects_bad_link_power(self):
        with pytest.raises(ValueError):
            EmpiricalGlmLoss(np.ones((3, 1)), np.ones(3), 1)

    @pytest.mark.parametrize("shape", [(5, 0), (0, 2), (0,)],
                             ids=["no-columns", "no-rows", "empty-vector"])
    def test_rejects_design_with_no_entries(self, shape):
        with pytest.raises(ValueError, match=r"non-empty \(n, d\) array"):
            EmpiricalGlmLoss(np.zeros(shape), np.ones(shape[0]), 2)


def max_relative_gap(got, oracle):
    got, oracle = np.asarray(got), np.asarray(oracle)
    return float(np.max(np.abs(got - oracle)) / np.max(np.abs(oracle)))


class TestEmpiricalGlmMoments:
    """The sufficient-statistics form against the per-sample formulas."""

    @settings(max_examples=60)
    @given(
        d=st.integers(1, 4),
        p=st.integers(2, 4),
        extra=st.integers(0, 40),
        seed=st.integers(0, 10_000),
    )
    def test_matches_per_sample_oracle(self, d, p, extra, seed):
        n = d ** (2 * p - 1) + extra  # the smallest sizes that use the statistics
        x = rng.normals(rng.derive_seed(seed, 0), n * d).reshape(n, d)
        y = rng.normals(rng.derive_seed(seed, 1), n)
        loss = EmpiricalGlmLoss(x, y, p)
        assert loss.uses_moments
        thetas = rng.normals(rng.derive_seed(seed, 2), 3 * d).reshape(3, d)
        values = loss.values(thetas)
        for k, theta in enumerate(thetas):
            value, grad = loss.value_and_gradient(theta)
            oracle_value, oracle_grad = loss._sample_value_and_gradient(theta)
            assert max_relative_gap(value, oracle_value) <= 1e-12
            assert max_relative_gap(loss.value(theta), oracle_value) <= 1e-12
            assert max_relative_gap(values[k], oracle_value) <= 1e-12
            assert max_relative_gap(grad, oracle_grad) <= 1e-12
            assert max_relative_gap(loss.hessian(theta), loss._sample_hessian(theta)) <= 1e-12

    def test_size_rule(self):
        x = rng.normals(50, 4 * 64).reshape(64, 4)
        y = rng.normals(51, 64)
        assert EmpiricalGlmLoss(x, y, 2).uses_moments  # 4**4 <= 64 * 4
        assert not EmpiricalGlmLoss(x[:63], y[:63], 2).uses_moments
        assert not EmpiricalGlmLoss(x, y, 3).uses_moments

    def test_large_dimension_stays_per_sample(self, monkeypatch):
        # d = 30, p = 3: the statistics would be a 27,000 x 27,000 matrix
        def no_moments(*args):
            raise AssertionError("statistics built for a per-sample loss")

        monkeypatch.setattr(objectives, "_glm_moments", no_moments)
        x = rng.normals(52, 100 * 30).reshape(100, 30)
        y = rng.normals(53, 100)
        loss = EmpiricalGlmLoss(x, y, 3)
        assert not loss.uses_moments
        theta = 0.3 * rng.normals(54, 30)
        z = x @ theta
        assert loss.value(theta) == pytest.approx(np.mean((y - z ** 3) ** 2), rel=1e-12)
        assert loss.value_and_gradient(theta)[0] == loss.value(theta)
        assert loss.hessian(theta).shape == (30, 30)
        assert loss.values(np.stack([theta, -theta]))[1] == loss.value(-theta)

    @pytest.mark.parametrize("n", [10, 3])  # statistics, per-sample
    def test_values_one_entry_per_row_equal_to_value(self, n):
        x = rng.normals(55, 2 * n).reshape(n, 2)
        y = rng.normals(56, n)
        loss = EmpiricalGlmLoss(x, y, 2)
        assert loss.uses_moments == (n == 10)
        thetas = rng.normals(57, 2 * 25).reshape(25, 2)
        values = loss.values(thetas)
        assert values.shape == (25,)
        for k in range(25):
            assert values[k] == loss.value(thetas[k])
            assert values[k] == loss.value_and_gradient(thetas[k])[0]
        assert loss.values(np.empty((0, 2))).shape == (0,)
        with pytest.raises(ValueError):
            loss.values(thetas[0])

    def test_statistics_built_once_on_first_evaluation(self, monkeypatch):
        calls = []
        build = objectives._glm_moments

        def counting(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(objectives, "_glm_moments", counting)
        x = rng.normals(58, 3 * 5000).reshape(5000, 3)
        loss = EmpiricalGlmLoss(x, rng.normals(59, 5000), 2)
        assert calls == []
        theta = rng.normals(60, 3)
        loss.value_and_gradient(theta)
        loss.hessian(theta)
        loss.values(np.stack([theta, theta]))
        assert calls == [1]
        # blocks of rows add up to the whole-data statistics
        feats = (x[:, :, None] * x[:, None, :]).reshape(5000, 9)
        _c, _b, m = loss._moments
        assert max_relative_gap(m, feats.T @ feats / 5000) <= 1e-12

    @pytest.mark.parametrize("d, p", [(4, 2), (2, 3)])
    def test_non_negative_at_noiseless_truth(self, d, p):
        # the polynomial cancels to within rounding of zero here, and below
        # it on about two fits in five
        for seed in range(20):
            config = glmsim.high_snr_config(d, p, seed)
            full = glmsim.generate_dataset(config, 400, seed)
            loss = EmpiricalGlmLoss(full.x, (full.x @ config.theta_star) ** p, p)
            assert loss.uses_moments
            truth = config.theta_star
            assert loss.value(truth) >= 0.0
            assert loss.value_and_gradient(truth)[0] >= 0.0
            assert loss.values(truth[None])[0] >= 0.0

    def test_overflow_is_infinite(self):
        x = rng.normals(61, 2 * 10).reshape(10, 2)
        loss = EmpiricalGlmLoss(x, rng.normals(62, 10), 2)
        assert loss.uses_moments
        with np.errstate(all="ignore"):
            for theta in ([1e200, 0.0], [1e200, -1e200]):
                theta = np.array(theta)
                assert loss.value(theta) == np.inf
                assert loss.value_and_gradient(theta)[0] == np.inf
            assert np.isnan(loss.values(np.array([[np.nan, 0.0]]))[0])


class TestLossFromMoments:
    """A loss held as its sufficient statistics alone."""

    def drawn(self, n=200, d=2, p=2):
        x = rng.normals(63, n * d).reshape(n, d)
        return EmpiricalGlmLoss(x, rng.normals(64, n), p)

    @pytest.mark.parametrize("d, p", [(1, 2), (2, 2), (2, 3)])
    def test_evaluates_as_its_source_to_the_bit(self, d, p):
        source = self.drawn(d=d, p=p)
        assert source.uses_moments
        loss = EmpiricalGlmLoss.from_moments(source.n, d, p, source.moments())
        assert (loss.n, loss.d, loss.p, loss.uses_moments) == (source.n, d, p, True)
        assert loss.x is None and loss.y is None
        thetas = rng.normals(65, 4 * d).reshape(4, d)
        assert np.array_equal(loss.values(thetas), source.values(thetas))
        for theta in thetas:
            assert loss.value(theta) == source.value(theta)
            value, grad = loss.value_and_gradient(theta)
            assert value == source.value_and_gradient(theta)[0]
            assert np.array_equal(grad, source.value_and_gradient(theta)[1])
            assert np.array_equal(loss.hessian(theta), source.hessian(theta))

    def test_what_needs_the_samples_names_them(self):
        source = self.drawn()
        loss = EmpiricalGlmLoss.from_moments(source.n, 2, 2, source.moments())
        theta = np.array([0.3, -0.2])
        calls = [
            loss.samples,
            lambda: loss._sample_value(theta),
            lambda: loss._sample_value_and_gradient(theta),
            lambda: loss._sample_hessian(theta),
            lambda: glmsim.split_train_validation(loss),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="not its samples x and y"):
                call()
        scalar = self.drawn(d=1)
        scalar = EmpiricalGlmLoss.from_moments(scalar.n, 1, 2, scalar.moments())
        with pytest.raises(ValueError, match="not its samples x and y"):
            glmsim.scalar_moment_ratio(scalar)

    @pytest.mark.parametrize("n, d, p, stats, message", [
        (0, 2, 2, None, "need n, d >= 1"),
        (10, 2, 2, (1.0, np.zeros(3), np.zeros((4, 4))), r"b of length d\*\*p = 4"),
        (10, 2, 2, (1.0, np.zeros(4), np.zeros((4, 3))), r"M of shape \(4, 4\)"),
        (10, 2, 1, None, "link power p must be an integer >= 2"),
    ])
    def test_rejects_statistics_of_the_wrong_shape(self, n, d, p, stats, message):
        stats = stats or (1.0, np.zeros(4), np.zeros((4, 4)))
        with pytest.raises(ValueError, match=message):
            EmpiricalGlmLoss.from_moments(n, d, p, stats)


class TestDifferenceOracles:
    def test_gradient_of_quadratic_is_exact(self):
        func = lambda t: float(t @ t)
        theta = np.array([0.5, -1.25, 2.0])
        fd = central_difference_gradient(func, theta)
        # central differences are exact for quadratics up to roundoff
        assert np.max(np.abs(fd - 2 * theta)) <= 1e-9

    def test_jacobian_shape(self):
        vec = lambda t: np.array([t[0] ** 2, t[0] * t[1]])
        jac = central_difference_jacobian(vec, np.array([1.0, 2.0]))
        assert jac.shape == (2, 2)
        assert jac == pytest.approx(np.array([[2.0, 0.0], [2.0, 1.0]]), abs=1e-9)


class TestRandomInstances:
    def test_deterministic(self):
        a = random_pow_norm_objective(3, 6, 4, seed=51)
        b = random_pow_norm_objective(3, 6, 4, seed=51)
        assert np.array_equal(a._gram, b._gram)
        assert np.array_equal(a._gram_inv, b._gram_inv)
        assert np.array_equal(a.theta_opt, b.theta_opt)

    def test_entry_scale(self):
        obj = random_pow_norm_objective(4, 400, 4, seed=52, entry_std=2.0)
        assert 1.5 <= np.std(drawn_design(obj, 52, 400, entry_std=2.0)) <= 2.5

    def test_matrix_is_the_scaled_draw_across_a_block_edge(self):
        # 70 * 1000 entries span two blocks of the draw; scaling in place
        # gives the bits of scaling a copy, and so the same Gram matrix
        d, m, entry_std = 70, 1000, 1.0 / np.sqrt(1000)
        obj = random_pow_norm_objective(d, m, 4, seed=53, entry_std=entry_std)
        draw = rng.normals(rng.derive_seed(53, 0, 0), m * d).reshape(m, d)
        assert design_gram(entry_std * draw).tobytes() == obj._gram.tobytes()

    def test_redraws_a_matrix_singular_to_lu(self, monkeypatch):
        # the first draw's inverse fails as an ill-conditioned one's does,
        # and the instance is built from the second draw
        inv = np.linalg.inv
        calls = []

        def singular_once(matrix):
            calls.append(matrix)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(matrix)

        monkeypatch.setattr(np.linalg, "inv", singular_once)
        obj = random_pow_norm_objective(3, 6, 4, seed=51)
        assert len(calls) == 2
        second = rng.normals(rng.derive_seed(51, 0, 1), 18).reshape(6, 3)
        assert np.array_equal(obj._gram, design_gram(second))

    def test_rejected_gram_is_freed_before_the_next_draw(self, monkeypatch):
        # a draw the inverse rejects leaves nothing of itself alive while
        # the next draw is factorized
        inv = np.linalg.inv
        grams, rejected_alive = [], []

        def singular_once(matrix):
            grams.append(weakref.ref(matrix))
            if len(grams) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            rejected_alive.append(grams[0]() is not None)
            return inv(matrix)

        monkeypatch.setattr(np.linalg, "inv", singular_once)
        random_pow_norm_objective(3, 6, 4, seed=51)
        assert rejected_alive == [False]

    def test_design_is_freed_before_the_factorizations(self, monkeypatch):
        # the m-by-d draw (the only draw of m * d values) is dropped once its
        # Gram matrix is formed: it is dead when eigvalsh and inv run, and
        # the instance keeps no reference to it
        d, m = 30, 70
        normals = rng.normals
        eigvalsh, inv = np.linalg.eigvalsh, np.linalg.inv
        designs, design_alive = [], []

        def recording_normals(seed, count):
            out = normals(seed, count)
            if count == m * d:
                designs.append(weakref.ref(out))
            return out

        def checking(factorization):
            def run(matrix):
                design_alive.append([ref() is not None for ref in designs])
                return factorization(matrix)

            return run

        monkeypatch.setattr(rng, "normals", recording_normals)
        monkeypatch.setattr(np.linalg, "eigvalsh", checking(eigvalsh))
        monkeypatch.setattr(np.linalg, "inv", checking(inv))
        obj = random_pow_norm_objective(d, m, 4, seed=54, entry_std=1.0 / np.sqrt(m))
        assert design_alive == [[False], [False]]
        assert not hasattr(obj, "a")

    @settings(max_examples=60)
    @given(
        d=st.integers(1, 40),
        extra=st.integers(0, 40),
        q=st.sampled_from([4, 6, 10]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_factorizations_are_the_design_recipe_to_the_bit(self, d, extra, q, seed):
        # the recipe of an instance that keeps its design, on the redrawn
        # design: A'A, then its eigenvalues, then its symmetrized inverse,
        # redrawing as the constructor does
        m, entry_std = d + extra, 1.0 / np.sqrt(d + extra)
        obj = random_pow_norm_objective(d, m, q, seed, entry_std=entry_std)
        for attempt in range(objectives._MAX_DRAWS):
            a = rng.normals(rng.derive_seed(seed, 0, attempt), m * d).reshape(m, d)
            a *= entry_std
            gram = a.T @ a
            eigs = np.linalg.eigvalsh(gram)
            if not eigs[0] >= objectives.GRAM_POSITIVITY_FLOOR:
                continue
            try:
                gram_inv = np.linalg.inv(gram)
            except np.linalg.LinAlgError:
                continue
            break
        assert obj._gram.tobytes() == gram.tobytes()
        assert obj._gram_inv.tobytes() == (0.5 * (gram_inv + gram_inv.T)).tobytes()
        assert obj.condition_number == float(np.sqrt(eigs[-1] / eigs[0]))
