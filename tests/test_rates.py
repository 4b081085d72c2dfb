import mpmath
import numpy as np
import pytest

from qnbench.rates import (
    _gap_rows,
    contraction_gap_table,
    contraction_map,
    contraction_map_derivative_bound,
    contraction_sequence,
    envelope_holds,
    fixed_point,
    newton_factor,
)

# paper-reported three-decimal values for q = 2p, p in {2, 3, 5, 10}
FIXED_POINTS_3DP = {4: 0.755, 6: 0.857, 10: 0.922, 20: 0.963}
NEWTON_3DP = {4: 0.667, 6: 0.800, 10: 0.889, 20: 0.947}


class TestFixedPoint:
    @pytest.mark.parametrize("q,expected", sorted(FIXED_POINTS_3DP.items()))
    def test_three_decimals(self, q, expected):
        assert round(fixed_point(q), 3) == expected

    def test_many_digits_q4(self):
        # root of r^3 + r^2 = 1, independently solved to high precision
        assert fixed_point(4) == pytest.approx(0.754877666246692760, abs=1e-12)

    @pytest.mark.parametrize("q", [4, 5, 6, 10, 20, 64])
    def test_defining_residual(self, q):
        r = fixed_point(q)
        assert abs(r ** (q - 1) + r ** (q - 2) - 1.0) <= 1e-10

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            fixed_point(3)

    @pytest.mark.parametrize("q", range(4, 101))
    def test_correctly_rounded(self, q):
        # the nearest double to a 60-digit root found independently
        with mpmath.workdps(60):
            r_star = mpmath.findroot(lambda r: r ** (q - 1) + r ** (q - 2) - 1, 1)
            assert fixed_point(q) == float(r_star)


class TestNewtonFactor:
    @pytest.mark.parametrize("q,expected", sorted(NEWTON_3DP.items()))
    def test_three_decimals(self, q, expected):
        assert round(newton_factor(q), 3) == expected

    def test_below_fixed_point_everywhere(self):
        for q in range(4, 101):
            assert newton_factor(q) < fixed_point(q) < 1.0

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            newton_factor(3)


class TestContractionSequence:
    def test_first_factor_exact(self):
        assert contraction_sequence(4, 0).factors[0] == 2.0 / 3.0

    def test_second_factor_rational(self):
        # (1 - (2/3)^2) / (1 - (2/3)^3) = 15/19
        seq = contraction_sequence(4, 1)
        assert seq.factors[1] == pytest.approx(15.0 / 19.0, rel=1e-14)

    def test_recursion_matches_map(self):
        seq = contraction_sequence(6, 30)
        for k in range(30):
            assert seq.factors[k + 1] == contraction_map(6, seq.factors[k])

    def test_close_to_fixed_point_after_five_steps(self):
        seq = contraction_sequence(4, 5)
        r_star = fixed_point(4)
        assert abs(seq.factors[5] - r_star) < 0.01 * abs(seq.factors[0] - r_star)

    @pytest.mark.parametrize("q", [4, 10, 30, 64])
    def test_envelope_in_double_precision_range(self, q):
        # (1/2)^k only stays above double-precision noise for small k
        seq, r_star = contraction_sequence(q, 40), fixed_point(q)
        gap0 = abs(seq.factors[0] - r_star)
        for k, r in enumerate(seq.factors):
            assert abs(r - r_star) <= 0.5 ** k * gap0 + 1e-13

    def test_factors_stay_in_unit_interval(self):
        for q in (4, 7, 12, 33):
            seq = contraction_sequence(q, 100)
            assert np.all(seq.factors >= 0.0)
            assert np.all(seq.factors < 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            contraction_sequence(3, 5)
        with pytest.raises(ValueError):
            contraction_sequence(4, -1)


class TestContractionMap:
    def test_rational_value(self):
        assert contraction_map(4, 2.0 / 3.0) == pytest.approx(15.0 / 19.0, rel=1e-14)

    def test_fixed_point_is_fixed(self):
        for q in (4, 6, 20):
            r = fixed_point(q)
            assert abs(contraction_map(q, r) - r) <= 1e-10

    def test_value_at_zero(self):
        for q in (4, 5, 50):
            assert contraction_map(q, 0.0) == 1.0

    def test_rejects_unit_input(self):
        with pytest.raises(ValueError):
            contraction_map(4, 1.0)


class TestDerivativeBound:
    @pytest.mark.parametrize("q", [4, 11, 50, 100])
    def test_holds(self, q):
        assert contraction_map_derivative_bound(q) <= 0.5 + 1e-9

    def test_derivative_zero_at_origin(self):
        # the q-3 power annihilates the numerator at r = 0 for q >= 4
        r = np.array([0.0])
        for q in (4, 5, 9):
            numer = (q - 1) * r ** (q - 2) - r ** (2 * q - 4) - (q - 2) * r ** (q - 3)
            assert numer[0] == 0.0

    @pytest.mark.parametrize(
        "q,r,expected",
        [
            # frozen from symbolic differentiation of the map
            (4, 0.1, -700 / 4107),
            (4, 0.5, -20 / 49),
            (4, 0.9, -26100 / 73441),
            (7, 0.1, -1810700 / 4115218107),
            (7, 0.5, -172 / 1323),
            (7, 0.9, -86238440100 / 219547536481),
        ],
    )
    def test_matches_symbolic_oracle(self, q, r, expected):
        numer = (q - 1) * r ** (q - 2) - r ** (2 * q - 4) - (q - 2) * r ** (q - 3)
        denom = (1.0 - r ** (q - 1)) ** 2
        assert numer / denom == pytest.approx(expected, abs=1e-9)


class TestHighPrecisionTable:
    def test_envelope_holds_far_beyond_double_precision(self):
        assert envelope_holds(4, 200)
        assert envelope_holds(64, 200)

    def test_table_rows(self):
        rows = contraction_gap_table(4, 10)
        assert len(rows) == 11
        k, factor, r_star, gap, envelope = rows[0]
        assert k == 0
        assert factor == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert r_star == pytest.approx(0.754878, abs=5e-7)
        assert gap == pytest.approx(abs(factor - r_star), rel=1e-12)
        for k, factor, r_star, gap, envelope in rows:
            assert gap <= envelope

    @pytest.mark.parametrize("q", [4, 6, 10, 20, 64, 100])
    @pytest.mark.parametrize("k_max", [0, 200, 500])
    def test_polished_fixed_point_residual(self, q, k_max):
        r = _gap_rows(q, k_max)[0][1]
        digits = 40 + int(0.302 * k_max) + 1  # the working precision
        with mpmath.workdps(digits + 20):
            r = mpmath.mpf(str(r))
            residual = abs(r ** (q - 1) + r ** (q - 2) - 1)
            assert residual < mpmath.mpf(10) ** -(digits - 5)

    def test_long_table_resolves_fast_decaying_gaps(self):
        # at large q the gap decays by ~0.413 digits per step, faster than
        # the (1/2)**k envelope; a 1500-digit recursion is the reference
        q, k_max = 100, 400
        rows = contraction_gap_table(q, k_max)
        with mpmath.workdps(1500):
            r_star = mpmath.findroot(lambda r: r ** (q - 1) + r ** (q - 2) - 1, 0.993)
            r = mpmath.mpf(q - 2) / (q - 1)
            reference = [abs(r - r_star)]
            for _ in range(k_max):
                r = (1 - r ** (q - 2)) / (1 - r ** (q - 1))
                reference.append(abs(r - r_star))
            for k in (347, 360, 400):
                assert rows[k][3] == pytest.approx(float(reference[k]), rel=1e-12, abs=0)

    def test_subnormal_gap_is_correctly_rounded(self):
        # at q = 20 the gap first drops below 2**-1022 at k = 741
        q, k = 20, 741
        with mpmath.workdps(400):
            r_star = mpmath.findroot(lambda r: r ** (q - 1) + r ** (q - 2) - 1, 1)
            r = mpmath.mpf(q - 2) / (q - 1)
            for _ in range(k):
                r = (1 - r ** (q - 2)) / (1 - r ** (q - 1))
            # through a decimal string: one rounding, also below 2**-1022
            gap = float(mpmath.nstr(abs(r - r_star), 40))
        assert contraction_gap_table(q, k)[k][3] == gap

    def test_single_row_base_case(self):
        rows = contraction_gap_table(4, 0)
        assert len(rows) == 1
        assert rows[0][3] == pytest.approx(rows[0][4], rel=1e-12)

    def test_rejects_negative_k_max(self):
        # as contraction_sequence does
        with pytest.raises(ValueError, match="k_max"):
            contraction_gap_table(4, -1)
        with pytest.raises(ValueError, match="k_max"):
            envelope_holds(4, -1)
