import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnbench import rng


class TestStreams:
    def test_same_seed_same_stream(self):
        assert np.array_equal(rng.normals(7, 100), rng.normals(7, 100))
        assert np.array_equal(rng.uniforms(7, 100), rng.uniforms(7, 100))

    def test_different_seeds_differ(self):
        assert not np.array_equal(rng.normals(7, 100), rng.normals(8, 100))

    def test_counter_based_slicing(self):
        # any slice of a uniform stream can be produced independently
        whole = rng.uniforms(3, 50)
        tail = rng.uniforms(3, 30, start=20)
        assert np.array_equal(whole[20:], tail)

    def test_uniforms_in_unit_interval(self):
        u = rng.uniforms(11, 10_000)
        assert np.all(u >= 0.0)
        assert np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.02

    def test_normals_moments(self):
        z = rng.normals(13, 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(np.mean(z ** 3)) < 0.03  # symmetric
        assert abs(np.mean(z ** 4) - 3.0) < 0.1  # Gaussian kurtosis

    def test_normals_odd_count(self):
        assert rng.normals(5, 7).shape == (7,)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            rng.normals(1, -1)


def reference_normals(seed, count):
    """Box-Muller over the whole stream in one pass: the reference that
    the blocked draw must match."""
    pairs = (count + 1) // 2
    w = rng._words(seed, 2 * pairs)
    u1 = ((w[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    u2 = (w[1::2] >> np.uint64(11)) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


class TestBlockedNormals:
    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.integers(0, 70),
        half_block=st.integers(1, 12),
        scale=st.floats(1e-3, 1e3),
    )
    def test_match_one_pass_draw_to_the_bit(self, seed, count, half_block, scale):
        # small even blocks put block edges everywhere in short draws, odd
        # counts included; scaling in place, as the flat family's matrix
        # is scaled, gives the bits of scaling the one-pass draw
        with mock.patch.object(rng, "NORMALS_BLOCK", 2 * half_block):
            blocked = rng.normals(seed, count)
        assert blocked.shape == (count,)
        assert blocked.tobytes() == reference_normals(seed, count).tobytes()
        blocked *= scale
        assert blocked.tobytes() == (scale * reference_normals(seed, count)).tobytes()

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 65_535, 65_536, 65_537, 200_001])
    def test_default_block_edges(self, count):
        assert rng.normals(17, count).tobytes() == reference_normals(17, count).tobytes()

    def test_temporaries_stay_within_a_few_blocks(self):
        # no temporary as long as the output: the output and a few blocks
        count = 1_000_000
        tracemalloc.start()
        try:
            rng.normals(3, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count + 8 * (8 * rng.NORMALS_BLOCK)

    def test_block_is_even(self):
        assert rng.NORMALS_BLOCK % 2 == 0


class TestDeriveSeed:
    def test_deterministic(self):
        assert rng.derive_seed(9, 1, 2) == rng.derive_seed(9, 1, 2)

    def test_tag_order_matters(self):
        assert rng.derive_seed(9, 1, 2) != rng.derive_seed(9, 2, 1)

    def test_derived_streams_decorrelated(self):
        a = rng.normals(rng.derive_seed(9, 0), 5000)
        b = rng.normals(rng.derive_seed(9, 1), 5000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


class TestUnitVector:
    def test_unit_norm(self):
        for d in (1, 2, 10):
            v = rng.unit_vector(d, seed=21)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_direction_varies_with_seed(self):
        assert not np.array_equal(rng.unit_vector(4, 1), rng.unit_vector(4, 2))
