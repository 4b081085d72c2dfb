"""Self-contained deterministic random streams.

Every experiment in this package must reproduce bit-for-bit from its seed,
so sampling does not go through a library generator whose stream may change
between releases.  The construction is fixed here:

* word ``i`` of stream ``seed`` is ``mix64(seed + (i + 1) * GOLDEN)`` where
  ``mix64`` is the SplitMix64 finalizer (Steele, Lea & Flood 2014); the
  recurrence is purely counter based, so any slice of a stream can be
  produced independently,
* uniforms take the top 53 bits of each word, scaled to [0, 1),
* Gaussians apply the Box-Muller transform to consecutive uniform pairs
  (pair ``j`` fills outputs ``2j`` and ``2j + 1``).

Independent streams for distinct purposes (data, noise, initial points)
are derived from one base seed with :func:`derive_seed`.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Values per block of ``normals``; even, so blocks align with pairs.
NORMALS_BLOCK = 65_536


def _mix64_int(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z):
    # uint64 arithmetic wraps mod 2**64, matching _mix64_int
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _words(seed: int, count: int, start: int = 0):
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix64_array(np.uint64(seed & _MASK64) + idx * np.uint64(_GOLDEN))


def derive_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into ``seed``, producing a decorrelated stream seed."""
    h = seed & _MASK64
    for t in tags:
        h = _mix64_int(h ^ ((t & _MASK64) * _GOLDEN & _MASK64))
    return h


def uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """``count`` doubles in [0, 1) from words ``start`` onward of the stream."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return (_words(seed, count, start) >> np.uint64(11)) * 2.0 ** -53


def normals(seed: int, count: int) -> np.ndarray:
    """``count`` standard Gaussian doubles via Box-Muller on uniform pairs.

    The output is filled ``NORMALS_BLOCK`` values at a time, so no
    temporary is longer than a block; the block is even, so each block
    starts on a pair and the values do not depend on it.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    out = np.empty(count)
    for start in range(0, count, NORMALS_BLOCK):
        block = out[start : start + NORMALS_BLOCK]
        pairs = (len(block) + 1) // 2
        w = _words(seed, 2 * pairs, start)
        # first word of each pair maps to (0, 1] so log() is finite
        u1 = ((w[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
        u2 = (w[1::2] >> np.uint64(11)) * 2.0 ** -53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        block[0::2] = radius * np.cos(angle)
        block[1::2] = (radius * np.sin(angle))[: len(block) // 2]
    return out


def unit_vector(d: int, seed: int) -> np.ndarray:
    """A vector drawn uniformly from the unit sphere in ``d`` dimensions."""
    if d < 1:
        raise ValueError("dimension must be positive")
    for attempt in range(16):
        v = normals(derive_seed(seed, attempt), d)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm
    raise RuntimeError("could not draw a non-degenerate direction")
