"""Deterministic PRNG stream.

The oracle is a scalar, loop-based reimplementation of the same published
mixing function, written independently of the vectorized production code.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from pipekrylov.rng import SplitMix64

_MASK = (1 << 64) - 1


def _scalar_stream(seed: int, n: int) -> list[int]:
    """Reference SplitMix64: one state increment and mix per output."""
    state = seed & _MASK
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def test_raw_stream_matches_scalar_oracle():
    for seed in (0, 1, 42, (1 << 64) - 1):
        got = SplitMix64(seed).next_uint64(8).tolist()
        assert got == _scalar_stream(seed, 8)


def test_first_output_for_seed_zero():
    # First mixed output of the zero seed, from the scalar oracle.
    assert SplitMix64(0).next_uint64(1)[0] == 0xE220A8397B1DCDAF


def test_batched_draws_equal_split_draws():
    a = SplitMix64(9)
    b = SplitMix64(9)
    joined = a.next_uint64(7)
    split = np.concatenate([b.next_uint64(3), b.next_uint64(4)])
    assert np.array_equal(joined, split)


def test_negative_count_rejected():
    rng = SplitMix64(0)
    for draw in (rng.next_uint64, rng.uniform01, rng.gaussian):
        for n in (-1, -2):
            with pytest.raises(ValueError, match="draw count must be nonnegative"):
                draw(n)


def test_uniform01_is_top_53_bits():
    raw = _scalar_stream(5, 6)
    expected = [(z >> 11) * 2.0 ** -53 for z in raw]
    got = SplitMix64(5).uniform01(6).tolist()
    assert got == expected
    assert all(0.0 <= u < 1.0 for u in got)


def _box_muller_pairs(seed: int, pairs: int):
    """Scalar Box-Muller on the oracle stream: per pair the float64 radius
    and the float64 angle."""
    raw = _scalar_stream(seed, 2 * pairs)
    for k in range(pairs):
        u1 = 1.0 - (raw[k] >> 11) * 2.0 ** -53
        u2 = (raw[pairs + k] >> 11) * 2.0 ** -53
        yield math.sqrt(-2.0 * math.log(u1)), 2.0 * math.pi * u2


def test_gaussian_matches_box_muller_oracle():
    # the float64 radius times the single-precision cos and sin of the
    # angle rounded to float32; numpy's float64 log may differ from libm's
    # by an ulp, hence the absolute tolerance
    expected = []
    for radius, angle in _box_muller_pairs(13, 3):
        theta = np.float32(angle)
        expected.append(radius * float(np.cos(theta)))
        expected.append(radius * float(np.sin(theta)))
    got = SplitMix64(13).gaussian(6)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-15)


def test_gaussian_pairs_stay_within_1e_6_radius_of_float64_box_muller():
    pairs = 4096
    got = SplitMix64(29).gaussian(2 * pairs)
    for k, (radius, angle) in enumerate(_box_muller_pairs(29, pairs)):
        deviation = math.hypot(got[2 * k] - radius * math.cos(angle),
                               got[2 * k + 1] - radius * math.sin(angle))
        assert deviation <= 1e-6 * radius, k


def test_gaussian_odd_count_consumes_even_draws():
    a = SplitMix64(2)
    b = SplitMix64(2)
    a.gaussian(3)
    b.gaussian(4)
    assert a.next_uint64(1)[0] == b.next_uint64(1)[0]


def test_gaussian_moments_are_plausible():
    x = SplitMix64(77).gaussian(4096)
    assert abs(float(np.mean(x))) < 0.05
    assert abs(float(np.var(x)) - 1.0) < 0.08


def test_identical_seeds_reproduce_identical_streams():
    assert np.array_equal(SplitMix64(123).gaussian(11), SplitMix64(123).gaussian(11))
