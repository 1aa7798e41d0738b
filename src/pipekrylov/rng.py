"""Deterministic 64-bit splittable PRNG with uniform and Gaussian output.

The generator is SplitMix64, chosen because the whole stream is a pure
function of a 64-bit seed, so identical seeds reproduce identical noise
on every run.  Gaussian samples come from Box-Muller applied to the
uniform stream; the sampling algorithm is fixed here rather than delegated
to a random-library implementation that may change between versions.

The raw stream and the uniforms are exact integer and float64 arithmetic,
identical on every machine.  Box-Muller keeps the float64 radius
sqrt(-2 log u1), so the tails are those of 53-bit uniforms, but rounds the
angle 2*pi*u2 to float32 and takes numpy's single-precision cos and sin of
it, which brings the sampler to about a third of its float64 cost.  Each
sample pair then lies within about 5e-7 times its radius of float64
Box-Muller (rounding the angle moves it by at most 2**-22 radians), well
under 1e-6.  numpy may pick other code for these and for the float64
log on another CPU or numpy build (its log already differs from the C
library's in the last bit on some inputs), so the Gaussian bytes repeat
on one machine and numpy build, not across them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SplitMix64"]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


class SplitMix64:
    """SplitMix64 stream: state advances by a fixed odd constant per draw."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_uint64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs, identical to n sequential scalar draws."""
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        offsets = (np.arange(1, n + 1, dtype=np.uint64)
                   * np.uint64(_GOLDEN & _MASK))
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + offsets
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _GOLDEN) & _MASK
        return z

    def uniform01(self, n: int) -> np.ndarray:
        """n doubles uniform in [0, 1) with 53-bit resolution."""
        return (self.next_uint64(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def gaussian(self, n: int) -> np.ndarray:
        """n standard normal samples via Box-Muller on uniform pairs, with a
        float64 radius and a single-precision angle (see the module notes).

        Always consumes an even number of raw draws so the state advance
        is a deterministic function of n.
        """
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        pairs = (n + 1) // 2
        raw = self.next_uint64(2 * pairs)
        # u1 in (0, 1] keeps log(u1) finite; u2 in [0, 1).
        u1 = 1.0 - (raw[:pairs] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi * u2).astype(np.float32)
        out = np.empty(2 * pairs)
        np.multiply(radius, np.cos(angle), out=out[0::2])
        np.multiply(radius, np.sin(angle), out=out[1::2])
        return out[:n]
