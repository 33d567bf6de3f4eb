"""Deterministic 64-bit random number generator.

Sampling must reproduce bit-for-bit across platforms and processes, so
the toolkit pins its own generator instead of relying on library
defaults. The state transition is the splitmix construction:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output <- z xor (z >> 31)

Uniform doubles take the top 53 bits of the output, giving values in
[0, 1). One `uniform()` call consumes exactly one state transition;
`uniforms(n)` computes the same n doubles at once in numpy uint64, whose
multiplication wraps mod 2^64 exactly like the masked integer code.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_CHUNK = 1 << 16  # bounds the uint64 temporaries of uniforms()


def mix64(z: int) -> int:
    """Finalizer of the splitmix transition; also used as a stable hash."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stable_hash(text: str) -> int:
    """Platform-independent 64-bit hash of a string.

    FNV-1a over the UTF-8 bytes, passed through the splitmix finalizer
    so that near-identical keys land far apart. Used to derive per-cell
    and per-sample seeds; must never change across releases.
    """
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return mix64(h)


class SplitMix64:
    """Seedable generator with the transition documented above."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_uint64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return mix64(self.state)

    def uniform(self) -> float:
        """One double in [0, 1), consuming one state transition."""
        return (self.next_uint64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` values of ``uniform()``, bit for bit, as an array.

        Advances the state by ``n`` transitions, as ``n`` calls would.
        """
        out = np.empty(n)
        for start in range(0, n, _CHUNK):
            stop = min(n, start + _CHUNK)
            # The i-th transition from here leaves state + i * gamma.
            z = np.arange(start + 1, stop + 1, dtype=np.uint64)
            z *= np.uint64(_GAMMA)
            z += np.uint64(self.state)
            z ^= z >> np.uint64(30)
            z *= np.uint64(_MIX1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
            out[start:stop] = z >> np.uint64(11)
        out *= 1.0 / (1 << 53)
        self.state = (self.state + n * _GAMMA) & _MASK
        return out

    def randint(self, n: int) -> int:
        """Integer in [0, n) via rejection, consuming >= 1 transitions."""
        if n <= 0:
            raise ValueError("randint needs a positive bound")
        # Rejection sampling keeps the draw exactly uniform.
        limit = _MASK - (_MASK + 1) % n
        while True:
            v = self.next_uint64()
            if v <= limit:
                return v % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
