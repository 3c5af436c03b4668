"""Additive (synchronous) LFSR scrambler.

The register is a Fibonacci (external-XOR) LFSR described by a characteristic
polynomial mask: bit q of ``poly_mask`` is the coefficient of x^q, so
x^4 + x^3 + 1 is 0b11001.  The constant term must be 1, which makes the state
update a bijection and every nonzero seed orbit purely periodic.

Bit i of the seed value is the i-th emitted keystream bit; after the first
``degree`` outputs each new bit follows the recurrence given by the
polynomial.  The register is reset to the seed at the start of every frame,
so scrambling is a plain XOR with a fixed keystream and is its own inverse.
Scrambling always applies to the message bits fed to the encoder, never to a
codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bitstream

DEFAULT_POLY = 0b11001
DEFAULT_SEED = 0b1111


@dataclass(frozen=True)
class ScramblerSpec:
    """LFSR polynomial mask plus the per-frame seed state."""

    poly_mask: int = DEFAULT_POLY
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.poly_mask < 0:
            raise ValueError("polynomial mask must be nonnegative")
        deg = self.poly_mask.bit_length() - 1
        if deg < 2:
            raise ValueError("polynomial degree must be at least 2")
        if not self.poly_mask & 1:
            raise ValueError("polynomial constant term must be 1")
        if not 0 < self.seed < (1 << deg):
            raise ValueError(f"seed must be a nonzero {deg}-bit value")

    @property
    def degree(self) -> int:
        return self.poly_mask.bit_length() - 1


@lru_cache(maxsize=128)
def _cycle(poly_mask: int, seed: int) -> np.ndarray:
    """Emitted bits of one full register cycle, starting from the seed state."""
    deg = poly_mask.bit_length() - 1
    taps = poly_mask & ((1 << deg) - 1)
    out = []
    state = seed
    while True:
        out.append(state & 1)
        fb = (state & taps).bit_count() & 1
        state = (state >> 1) | (fb << (deg - 1))
        if state == seed:
            break
    return np.array(out, dtype=np.uint8)


def period(spec: ScramblerSpec) -> int:
    """Number of register steps until the seed state recurs."""
    return int(_cycle(spec.poly_mask, spec.seed).size)


def keystream(spec: ScramblerSpec, n: int) -> np.ndarray:
    """First n keystream bits emitted from the seed state."""
    if n < 0:
        raise ValueError("keystream length must be nonnegative")
    cyc = _cycle(spec.poly_mask, spec.seed)
    reps = -(-n // cyc.size)
    return np.tile(cyc, reps)[:n]


def scramble(spec: ScramblerSpec, data) -> np.ndarray:
    """XOR data with the keystream, register freshly seeded for this frame."""
    data = bitstream.as_bits(data)
    return data ^ keystream(spec, data.size)
