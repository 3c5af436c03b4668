"""Additive (synchronous) LFSR scrambler.

The register is a Fibonacci (external-XOR) LFSR described by a characteristic
polynomial mask: bit q of ``poly_mask`` is the coefficient of x^q, so
x^4 + x^3 + 1 is 0b11001.  The constant term must be 1, which makes the state
update a bijection and every nonzero seed orbit purely periodic.

Bit i of the seed value is the i-th emitted keystream bit; after the first
``degree`` outputs each new bit follows the recurrence given by the
polynomial.  The register is reset to the seed at the start of every frame,
so scrambling is a plain XOR with a fixed keystream and is its own inverse.
An n-bit keystream steps the register at most n times: if the seed state
recurs sooner, that cycle is repeated.  Scrambling always applies to the
message bits fed to the encoder, never to a codeword.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.degree < 2:
            raise ValueError("polynomial degree must be at least 2")
        if not self.poly_mask & 1:
            raise ValueError("polynomial constant term must be 1")
        if not 0 < self.seed < (1 << self.degree):
            raise ValueError(f"seed must be a nonzero {self.degree}-bit value")

    @property
    def degree(self) -> int:
        return self.poly_mask.bit_length() - 1


def _walk(spec: ScramblerSpec, n: int):
    """Emitted bits from the seed state: n of them, or one cycle if the seed state recurs first."""
    deg = spec.degree
    taps = spec.poly_mask & ((1 << deg) - 1)
    state = spec.seed
    for _ in range(n):
        yield state & 1
        fb = (state & taps).bit_count() & 1
        state = (state >> 1) | (fb << (deg - 1))
        if state == spec.seed:
            return


def period(spec: ScramblerSpec) -> int:
    """Number of register steps until the seed state recurs."""
    return sum(1 for _ in _walk(spec, 1 << spec.degree))


def keystream(spec: ScramblerSpec, n: int) -> np.ndarray:
    """First n keystream bits emitted from the seed state."""
    if n < 0:
        raise ValueError("keystream length must be nonnegative")
    return np.resize(np.fromiter(_walk(spec, n), dtype=np.uint8), n)


def scramble(spec: ScramblerSpec, data) -> np.ndarray:
    """XOR data with the keystream, register freshly seeded for this frame."""
    data = bitstream.as_bits(data)
    return data ^ keystream(spec, data.size)
