"""LFSR scrambler tests against a brute-force register simulation."""

import numpy as np
import pytest

from beaconphy.scrambler import (
    DEFAULT_POLY,
    DEFAULT_SEED,
    ScramblerSpec,
    keystream,
    period,
    scramble,
)

# Known sequence for x^4 + x^3 + 1 seeded with all ones, worked out by
# stepping the register on paper: 4 seed bits, then s[t] = s[t-4] ^ s[t-1].
REFERENCE_STREAM = [1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 0]


def lfsr_reference(poly_mask, seed, n):
    """Bit-list register simulation, independent of the library's arithmetic."""
    deg = poly_mask.bit_length() - 1
    state = [(seed >> i) & 1 for i in range(deg)]
    taps = [q for q in range(deg) if (poly_mask >> q) & 1]
    out = []
    for _ in range(n):
        out.append(state[0])
        fb = 0
        for q in taps:
            fb ^= state[q]
        state = state[1:] + [fb]
    return out


def test_default_keystream_matches_hand_computation():
    spec = ScramblerSpec()
    assert spec.poly_mask == DEFAULT_POLY and spec.seed == DEFAULT_SEED
    assert keystream(spec, 15).tolist() == REFERENCE_STREAM
    assert sum(REFERENCE_STREAM) == 8


def test_keystream_matches_reference_simulation():
    rng = np.random.default_rng(23)
    for poly in (0b11001, 0b1011, 0b100101, 0b10101, 0b111):
        deg = poly.bit_length() - 1
        for _ in range(8):
            seed = int(rng.integers(1, 1 << deg))
            spec = ScramblerSpec(poly_mask=poly, seed=seed)
            n = int(rng.integers(1, 200))
            assert keystream(spec, n).tolist() == lfsr_reference(poly, seed, n)


def test_period_all_seeds_default_polynomial():
    # Primitive degree-4 polynomial: one orbit through all 15 nonzero states.
    for seed in range(1, 16):
        assert period(ScramblerSpec(seed=seed)) == 15


def test_period_matches_reference_for_non_primitive_polynomial():
    # x^4 + x^2 + 1 is not primitive; orbits split into shorter cycles.
    poly = 0b10101
    for seed in range(1, 16):
        spec = ScramblerSpec(poly_mask=poly, seed=seed)
        p = period(spec)
        ref = lfsr_reference(poly, seed, 2 * p)
        assert ref[:p] == ref[p : 2 * p]
        assert p <= 15
        # Keystream tiles with the state period, also past a whole number of
        # periods and short of one period.
        assert keystream(spec, 3 * p).tolist() == ref[:p] * 3
        assert keystream(spec, 3 * p + 1).tolist() == ref[:p] * 3 + ref[:1]
        assert keystream(spec, p - 1).tolist() == ref[: p - 1]


# x^15 + x^14 + 1, PRBS23 (x^23 + x^18 + 1) and PRBS31 (x^31 + x^28 + 1): a
# frame's key must cost its own length in register steps, not a whole period.
LONG_POLYS = [0xC001, 0x840001, 0x90000001]


@pytest.mark.parametrize("poly", LONG_POLYS, ids=["x15", "prbs23", "prbs31"])
def test_long_register_keystream_matches_reference(poly):
    deg = poly.bit_length() - 1
    seeds = [1, int(np.random.default_rng(poly).integers(1, 1 << deg))]
    for seed in seeds:
        spec = ScramblerSpec(poly_mask=poly, seed=seed)
        assert keystream(spec, 158).tolist() == lfsr_reference(poly, seed, 158)


def test_keystream_is_periodic_tiling():
    spec = ScramblerSpec()
    long = keystream(spec, 64)
    assert long.tolist() == (REFERENCE_STREAM * 5)[:64]
    assert keystream(spec, 0).size == 0


def test_scramble_roundtrip_random():
    rng = np.random.default_rng(40)
    for _ in range(200):
        seed = int(rng.integers(1, 16))
        spec = ScramblerSpec(seed=seed)
        frame = rng.integers(0, 2, int(rng.integers(1, 400)), dtype=np.uint8)
        assert np.array_equal(scramble(spec, scramble(spec, frame)), frame)


def test_scramble_is_keystream_xor():
    spec = ScramblerSpec()
    zeros = np.zeros(31, dtype=np.uint8)
    assert np.array_equal(scramble(spec, zeros), keystream(spec, 31))
    ones = np.ones(31, dtype=np.uint8)
    assert np.array_equal(scramble(spec, ones), keystream(spec, 31) ^ 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScramblerSpec(poly_mask=0b11, seed=1)  # degree 1
    with pytest.raises(ValueError):
        ScramblerSpec(poly_mask=0b11000, seed=1)  # constant term 0
    with pytest.raises(ValueError):
        ScramblerSpec(seed=0)
    with pytest.raises(ValueError):
        ScramblerSpec(seed=16)  # out of register range
    with pytest.raises(ValueError):
        keystream(ScramblerSpec(), -1)


def test_degree_property():
    assert ScramblerSpec().degree == 4
    assert ScramblerSpec(poly_mask=0b100101, seed=1).degree == 5


@pytest.mark.parametrize("mask", [-25, -19, -1])
def test_negative_mask_is_rejected(mask):
    # -25 & 1 == 1 and (-25).bit_length() == 5: without the sign check it
    # would pass for a degree-4 polynomial
    with pytest.raises(ValueError, match="polynomial mask must be nonnegative"):
        ScramblerSpec(poly_mask=mask, seed=1)
