"""GF(16) Reed-Solomon tests: field algebra, encoder roots, decoder behavior."""

import itertools

import numpy as np
import pytest

import rs_oracle
from beaconphy.reed_solomon import (
    N_SYMBOLS,
    SYMBOL_BITS,
    _INV,
    _MUL,
    RsSpec,
    bits_to_symbols,
    generator_poly,
    rs_decode,
    rs_encode,
    symbols_to_bits,
)


def gf_mul_reference(a, b):
    """Carry-less multiply reduced by x^4 + x + 1, bit by bit."""
    acc = 0
    for i in range(4):
        if (b >> i) & 1:
            acc ^= a << i
    for deg in range(7, 3, -1):
        if (acc >> deg) & 1:
            acc ^= 0b10011 << (deg - 4)
    return acc


def test_gf_mul_matches_reference():
    # The codec's table against a bitwise multiply and the oracle's log tables.
    for a in range(16):
        for b in range(16):
            assert _MUL[a][b] == gf_mul_reference(a, b) == rs_oracle.gf_mul(a, b)


def test_gf_field_structure():
    # alpha = 2 generates the multiplicative group.
    seen = set()
    x = 1
    for _ in range(15):
        seen.add(x)
        x = _MUL[x][2]
    assert x == 1 and len(seen) == 15
    for a in range(1, 16):
        assert _MUL[a][_INV[a]] == 1
        assert _INV[a] == rs_oracle.gf_inv(a)
    assert _MUL[2][9] == 1  # known inverse pair


def test_generator_poly_hand_values():
    # (x + a)(x + a^2) = x^2 + 6x + 8 with a = 2.
    assert generator_poly(2) == (1, 6, 8)
    # Degree 4 generator for the (15, 11) code.
    assert generator_poly(4) == (1, 13, 12, 8, 7)


def test_generator_poly_has_consecutive_roots():
    for nk in (4, 8, 12):
        g = generator_poly(nk)
        power = 1
        for _ in range(nk):
            power = rs_oracle.gf_mul(power, 2)
            acc = 0
            for c in g:
                acc = rs_oracle.gf_mul(acc, power) ^ c
            assert acc == 0


def test_encode_is_systematic_and_roots_vanish():
    rng = np.random.default_rng(83)
    for k in (3, 7, 11):
        spec = RsSpec(k)
        for _ in range(25):
            msg = rng.integers(0, 16, k)
            cw = rs_encode(spec, msg)
            assert cw.size == N_SYMBOLS
            assert np.array_equal(cw[:k], msg)
            # Codeword polynomial vanishes at alpha^1 .. alpha^(n-k);
            # cw[0] is the highest-degree coefficient.
            power = 1
            for _ in range(N_SYMBOLS - k):
                power = rs_oracle.gf_mul(power, 2)
                acc = 0
                for c in cw:
                    acc = rs_oracle.gf_mul(acc, power) ^ int(c)
                assert acc == 0


def test_encode_zero_message():
    for k in (3, 7, 11):
        assert not rs_encode(RsSpec(k), [0] * k).any()


def test_encode_validation():
    with pytest.raises(ValueError):
        rs_encode(RsSpec(11), [0] * 10)
    with pytest.raises(ValueError):
        rs_encode(RsSpec(11), [16] + [0] * 10)
    with pytest.raises(ValueError):
        RsSpec(5)


def test_non_integer_symbols_are_rejected():
    # a cast would encode 1.7 as 1 and decode 1.5 as 1
    with pytest.raises(ValueError, match="symbols must be integers, got float64"):
        rs_encode(RsSpec(7), [1.7] * 7)
    with pytest.raises(ValueError, match="symbols must be integers, got float64"):
        rs_decode(RsSpec(7), [1.5] * 15)
    with pytest.raises(ValueError, match="symbols must be integers"):
        rs_decode(RsSpec(7), np.full((2, 3, 15), 2.9))


def test_decode_clean_codewords():
    rng = np.random.default_rng(89)
    for k in (3, 7, 11):
        spec = RsSpec(k)
        for _ in range(20):
            msg = rng.integers(0, 16, k)
            out, lost = rs_decode(spec, rs_encode(spec, msg))
            assert not lost and np.array_equal(out, msg)


def test_decode_corrects_up_to_t_errors():
    rng = np.random.default_rng(97)
    for k in (3, 7, 11):
        spec = RsSpec(k)
        for _ in range(60):
            msg = rng.integers(0, 16, k)
            cw = rs_encode(spec, msg)
            nerr = int(rng.integers(1, spec.t + 1))
            pos = rng.choice(N_SYMBOLS, nerr, replace=False)
            recv = cw.copy()
            for p in pos:
                recv[p] ^= int(rng.integers(1, 16))
            out, lost = rs_decode(spec, recv)
            assert not lost and np.array_equal(out, msg)


def test_decode_beyond_t_never_returns_transmitted():
    # With t+1 errors the decoder may miscorrect or give up, but bounded
    # distance decoding can never land back on the transmitted word.
    rng = np.random.default_rng(101)
    spec = RsSpec(11)
    for _ in range(200):
        msg = rng.integers(0, 16, 11)
        cw = rs_encode(spec, msg)
        pos = rng.choice(N_SYMBOLS, spec.t + 1, replace=False)
        recv = cw.copy()
        for p in pos:
            recv[p] ^= int(rng.integers(1, 16))
        out, lost = rs_decode(spec, recv)
        assert out.shape == (11,)
        if lost:
            assert not out.any()
        else:
            assert not np.array_equal(out, msg)


def test_decode_failure_value_occurs():
    # Some weight-3 patterns on the zero codeword must be flagged as
    # uncorrectable rather than silently miscorrected.
    spec = RsSpec(11)
    failures = 0
    for pos in itertools.combinations(range(N_SYMBOLS), 3):
        recv = np.zeros(N_SYMBOLS, dtype=np.uint8)
        recv[list(pos)] = 1
        if rs_decode(spec, recv)[1]:
            failures += 1
    assert failures > 0


@pytest.mark.parametrize("k", (7, 3))
def test_every_decoded_word_lies_within_t_of_its_codeword(k):
    # Berlekamp-Massey's locator is trusted once its root count matches its
    # degree; no residual-syndrome check follows.  Random words and codewords
    # with t + 1 errors: whatever is not flagged must be within t symbols of
    # its message's codeword.
    rng = np.random.default_rng(109 + k)
    spec = RsSpec(k)
    codewords = rs_encode(spec, rng.integers(0, 16, (5000, k)))
    pos = np.argsort(rng.random(codewords.shape), axis=1)[:, : spec.t + 1]
    errors = rng.integers(1, 16, pos.shape, dtype=np.uint8)
    np.put_along_axis(codewords, pos, np.take_along_axis(codewords, pos, axis=1) ^ errors, axis=1)
    words = np.concatenate([rng.integers(0, 16, (40000, N_SYMBOLS), dtype=np.uint8), codewords])
    msgs, failed = rs_decode(spec, words)
    distance = np.count_nonzero(rs_encode(spec, msgs) != words, axis=1)
    assert (distance[~failed] <= spec.t).all()
    # more than 2 errors: decoded by Berlekamp-Massey, not the weight-2 table
    assert (distance[~failed] > 2).any() and failed.any()


def test_decode_validation():
    with pytest.raises(ValueError):
        rs_decode(RsSpec(11), [0] * 14)


@pytest.mark.parametrize("length", [14, 16])
def test_decode_rejects_wrong_length(length):
    with pytest.raises(ValueError, match=f"expected 15 symbols, got {length}"):
        rs_decode(RsSpec(7), [0] * length)
    with pytest.raises(ValueError, match=f"expected 15 symbols, got {length}"):
        rs_decode(RsSpec(7), np.zeros((4, 2, length), dtype=np.uint8))


@pytest.mark.parametrize("bad", [16, -1])
def test_decode_rejects_out_of_range_symbols(bad):
    with pytest.raises(ValueError, match="symbols must lie in"):
        rs_decode(RsSpec(7), [0] * 14 + [bad])
    with pytest.raises(ValueError, match="symbols must lie in"):
        rs_decode(RsSpec(7), np.array([bad] + [0] * 14, dtype=np.int64))
    batch = np.zeros((3, 2, 15), dtype=np.int64)
    batch[2, 1, 7] = bad
    with pytest.raises(ValueError, match="symbols must lie in"):
        rs_decode(RsSpec(7), batch)


def test_decode_input_types_agree():
    # clean, one error, two errors, and a word the decoder gives up on
    spec = RsSpec(11)
    words = np.array([rs_encode(spec, np.arange(1, 12))] * 4)
    words[1, 4] ^= 9
    words[2, 0] ^= 3
    words[2, 12] ^= 5
    words[3] = [1, 1, 0, 0, 0, 1] + [0] * 9
    outcomes = []
    for word in words:
        outs = [rs_decode(spec, form) for form in
                (word.tolist(), word.astype(np.uint8), word.astype(np.int64))]
        for out, lost in outs:
            assert out.dtype == np.uint8 and np.array_equal(out, outs[0][0])
            assert lost.dtype == bool and lost == outs[0][1]
        outcomes.append(bool(outs[0][1]))
    assert outcomes == [False, False, False, True]


@pytest.mark.parametrize("k", (3, 7, 11))
def test_decode_batch_equals_word_by_word(k):
    spec = RsSpec(k)
    rng = np.random.default_rng(107 + k)
    words = rs_encode(spec, rng.integers(0, 16, (6, 5, k)))
    nerr = rng.integers(0, spec.t + 3, (6, 5))
    for f, b in np.ndindex(6, 5):
        pos = rng.choice(N_SYMBOLS, nerr[f, b], replace=False)
        words[f, b, pos] ^= rng.integers(1, 16, nerr[f, b]).astype(np.uint8)
    msgs, failed = rs_decode(spec, words)
    assert msgs.shape == (6, 5, k) and msgs.dtype == np.uint8
    assert failed.shape == (6, 5) and failed.dtype == bool
    for f, b in np.ndindex(6, 5):
        out, lost = rs_decode(spec, words[f, b])
        assert out.shape == (k,) and lost.shape == ()
        assert np.array_equal(msgs[f, b], out) and failed[f, b] == lost
    assert failed.any() and not failed.all()
    assert not msgs[failed].any()


@pytest.mark.parametrize("k", (3, 7, 11))
def test_decode_empty_batch(k):
    msgs, failed = rs_decode(RsSpec(k), np.zeros((0, 15), dtype=np.uint8))
    assert msgs.shape == (0, k) and msgs.dtype == np.uint8
    assert failed.shape == (0,) and failed.dtype == bool


def test_bits_symbols_roundtrip():
    # MSB-first packing: 1011 -> 11.
    assert bits_to_symbols([1, 0, 1, 1]).tolist() == [11]
    assert symbols_to_bits([11]).tolist() == [1, 0, 1, 1]
    rng = np.random.default_rng(103)
    bits = (rng.random((6, 5 * SYMBOL_BITS)) < 0.5).astype(np.uint8)
    assert np.array_equal(symbols_to_bits(bits_to_symbols(bits)), bits)
    syms = rng.integers(0, 16, (4, 9)).astype(np.uint8)
    assert np.array_equal(bits_to_symbols(symbols_to_bits(syms)), syms)


def test_bits_to_symbols_rejects_a_partial_symbol():
    with pytest.raises(ValueError, match="bit count must be a multiple of 4"):
        bits_to_symbols(np.zeros((2, 6), np.uint8))
