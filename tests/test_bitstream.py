"""Bit-vector helper tests."""

import numpy as np
import pytest

from beaconphy import bitstream
from beaconphy.channel import modulate_ook
from beaconphy.polar_codec import _check_msg, polar_transform
from beaconphy.polar_construction import construct


def test_as_bits_accepts_lists_and_arrays():
    v = bitstream.as_bits([0, 1, 1, 0])
    assert v.dtype == np.uint8
    assert v.tolist() == [0, 1, 1, 0]
    same = bitstream.as_bits(np.array([1, 0], dtype=np.int64))
    assert same.dtype == np.uint8


def test_as_bits_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        bitstream.as_bits([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        bitstream.as_bits([0, 2, 1])


BIT_INPUTS = {
    "as_bits": bitstream.as_bits,
    "max_run_length": bitstream.max_run_length,
    "polar_transform": polar_transform,
    "_check_msg": lambda bits: _check_msg(construct(8, 4), bits),
    "modulate_ook": modulate_ook,
}


@pytest.mark.parametrize("bits, message", [
    ([-1, 0, 1, 0], r"bits must lie in \[0, 2\)"),
    ([1.9, 0, 1, 0], "bits must be integers, got float64"),
])
@pytest.mark.parametrize("entry", BIT_INPUTS)
def test_bit_inputs_are_checked_before_the_cast(entry, bits, message):
    # a cast first would raise OverflowError on -1 and take 1.9 as 1
    with pytest.raises(ValueError, match=message):
        BIT_INPUTS[entry](bits)


def test_max_run_length():
    assert bitstream.max_run_length([]) == 0
    assert bitstream.max_run_length([0]) == 1
    assert bitstream.max_run_length([0, 1, 0, 1]) == 1
    assert bitstream.max_run_length([1, 1, 0, 1]) == 2
    assert bitstream.max_run_length([0, 0, 0, 0]) == 4
    assert bitstream.max_run_length([1, 0, 0, 1, 1, 1]) == 3


def naive_max_run(v):
    best = cur = 1
    for i in range(1, v.size):
        cur = cur + 1 if v[i] == v[i - 1] else 1
        best = max(best, cur)
    return best


def test_max_run_length_matches_naive_scan():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.integers(0, 2, int(rng.integers(1, 80)), dtype=np.uint8)
        assert bitstream.max_run_length(v) == naive_max_run(v)
    # A batch gives the longest run within any row, the rows scanned apart.
    for shape in [(1, 1), (1, 37), (7, 1), (9, 5), (40, 64)]:
        for p_one in (0.5, 0.9):
            rows = (rng.random(shape) < p_one).astype(np.uint8)
            assert bitstream.max_run_length(rows) == max(naive_max_run(r) for r in rows)
    # Each row ends in a run that the next row's first bits continue;
    # joined across rows, both runs would reach 5.
    rows = np.array([[0, 1, 0, 1, 1], [1, 1, 1, 0, 0], [0, 0, 0, 1, 0]], dtype=np.uint8)
    assert bitstream.max_run_length(rows) == 3
    # The .T view of a C-order position-major (n, batch) array, scanned
    # without a copy, and bool input.
    for n, batch in [(256, 500), (33, 9), (7, 64)]:
        cols = (rng.random((n, batch)) < 0.9).astype(np.uint8)
        want = max(naive_max_run(r) for r in cols.T)
        assert bitstream.max_run_length(cols.T) == want
        assert bitstream.max_run_length(cols.T.astype(bool)) == want
        assert bitstream.max_run_length(cols.astype(bool)[:, 0]) == naive_max_run(cols[:, 0])
    # All-equal rows: run = n takes every doubling step until the span is empty.
    for n in range(1, 301):
        for bit in (0, 1):
            rows = np.full((3, n), bit, dtype=np.uint8)
            assert bitstream.max_run_length(rows) == naive_max_run(rows[0]) == n
    # n = 1 and n = 2 at batches that leave 0 to 7 packbits padding lanes.
    for n in (1, 2):
        for batch in range(1, 18):
            rows = rng.integers(0, 2, (batch, n), dtype=np.uint8)
            assert bitstream.max_run_length(rows) == max(naive_max_run(r) for r in rows)
    assert bitstream.max_run_length(np.ones((4, 6), dtype=np.uint8)) == 6
    assert bitstream.max_run_length(np.zeros((5, 1), dtype=np.uint8)) == 1
    assert bitstream.max_run_length(np.zeros((3, 0), dtype=np.uint8)) == 0
    for bad in ([0, 2, 1], [[0, 1], [1, 3]], np.zeros((2, 2, 2), dtype=np.uint8)):
        with pytest.raises(ValueError):
            bitstream.max_run_length(bad)


def test_text_roundtrip():
    assert bitstream.to_text([1, 0, 1, 1]) == "1011"
    assert bitstream.from_text("1011").tolist() == [1, 0, 1, 1]
    assert bitstream.from_text("  0110\n").tolist() == [0, 1, 1, 0]
    rng = np.random.default_rng(5)
    v = rng.integers(0, 2, 997, dtype=np.uint8)
    assert np.array_equal(bitstream.from_text(bitstream.to_text(v)), v)


def test_from_text_rejects_other_characters():
    with pytest.raises(ValueError):
        bitstream.from_text("10x1")
    with pytest.raises(ValueError):
        bitstream.from_text("102")
