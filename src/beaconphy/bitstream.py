"""Bit-vector helpers shared by every coding and simulation module.

Bits live in one-dimensional numpy uint8 arrays holding only 0 and 1;
max_run_length also takes a (batch, n) array of such rows, say the .T of
the polar encoder's position-major codewords.  Index 0 is always the first
transmitted bit.  checked_uint8 is the one input check for bits and for
Reed-Solomon symbols.
"""

from __future__ import annotations

import numpy as np


def checked_uint8(values, top: int, what: str) -> np.ndarray:
    """values as a uint8 array, once each is known to be an integer in [0, top].

    The check comes before the cast, which would wrap -1 to 255 and
    truncate 1.9 to 1.
    """
    arr = np.asarray(values)
    if arr.size:
        if arr.dtype.kind not in "biu":
            raise ValueError(f"{what} must be integers, got {arr.dtype}")
        if arr.max() > top or (arr.dtype.kind == "i" and arr.min() < 0):
            raise ValueError(f"{what} must lie in [0, {top + 1})")
    return arr.astype(np.uint8, copy=False)


def as_bits(values) -> np.ndarray:
    """Coerce to a validated 1-D uint8 bit array."""
    arr = checked_uint8(values, 1, "bits")
    if arr.ndim != 1:
        raise ValueError("bit vector must be one-dimensional")
    return arr


def max_run_length(v) -> int:
    """Longest run of identical consecutive bits within any row (0 if empty).

    Takes one bit vector or a (batch, n) array and scans it position-major,
    copying row-major input, whose .T view scans up to 3x slower.  Bitsliced: each
    row's agreements of neighbouring bits fill one bit lane; agreeing spans are
    doubled by whole-array ANDs, then refined by binary search: O(log run) ANDs.
    """
    rows = np.atleast_2d(checked_uint8(v, 1, "bits"))
    if rows.ndim != 2:
        raise ValueError("bit array must be one- or two-dimensional")
    if rows.size == 0:
        return 0
    cols = np.ascontiguousarray(rows.T)
    # spans[j][i] holds a row's lane set where that row's bits i .. i + 2**j agree
    spans = [np.packbits(cols[1:] == cols[:-1], axis=1)]
    while spans[-1].any():
        s, w = spans[-1], 1 << (len(spans) - 1)
        spans.append(s[:-w] & s[w:])
    agree, span = np.full_like(spans[0], 255), 0
    for j in reversed(range(len(spans) - 1)):  # binary search below the last doubling
        tail = spans[j][span:]
        longer = agree[: len(tail)] & tail
        if longer.any():
            agree, span = longer, span + (1 << j)
    return span + 1


def to_text(v) -> str:
    """Serialize to a '0'/'1' string, index 0 leftmost."""
    v = as_bits(v)
    return bytes(v + ord("0")).decode("ascii")


def from_text(s: str) -> np.ndarray:
    """Parse a '0'/'1' string (surrounding whitespace ignored)."""
    s = s.strip()
    if not set(s) <= {"0", "1"}:
        raise ValueError("bitstream text may only contain '0' and '1'")
    return (np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")).astype(np.uint8)
