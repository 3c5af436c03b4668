"""Polar transform, encoders and successive-cancellation decoding.

The transform is x = d F^(kron n) over GF(2) with F = [[1, 0], [1, 1]] and d
a row vector, computed in place by one butterfly along axis 0 of an (N, batch)
array, so each stage XORs whole contiguous rows.  One length-N transform costs
exactly (N/2) log2 N single-bit XORs and is its own inverse.

LLR convention throughout: positive means bit 0 is more likely.

sc_decode makes the decisions of plain successive cancellation (SC) in the
simplified-SC way (Alamdar-Yazdi & Kschischang, 2011), recursing over the
code tree.  It skips rate-0 subtrees (all frozen: their partial sums are the
zeros the buffer starts with, and a parent's g step becomes a + b) and
decides a rate-1 subtree (all info) by the hard decision of its LLRs.  That
shortcut equals SC under min-sum only when every LLR reaching the node is
nonzero and not NaN; otherwise, and always under the tanh rule, the node is
split into its two halves as SC does.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .bitstream import checked_uint8
from .polar_construction import PolarSpec


def _butterfly(x: np.ndarray) -> None:
    """In-place transform along axis 0 of an (N, ...) uint8 array, which must be
    C-contiguous, say freshly allocated: reshape copies any other array, and
    the XORs would be lost with the copy."""
    size, tail = x.shape[0], x.shape[1:]
    half = 1
    while half < size:
        v = x.reshape((size // (2 * half), 2, half) + tail)
        v[:, 0] ^= v[:, 1]
        half *= 2


def polar_transform(bits) -> np.ndarray:
    """Apply the butterfly transform along the last axis.

    Accepts shape (N,) or (..., N) with N a power of two; returns a new
    C-order array.  Involution: applying it twice returns the input.
    """
    x = checked_uint8(bits, 1, "bits").T.copy()  # C order, position-major
    size = x.shape[0]
    if size == 0 or size & (size - 1):
        raise ValueError("transform length must be a power of two")
    _butterfly(x)
    return x.T.copy()


def _check_msg(spec: PolarSpec, msg) -> np.ndarray:
    msg = checked_uint8(msg, 1, "bits")
    if msg.shape[-1] != spec.K:
        raise ValueError(f"message length {msg.shape[-1]} does not match K={spec.K}")
    return msg


def _transformed(spec: PolarSpec, msg) -> np.ndarray:
    """The position-major (N, ...) transform of msg placed in the info rows, frozen rows zero."""
    msg = _check_msg(spec, msg)
    d = np.zeros((spec.N,) + msg.T.shape[1:], dtype=np.uint8)
    d[spec.info_indices()] = msg.T
    _butterfly(d)
    return d


def encode_nspe(spec: PolarSpec, msg) -> np.ndarray:
    """Non-systematic encode: message into info positions, frozen bits zero.

    Accepts (K,) or (..., K); returns the matching C-order (..., N) codeword array.
    """
    return _transformed(spec, msg).T.copy()


def encode_systematic(spec: PolarSpec, msg) -> np.ndarray:
    """Systematic encode: the codeword restricted to info_set equals msg.

    Two-pass method: the non-systematic codeword of msg, its frozen
    positions zeroed, transformed again.  The result is a valid codeword of
    the same (N, K, info_set) code.
    """
    v = _transformed(spec, msg)
    v[~spec.info_mask()] = 0
    _butterfly(v)
    return v.T.copy()


@lru_cache(maxsize=32)
def _cum(spec: PolarSpec) -> tuple:
    """``_cum(spec)[i]`` counts the info positions below i."""
    return (0, *itertools.accumulate(spec.info_mask().tolist()))


def _decide(cum: tuple, l: np.ndarray, bits: np.ndarray, lo: int, exact: bool) -> None:
    """Decide the node whose (m, batch) LLRs are ``l`` and first position ``lo``.

    Writes the node's partial sums into ``bits[lo : lo + m]``.
    """
    m, h = len(l), len(l) >> 1
    info = cum[lo + m] - cum[lo]
    if not info:  # rate 0: its partial sums are the zeros bits starts with
        return
    if info == m and (m == 1 or not exact and np.abs(l).min(initial=np.inf) > 0):
        np.less(l, 0.0, out=bits[lo : lo + m])  # rate 1 with no tie or NaN
        return
    a, b, out = l[:h], l[h:], np.empty((h, l.shape[1]))
    left = cum[lo + h] > cum[lo]
    if left:
        if exact:
            out[:] = 2.0 * np.arctanh(np.tanh(a / 2.0) * np.tanh(b / 2.0))
        else:
            # a * b carries sign(a) sign(b), also when it underflows to +-0;
            # it is NaN only where min(|a|, |b|) is 0 or NaN.
            np.copysign(np.minimum(np.abs(a), np.abs(b), out=out), a * b, out=out)
        _decide(cum, out, bits, lo, exact)
    if cum[lo + m] > cum[lo + h]:
        np.add(b, a, out=out)
        if left:
            np.subtract(b, a, out=out, where=bits[lo : lo + h])
        _decide(cum, out, bits, lo + h, exact)
        bits[lo : lo + h] ^= bits[lo + h : lo + m]


def sc_decode(spec: PolarSpec, llr, *, exact: bool = False) -> np.ndarray:
    """Successive-cancellation decode of channel LLRs to message bits.

    Frozen positions are decided as 0 regardless of their LLR; an LLR of 0
    or NaN decides 0.  Accepts one LLR vector of length N or a (batch, N)
    matrix; returns the K decided message bits per frame.  ``exact``
    switches the check-node update from min-sum to the tanh rule.

    Infinite LLRs are accepted, so a noiseless codeword can be decoded by
    mapping bit b to (1 - 2b) * inf.
    """
    arr = np.asarray(llr, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != spec.N:
        raise ValueError(f"LLR input must have length N={spec.N}")
    # Position-major: row i holds position i of every frame.
    bits = np.zeros((spec.N, arr.shape[0]), dtype=bool)
    with np.errstate(all="ignore"):  # inf - inf gives NaN, as in plain SC
        _decide(_cum(spec), np.ascontiguousarray(arr.T), bits, 0, exact)
    _butterfly(bits.view(np.uint8))
    msg = bits[spec.info_indices()].T.astype(np.uint8, order="C")
    return msg[0] if single else msg
