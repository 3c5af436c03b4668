"""Polar transform, encoders and successive-cancellation decoding.

The transform is x = d F^(kron n) over GF(2) with F = [[1, 0], [1, 1]] and d
a row vector, computed in place by one butterfly along axis 0 of an (N, batch)
array, so each stage XORs whole contiguous rows.  One length-N transform costs
exactly (N/2) log2 N single-bit XORs and is its own inverse.

LLR convention throughout: positive means bit 0 is more likely.

sc_decode makes the decisions of plain successive cancellation (SC) and
decides four kinds of node in one step, as simplified SC (Alamdar-Yazdi &
Kschischang, 2011) and Fast-SSC (Sarkis et al., 2014) do.  Each one-step
decision equals SC's own under the guard given; a node whose guard fails is
split into its two halves as SC does.
- Rate 0 (all frozen): skipped.  Its partial sums are the zeros the buffer
  starts with, and a parent's g step becomes a + b.
- Rate 1 (all info): the hard decision of each LLR.  Guard, above a single
  position: min-sum, and every LLR reaching the node nonzero and not NaN.
- Repetition (only the last position info): the sign of the LLRs' sum,
  taken in SC's order of g steps, written to every partial sum.  No check
  node lies on the way, so this holds in both modes, unguarded.
- Single parity check (only the first position frozen): Wagner's rule, the
  hard decisions with each odd-parity frame's least reliable bit flipped.
  Guard: min-sum, every |LLR| nonzero and not NaN, and in every frame of
  the batch the least |LLR| held by one position alone.  Then, by induction
  on the node size, the left child is such a node on the magnitudes
  min(|a|, |b|), the right child's g LLRs keep the signs of b except at the
  flipped pair, where the larger magnitude wins, and every rate-1 step
  below is free of ties, so SC returns Wagner's decision.  Under the tanh
  rule, or with a tied least |LLR|, SC can decide otherwise.

The walk over the code tree is compiled once per (spec, exact, batch size)
into a plan: numpy calls bound with out= to fixed views of one workspace
(one LLR buffer per tree level, whose free rows serve as scratch, and the
(N, batch) partial sums), and per guarded node a closure that, when the
guard fails, runs the node's split, compiled the first time.  A call copies its LLRs in, runs the plan,
re-encodes and gathers the message into a new array.  Workspaces are pooled
per key, under a bounded lru_cache: a call pops one, or compiles a fresh
one, and puts it back when done, so no two threads ever share one.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial

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


def encode_position_major(spec: PolarSpec, msg, *, systematic: bool = False) -> np.ndarray:
    """Encode msg (K,) or (..., K) into a new C-order position-major (N, ...) array.

    Non-systematic: the message sits in the info positions, frozen bits
    zero, and is transformed once.  Systematic (the codeword restricted to
    info_set equals msg): that codeword's frozen positions are zeroed and
    the result transformed again, which gives a valid codeword of the same
    (N, K, info_set) code.
    """
    msg = _check_msg(spec, msg)
    d = np.zeros((spec.N,) + msg.T.shape[1:], dtype=np.uint8)
    d[spec.info_indices()] = msg.T
    _butterfly(d)
    if systematic:
        d[~spec.info_mask()] = 0
        _butterfly(d)
    return d


def encode_nspe(spec: PolarSpec, msg) -> np.ndarray:
    """encode_position_major's non-systematic codewords as a C-order (..., N) array."""
    return encode_position_major(spec, msg).T.copy()


def encode_systematic(spec: PolarSpec, msg) -> np.ndarray:
    """encode_position_major's systematic codewords as a C-order (..., N) array."""
    return encode_position_major(spec, msg, systematic=True).T.copy()


def _compile(spec: PolarSpec, exact: bool, batch: int) -> tuple:
    """A fresh workspace for ``batch`` frames and the plan that decodes on it.

    Returns ``(llr, bits, plan)``.  With the root LLRs in ``llr[N:]``,
    running each call of ``plan`` in turn leaves every position's partial
    sum in ``bits``; rate-0 positions keep their zeros.  The calls are numpy
    ufuncs with their operands bound to fixed views of the workspace, plus
    one closure per guarded node, whose split is compiled the first time its
    guard fails.
    """
    N, cum = spec.N, (0, *itertools.accumulate(spec.info_mask().tolist()))
    # A node of size m reads rows m .. 2m, writes its children's LLRs to rows
    # m/2 .. m, and takes rows 0 .. m, free until then, as scratch.
    llr = np.empty((2 * N, batch))
    bits = np.zeros((N, batch), dtype=bool)
    weak, least, odd = np.empty((N, batch), bool), np.empty(batch), np.empty(batch, bool)

    def lazy_split(lo, m):
        plan = []

        def run():
            if not plan:
                plan.extend(node(lo, m, split=True))
            for op in plan:
                op()
        return run

    def node(lo, m, split=False):
        """The calls that decide node (lo, m): none for rate 0, its split if ``split``."""
        info, h = cum[lo + m] - cum[lo], m >> 1
        l, x, free = llr[m : 2 * m], bits[lo : lo + m], llr[:m]
        if not info:  # rate 0: its partial sums are the zeros bits holds
            return []
        if info == m == 1:
            return [partial(np.less, l, 0.0, x)]
        if info == m and not exact and not split:
            fallback = lazy_split(lo, m)

            def rate1():
                if np.minimum.reduce(np.abs(l, free), axis=None, initial=np.inf) > 0:
                    np.less(l, 0.0, x)  # no tie or NaN
                else:
                    fallback()
            return [rate1]
        if info == 1 and cum[lo + m - 1] == cum[lo]:  # repetition
            sums = [partial(np.add, l[h:], l[:h], free[:h])]
            while h > 1:  # the g steps of SC, whose left siblings are all rate 0
                h >>= 1
                sums.append(partial(np.add, free[h : 2 * h], free[:h], free[:h]))
            return sums + [partial(np.less, free[:1], 0.0, x)]
        if info == m - 1 and cum[lo + 1] == cum[lo] and not exact and not split:  # parity check
            fallback, w = lazy_split(lo, m), weak[:m]

            def spc():
                np.minimum.reduce(np.abs(l, free), axis=0, out=least)  # NaN in a NaN frame
                np.equal(free, least, w)
                if np.minimum.reduce(least, initial=np.inf) > 0 and np.count_nonzero(w) == batch:
                    np.less(l, 0.0, x)  # Wagner: flip the least reliable bit of an odd frame
                    np.logical_xor.reduce(x, axis=0, out=odd)
                    np.logical_xor(x, np.logical_and(w, odd, w), x)
                else:
                    fallback()
            return [spc]
        a, b, out, left = l[:h], l[h:], free[h:], cum[lo + h] > cum[lo]
        plan = []
        if left:
            if exact:
                plan += [partial(np.divide, l, 2.0, free), partial(np.tanh, free, free),
                         partial(np.multiply, free[:h], out, out),
                         partial(np.arctanh, out, out), partial(np.multiply, 2.0, out, out)]
            else:
                # a * b carries sign(a) sign(b), also when it underflows to +-0;
                # it is NaN only where min(|a|, |b|) is 0 or NaN.
                plan += [partial(np.abs, l, free), partial(np.minimum, free[:h], out, out=out),
                         partial(np.multiply, a, b, free[:h]),
                         partial(np.copysign, out, free[:h], out)]
            plan += node(lo, h)
        if cum[lo + m] > cum[lo + h]:
            plan.append(partial(np.add, b, a, out))
            if left:
                plan.append(partial(np.subtract, b, a, out, where=x[:h]))
            plan += node(lo + h, h) + [partial(np.logical_xor, x[:h], x[h:], x[:h])]
        return plan

    return llr, bits, node(0, N)


@lru_cache(maxsize=8)
def _pool(spec: PolarSpec, exact: bool, batch: int) -> list:
    """The idle compiled workspaces of one (spec, exact, batch)."""
    return []


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
    pool = _pool(spec, bool(exact), arr.shape[0])
    try:
        workspace = pool.pop()
    except IndexError:
        workspace = _compile(spec, bool(exact), arr.shape[0])
    llrs, bits, plan = workspace
    # Row i holds position i of every frame.  The plan never writes a rate-0
    # position, and the re-encode returns every frozen position to 0.
    llrs[spec.N :] = arr.T
    with np.errstate(all="ignore"):  # inf - inf gives NaN, as in plain SC
        for op in plan:
            op()
    _butterfly(bits.view(np.uint8))  # partial sums to decided bits
    msg = bits[spec.info_indices()].T.astype(np.uint8, order="C")  # a copy, never a view
    pool.append(workspace)
    return msg[0] if single else msg
