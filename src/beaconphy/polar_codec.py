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
(one LLR buffer per tree level, whose free rows serve as scratch, rows
that hold what the guards test, and the (N, batch) partial sums).
Guarded nodes run unchecked; if one check of every guard after the
re-encode fails, the plan runs again with each guarded node checking its
own and running its split, compiled once, where it fails.  The g step
flips a's sign bit before one add, as a masked (where=) subtract is slower.
A call copies its LLRs in, runs the plan and gathers the message into a
new array.  Workspaces are pooled per key, under a bounded lru_cache: a call
pops one, or compiles one, and puts it back, so no two threads share one.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial

import numpy as np

from .bitstream import checked_uint8
from .polar_construction import PolarSpec

_ZERO = np.zeros(())  # plan operands are 0-d arrays, which numpy takes faster than scalars
_SIGN_SHIFT = np.full(1, 63, np.uint64)  # to a float64's sign bit; numpy 1 casts a 0-d 63 to uint8


def _stages(x: np.ndarray) -> list:
    """Each butterfly stage's (upper, lower) views; x must be C-contiguous, or reshape copies."""
    size, tail = x.shape[0], x.shape[1:]
    views = [x.reshape((size // (2 << i), 2, 1 << i) + tail) for i in range(size.bit_length() - 1)]
    return [(v[:, 0], v[:, 1]) for v in views]


def _butterfly(x: np.ndarray) -> None:
    """In-place transform along axis 0 of a C-contiguous (N, ...) uint8 array."""
    for upper, lower in _stages(x):
        upper ^= lower


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
    running each call of ``plan`` in turn leaves every position's decided
    bit in ``bits``: its partial sums, re-encoded by the last calls.  The
    calls are numpy ufuncs with their operands bound to fixed views of the
    workspace; the last checks every guard the others assumed, and if one
    failed, runs them again with each guarded node checking its own.
    """
    N, cum = spec.N, (0, *itertools.accumulate(spec.info_mask().tolist()))

    def guarded(lo, m):
        info = cum[lo + m] - cum[lo]  # rate 1 above one position, or a parity check
        return not exact and m > 1 and (info == m or info == m - 1 > 1 and cum[lo + 1] == cum[lo])

    # A node of size m reads rows m .. 2m, writes its children's LLRs to rows
    # m/2 .. m, and takes rows 0 .. m, free until then, as scratch.  For the last
    # check, `held` keeps each rate-1 node's LLRs and each parity-check node's
    # least |LLR| per frame, and weak[lo : lo + m] the latter's least-|LLR| mask.
    llr = np.empty((2 * N, batch))
    held = llr[N:] if guarded(0, N) and cum[N] == N else np.empty((N, batch))
    bits, weak = np.zeros((2, N, batch), bool)
    flips, least, odd = np.empty((N, batch), bool), np.empty(batch), np.empty(batch, bool)
    checks, used, parity = {}, 0, 0  # checks: a guarded node's last call -> its guard's check

    def take(k):
        nonlocal used
        used += k
        return held[used - k : used]

    def into(lo, m, fast, rows):  # where node (lo, m)'s parent writes its LLRs
        return take(m) if fast and guarded(lo, m) and cum[lo + m] - cum[lo] == m else rows

    def node(lo, m, l, fast, split=False):
        """The calls that decide node (lo, m) from its LLRs ``l``, its split if ``split``;
        never rate 0, as a rate-0 node's partial sums are the zeros ``bits`` holds.
        Outside the plan's own walk (``fast``), a guarded node's calls end in its check."""
        nonlocal parity
        info, h = cum[lo + m] - cum[lo], m >> 1
        x, free = bits[lo : lo + m], llr[:m]
        if info == m == 1:
            return [partial(np.less, l, _ZERO, x)]
        if guarded(lo, m) and not split:
            w, flip, halves = weak[lo : lo + m], flips[:m], []
            run = [partial(np.less, l, _ZERO, x)]
            if info < m:  # Wagner: flip the least reliable bit of an odd frame
                low = take(1)[0] if fast else least
                run = [partial(np.abs, l, free), partial(np.minimum.reduce, free, axis=0, out=low),
                       partial(np.equal, free, low, w), *run,  # none in a NaN frame
                       partial(np.logical_xor.reduce, x, axis=0, out=odd),
                       partial(np.logical_and, w, odd, flip), partial(np.logical_xor, x, flip, x)]

            def check():  # after the node's calls: its split over their bits if the guard failed
                if not (np.minimum.reduce(np.abs(l, free), axis=None, initial=np.inf) > 0
                        and (info == m or np.count_nonzero(w) == batch)):  # a tie or NaN
                    if not halves:  # compiled the first time it is needed
                        halves.extend(node(lo, m, l, False, split=True))
                    for op in halves:
                        op()
            if not fast:
                return run + [check]
            parity += info < m
            checks[run[-1]] = check
            return run
        if info == 1 and cum[lo + m - 1] == cum[lo]:  # repetition
            sums = [partial(np.add, l[h:], l[:h], free[:h])]
            while h > 1:  # the g steps of SC, whose left siblings are all rate 0
                h >>= 1
                sums.append(partial(np.add, free[h : 2 * h], free[:h], free[:h]))
            return sums + [partial(np.less, free[:1], _ZERO, x)]
        # one view of each operand block for all the calls that use it
        a, b, head, tail, xa = l[:h], l[h:], free[:h], free[h:], x[:h]
        plan, left = [], cum[lo + h] > cum[lo]
        if left:
            out = into(lo, h, fast, tail)
            if exact:
                plan += [partial(np.divide, l, 2.0, free), partial(np.tanh, free, free),
                         partial(np.multiply, head, tail, out),
                         partial(np.arctanh, out, out), partial(np.multiply, 2.0, out, out)]
            else:
                # a * b carries sign(a) sign(b), also when it underflows to +-0; it is NaN
                # only where min(|a|, |b|) is 0 or NaN.  np.minimum takes out= by keyword: at
                # batch 1 (numpy 2.4) a positional out costs 1.4 us, not 0.44; np.add's costs less.
                plan += [partial(np.abs, l, free), partial(np.minimum, head, tail, out=out),
                         partial(np.multiply, a, b, head), partial(np.copysign, out, head, out)]
            plan += node(lo, h, out, fast)
        if cum[lo + m] > cum[lo + h]:
            if left:  # b - a is b + (-a): flip a's sign bit where x[:h] is 1, into free rows
                flip = head.view(np.uint64)
                plan += [partial(np.left_shift, xa.view(np.uint8), _SIGN_SHIFT, flip),
                         partial(np.bitwise_xor, flip, a.view(np.uint64), flip)]
                a = head
            out = into(lo + h, h, fast, tail)
            plan += [partial(np.add, b, a, out)] + node(lo + h, h, out, fast)
            plan.append(partial(np.logical_xor, xa, x[h:], xa))
        return plan

    encode = [partial(np.bitwise_xor, u, v, u) for u, v in _stages(bits.view(np.uint8))]
    plan = node(0, N, into(0, N, True, llr[N:]), True) + encode

    def settle():
        """Keep the walk's decisions if every held |LLR| is nonzero and not NaN and each
        parity-check node found one least |LLR| per frame; else zero them and walk again."""
        np.abs(held[:used], llr[:used])  # llr[:N] is free once the walk is done
        if (np.minimum.reduce(llr[:used], axis=None, initial=np.inf) > 0
                and np.count_nonzero(weak) == parity * batch):
            return
        bits.fill(False)
        for op in plan[:-1]:
            op()
            if op in checks:
                checks[op]()
    if used:
        plan.append(settle)
    return llr, bits, plan


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
    msg = bits[spec.info_indices()].T.astype(np.uint8, order="C")  # a copy, never a view
    pool.append(workspace)
    return msg[0] if single else msg
