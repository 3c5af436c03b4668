"""Polar transform, encoders and successive-cancellation decoding.

The transform is x = d F^(kron n) over GF(2) with F = [[1, 0], [1, 1]] and d
a row vector, computed by the in-place butterfly network.  One length-N
transform costs exactly (N/2) log2 N single-bit XORs and is its own inverse.

LLR convention throughout: positive means bit 0 is more likely.
"""

from __future__ import annotations

import numpy as np

from .polar_construction import PolarSpec


def _butterfly(x: np.ndarray) -> None:
    """In-place transform along the last axis."""
    size = x.shape[-1]
    lead = x.shape[:-1]
    half = 1
    while half < size:
        v = x.reshape(lead + (size // (2 * half), 2, half))
        v[..., 0, :] ^= v[..., 1, :]
        half *= 2


def polar_transform(bits) -> np.ndarray:
    """Apply the butterfly transform along the last axis.

    Accepts shape (N,) or (batch, N) with N a power of two.  Involution:
    applying it twice returns the input.
    """
    x = np.array(bits, dtype=np.uint8)
    size = x.shape[-1]
    if size == 0 or size & (size - 1):
        raise ValueError("transform length must be a power of two")
    if x.size and x.max() > 1:
        raise ValueError("transform input may only contain 0 and 1")
    _butterfly(x)
    return x


def _check_msg(spec: PolarSpec, msg) -> np.ndarray:
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.shape[-1] != spec.K:
        raise ValueError(f"message length {msg.shape[-1]} does not match K={spec.K}")
    if msg.size and msg.max() > 1:
        raise ValueError("message may only contain 0 and 1")
    return msg


def encode_nspe(spec: PolarSpec, msg) -> np.ndarray:
    """Non-systematic encode: message into info positions, frozen bits zero.

    Accepts (K,) or (batch, K); returns the matching (..., N) codeword array.
    """
    msg = _check_msg(spec, msg)
    d = np.zeros(msg.shape[:-1] + (spec.N,), dtype=np.uint8)
    d[..., spec.info_indices()] = msg
    _butterfly(d)
    return d


def encode_systematic(spec: PolarSpec, msg) -> np.ndarray:
    """Systematic encode: the codeword restricted to info_set equals msg.

    Two-pass method: transform the message placed at the info positions,
    zero the frozen positions, transform again.  The result is a valid
    codeword of the same (N, K, info_set) code.
    """
    msg = _check_msg(spec, msg)
    v = np.zeros(msg.shape[:-1] + (spec.N,), dtype=np.uint8)
    idx = spec.info_indices()
    v[..., idx] = msg
    _butterfly(v)
    frozen = ~spec.info_mask()
    v[..., frozen] = 0
    _butterfly(v)
    return v


def check_node(a, b):
    """Min-sum check-node update f(a, b) = sign(a) sign(b) min(|a|, |b|)."""
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def check_node_exact(a, b):
    """Exact check-node update 2 atanh(tanh(a/2) tanh(b/2)), for cross-checks."""
    with np.errstate(divide="ignore"):
        return 2.0 * np.arctanh(np.tanh(np.asarray(a) / 2.0) * np.tanh(np.asarray(b) / 2.0))


def variable_node(a, b, u):
    """Variable-node update g(a, b, u) = b + (1 - 2u) a for decided bit u."""
    return b + (1.0 - 2.0 * np.asarray(u, dtype=np.float64)) * a


def sc_decode(spec: PolarSpec, llr, *, exact: bool = False) -> np.ndarray:
    """Successive-cancellation decode of channel LLRs to message bits.

    Frozen positions are decided as 0 regardless of their LLR.  Accepts one
    LLR vector of length N or a (batch, N) matrix; returns the K decided
    message bits per frame.  ``exact`` switches the check-node update from
    min-sum to the tanh rule.

    Infinite LLRs are accepted, so a noiseless codeword can be decoded by
    mapping bit b to (1 - 2b) * inf.
    """
    arr = np.asarray(llr, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != spec.N:
        raise ValueError(f"LLR input must have length N={spec.N}")
    batch = arr.shape[0]
    info = spec.info_mask()
    fnode = check_node_exact if exact else check_node
    u_hat = np.empty((batch, spec.N), dtype=np.uint8)

    def descend(l, lo):
        m = l.shape[1]
        if m == 1:
            if info[lo]:
                bit = (l[:, 0] < 0).astype(np.uint8)
            else:
                bit = np.zeros(batch, dtype=np.uint8)
            u_hat[:, lo] = bit
            return bit[:, None]
        h = m // 2
        a, b = l[:, :h], l[:, h:]
        left = descend(fnode(a, b), lo)
        right = descend(variable_node(a, b, left), lo + h)
        return np.concatenate((left ^ right, right), axis=1)

    descend(arr, 0)
    msg = u_hat[:, spec.info_indices()]
    return msg[0] if single else msg
