"""Test-only recursive successive-cancellation reference.

The plain SC decoder that beaconphy.polar_codec used before it skipped
rate-0 and rate-1 subtrees, kept with its own min-sum and tanh node
updates.  It imports nothing from beaconphy, so the production decoder is
checked against code it shares nothing with.  LLRs are positive when bit 0
is more likely; a leaf LLR of 0 or NaN decides 0.
"""

from __future__ import annotations

import numpy as np


def check_node(a, b):
    """Min-sum check-node update f(a, b) = sign(a) sign(b) min(|a|, |b|)."""
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def check_node_exact(a, b):
    """Exact check-node update 2 atanh(tanh(a/2) tanh(b/2))."""
    with np.errstate(divide="ignore"):
        return 2.0 * np.arctanh(np.tanh(np.asarray(a) / 2.0) * np.tanh(np.asarray(b) / 2.0))


def variable_node(a, b, u):
    """Variable-node update g(a, b, u) = b + (1 - 2u) a for decided bit u."""
    return b + (1.0 - 2.0 * np.asarray(u, dtype=np.float64)) * a


def sc_decode(info_mask, llr, *, exact: bool = False) -> np.ndarray:
    """Decode (N,) or (batch, N) LLRs; return the bits at the info positions.

    ``info_mask`` is a length-N boolean array, True at information bits;
    frozen bits are decided 0.  ``exact`` selects the tanh check node.
    """
    info = np.asarray(info_mask, dtype=bool)
    arr = np.asarray(llr, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    batch = arr.shape[0]
    fnode = check_node_exact if exact else check_node
    u_hat = np.empty((batch, info.size), dtype=np.uint8)

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

    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and 1e308 + 1e308
        descend(arr, 0)
    msg = u_hat[:, info]
    return msg[0] if single else msg
