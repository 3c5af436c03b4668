"""Independent reference computations for checking beaconphy's outputs.

Nothing here imports beaconphy.  Each function re-derives its result from the
definition of the code or the channel, so a fault in the package cannot hide
in a helper the check shares with it.
"""

from __future__ import annotations

import math

import numpy as np


# --- scrambler and polar code ------------------------------------------------

def lfsr_keystream(poly_mask: int, seed: int, n: int) -> np.ndarray:
    """Fibonacci LFSR output: the seed's bits first (bit 0 leading), then
    s[t+d] = XOR of s[t+q] over every q < d with bit q of poly_mask set."""
    d = poly_mask.bit_length() - 1
    taps = [q for q in range(d) if (poly_mask >> q) & 1]
    s = [(seed >> i) & 1 for i in range(d)]
    while len(s) < n:
        t = len(s) - d
        s.append(sum(s[t + q] for q in taps) & 1)
    return np.array(s[:n], dtype=np.uint8)


def subset_incidence(info_set, n_bits: int) -> np.ndarray:
    """(K, N) bool: codeword bit j contains info bit i exactly when i ⊇ j bitwise."""
    i = np.asarray(info_set, dtype=np.int64)[:, None]
    j = np.arange(n_bits, dtype=np.int64)[None, :]
    return (i & j) == j


def encode_subset(info_set, n_bits: int, u) -> np.ndarray:
    """Non-systematic polar codewords by the subset rule; u is (F, K) bits."""
    a = subset_incidence(info_set, n_bits).astype(np.int64)
    return ((np.asarray(u, dtype=np.int64) @ a) & 1).astype(np.uint8)


def ones_density_moments(info_set, n_bits: int, p_one) -> tuple[float, float]:
    """Exact mean and sd of a frame's ones fraction for independent info bits.

    With m_i = 1 - 2 P(u_i = 1): E[(-1)^x_j] is the product of m_i over the
    info bits in codeword bit j, and E[(-1)^(x_j + x_k)] the product over the
    symmetric difference of the two sets.  W = sum_j (1 - (-1)^x_j) / 2.
    """
    a = subset_incidence(info_set, n_bits)
    m = 1.0 - 2.0 * np.asarray(p_one, dtype=np.float64)
    single = np.where(a, m[:, None], 1.0).prod(axis=0)
    pair_sum = 0.0
    for j in range(n_bits):
        diff = a ^ a[:, j : j + 1]
        pair_sum += float(np.where(diff, m[:, None], 1.0).prod(axis=0).sum())
    mean_w = (n_bits - single.sum()) / 2.0
    var_w = (pair_sum - single.sum() ** 2) / 4.0
    return mean_w / n_bits, math.sqrt(var_w) / n_bits


def sc_decode_reference(llr, frozen) -> list[int]:
    """Scalar recursive min-sum SC decoder over all N positions.

    f(a, b) = sign(a) sign(b) min(|a|, |b|) with sign(0) = 0;
    g(a, b, u) = b + a for u = 0 and b - a for u = 1.  A leaf decides 1 only
    for a strictly negative LLR, so LLR 0 decides 0; frozen leaves decide 0.
    """
    u_hat = []

    def f(a, b):
        if a == 0.0 or b == 0.0:
            return 0.0
        mag = min(abs(a), abs(b))
        return mag if (a < 0.0) == (b < 0.0) else -mag

    def node(l):
        if len(l) == 1:
            bit = 0 if frozen[len(u_hat)] or not l[0] < 0.0 else 1
            u_hat.append(bit)
            return [bit]
        h = len(l) // 2
        a, b = l[:h], l[h:]
        left = node([f(x, y) for x, y in zip(a, b)])
        right = node([y - x if s else y + x for x, y, s in zip(a, b, left)])
        return [s ^ r for s, r in zip(left, right)] + right

    node([float(v) for v in llr])
    return u_hat


# --- OOK / AWGN channel -------------------------------------------------------

def q_func(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ook_sigma(ebn0_db: float, rate: float, amplitude: float = 1.0) -> float:
    """Noise sd for unipolar OOK at Eb/N0 per information bit and code rate."""
    return math.sqrt(amplitude * amplitude / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))


def ook_llr(y, amplitude: float, sigma: float) -> np.ndarray:
    """log P(y | 0) / P(y | 1) for intensities 0 and amplitude."""
    y = np.asarray(y, dtype=np.float64)
    return ((y - amplitude) ** 2 - y * y) / (2.0 * sigma * sigma)


def uncoded_ber(ebn0_db: float) -> float:
    return q_func(1.0 / (2.0 * ook_sigma(ebn0_db, 1.0)))


# --- Reed-Solomon (15, k) over GF(16) -----------------------------------------

RS_N = 15
RS_FRAME_BITS = 158


def rs_layout(k: int, frame_bits: int = RS_FRAME_BITS) -> tuple[int, float]:
    """(blocks per frame, rate) when a frame is padded to whole k-symbol blocks."""
    blocks = math.ceil(math.ceil(frame_bits / 4) / k)
    return blocks, frame_bits / (blocks * RS_N * 4)


def rs_frame_error_rate(ebn0_db: float, k: int, frame_bits: int = RS_FRAME_BITS) -> float:
    """1 - (1 - P_block)^blocks, P_block = P(more than t of 15 symbols in error)."""
    blocks, rate = rs_layout(k, frame_bits)
    p_bit = q_func(1.0 / (2.0 * ook_sigma(ebn0_db, rate)))
    p_sym = 1.0 - (1.0 - p_bit) ** 4
    t = (RS_N - k) // 2
    p_block = sum(math.comb(RS_N, e) * p_sym**e * (1.0 - p_sym) ** (RS_N - e)
                  for e in range(t + 1, RS_N + 1))
    return 1.0 - (1.0 - p_block) ** blocks


def _gf16_mul_table() -> np.ndarray:
    exp = [1]
    for _ in range(14):
        v = exp[-1] << 1
        exp.append(v ^ 0b10011 if v & 0x10 else v)
    log = {v: i for i, v in enumerate(exp)}
    table = np.zeros((16, 16), dtype=np.uint8)
    for a in range(1, 16):
        for b in range(1, 16):
            table[a, b] = exp[(log[a] + log[b]) % 15]
    return table, np.array(exp, dtype=np.uint8)


_GF_MUL, _GF_EXP = _gf16_mul_table()


def rs_syndromes(words, n_minus_k: int) -> np.ndarray:
    """(B, n-k) syndromes S_m = r(alpha^m), m = 1..n-k, of (B, 15) received
    words whose symbol 0 carries the highest power of x."""
    words = np.asarray(words, dtype=np.uint8).reshape(-1, RS_N)
    powers = np.arange(RS_N - 1, -1, -1)
    out = np.empty((words.shape[0], n_minus_k), dtype=np.uint8)
    for m in range(1, n_minus_k + 1):
        out[:, m - 1] = np.bitwise_xor.reduce(_GF_MUL[words, _GF_EXP[(m * powers) % 15]], axis=1)
    return out


def symbols_from_bits(bits) -> np.ndarray:
    """Pack (..., 4m) bits into (..., m) symbols, first bit most significant."""
    bits = np.asarray(bits, dtype=np.uint8)
    quads = bits.reshape(bits.shape[:-1] + (-1, 4))
    return (quads[..., 0] << 3) | (quads[..., 1] << 2) | (quads[..., 2] << 1) | quads[..., 3]


def symbol_errors_per_block(tx_bits, rx_bits) -> np.ndarray:
    """(F, blocks) count of 4-bit symbols that differ, per 15-symbol block."""
    diff = np.asarray(tx_bits) != np.asarray(rx_bits)
    frames = diff.shape[0]
    return diff.reshape(frames, -1, 4).any(axis=2).reshape(frames, -1, RS_N).sum(axis=2)


# --- statistics ----------------------------------------------------------------

def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p)."""
    if p <= 0.0:
        return 1.0, 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0, 1.0
    logs = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(p) + (n - i) * math.log1p(-p) for i in range(n + 1)]
    pmf = [math.exp(v) for v in logs]
    return min(1.0, sum(pmf[: k + 1])), min(1.0, sum(pmf[k:]))
