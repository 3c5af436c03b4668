"""Exact frame error rate of blocked RS(15, k) over hard-decided OOK (test-only oracle).

A frame of message bits is cut into 4-bit symbols and k-symbol blocks, each
sent as a 15-symbol codeword of unipolar OOK with on-level 1 in AWGN of
standard deviation sigma, and decided at 1/2.  Both levels then flip with

    p   = 1/2 erfc(1 / (2 sigma sqrt 2))
    p_s = 1 - (1 - p)^4                     per symbol, bits independent

and a block decodes to its message exactly when at most t = (15 - k) / 2 of
its symbols are wrong:

    P_ok = sum_{i <= t} C(15, i) p_s^i (1 - p_s)^(15 - i)
    FER  = 1 - P_ok^blocks

A block beyond t either fails, which marks its frame, or is miscorrected to
another codeword, whose message differs.  The one exception is a
miscorrection that changes only the zero padding of the last block; its
probability is below P(block beyond t) / t! (McEliece and Swanson, IEEE
Trans. IT 32(5), 1986) times the chance that the changed symbols all lie in
the padding, far below the binomial spread of any test here.  This module
computes everything from the formulas above and shares no code with the
package.
"""

import math

RS_N = 15
SYMBOL_BITS = 4


def blocks_per_frame(frame_bits: int, k: int) -> int:
    symbols = -(-frame_bits // SYMBOL_BITS)
    return -(-symbols // k)


def ook_sigma(ebn0_db: float, rate: float) -> float:
    """Noise sd at Eb/N0 per information bit: Eb = 1 / (2 rate), N0 = 2 sigma^2."""
    return math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))


def frame_error_rate(ebn0_db: float, k: int, frame_bits: int) -> float:
    blocks = blocks_per_frame(frame_bits, k)
    sigma = ook_sigma(ebn0_db, frame_bits / (blocks * RS_N * SYMBOL_BITS))
    p = 0.5 * math.erfc(1.0 / (2.0 * sigma * math.sqrt(2.0)))
    p_s = 1.0 - (1.0 - p) ** SYMBOL_BITS
    t = (RS_N - k) // 2
    p_ok = sum(math.comb(RS_N, i) * p_s**i * (1.0 - p_s) ** (RS_N - i) for i in range(t + 1))
    return 1.0 - p_ok**blocks


def binomial_acceptance(n: int, p: float, alpha: float) -> tuple[int, int]:
    """Counts (lo, hi) with P(X < lo) <= alpha / 2 and P(X > hi) <= alpha / 2, X ~ Bin(n, p).

    Needs 0 < p < 1.
    """
    pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                    + i * math.log(p) + (n - i) * math.log1p(-p)) for i in range(n + 1)]
    lo, tail = 0, 0.0
    while tail + pmf[lo] <= alpha / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = n, 0.0
    while tail + pmf[hi] <= alpha / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi
