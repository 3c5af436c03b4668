"""Test-only scalar Reed-Solomon (15, k) reference.

The scalar encoder and BM/Chien/Forney decoder that beaconphy.reed_solomon
used before it screened blocks in batches, kept verbatim with its own GF(16)
tables.  It imports nothing from beaconphy, so the production codec is
checked against code it shares nothing with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_SYMBOLS = 15
SYMBOL_BITS = 4
_PRIM_POLY = 0b10011


def _build_tables():
    exp = [0] * 30
    log = [0] * 16
    x = 1
    for i in range(15):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x10:
            x ^= _PRIM_POLY
    exp[15:] = exp[:15]
    return exp, log


_EXP, _LOG = _build_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(16)")
    return _EXP[15 - _LOG[a]]


def gf_div(a: int, b: int) -> int:
    return gf_mul(a, gf_inv(b))


def _eval_desc(poly, x: int) -> int:
    # poly[0] is the highest-degree coefficient
    acc = 0
    for c in poly:
        acc = gf_mul(acc, x) ^ c
    return acc


def _eval_asc(poly, x: int) -> int:
    # poly[i] is the coefficient of x^i
    acc = 0
    for c in reversed(poly):
        acc = gf_mul(acc, x) ^ c
    return acc


@dataclass(frozen=True)
class RsSpec:
    """One of the three supported code rates: k in {11, 7, 3}, t = (15-k)/2."""

    k: int
    n: int = N_SYMBOLS

    def __post_init__(self):
        if self.n != N_SYMBOLS:
            raise ValueError("only the length-15 field code is supported")
        if self.k not in (3, 7, 11):
            raise ValueError("k must be one of 3, 7, 11")

    @property
    def t(self) -> int:
        return (self.n - self.k) // 2


@lru_cache(maxsize=8)
def generator_poly(n_minus_k: int) -> tuple[int, ...]:
    """Monic generator with roots alpha^1 .. alpha^(n-k), highest degree first."""
    g = [1]
    for i in range(1, n_minus_k + 1):
        root = _EXP[i]
        nxt = [0] * (len(g) + 1)
        for j, c in enumerate(g):
            nxt[j] ^= c
            nxt[j + 1] ^= gf_mul(c, root)
        g = nxt
    return tuple(g)


def _check_symbols(spec: RsSpec, word, expected_len: int) -> list[int]:
    arr = list(int(s) for s in word)
    if len(arr) != expected_len:
        raise ValueError(f"expected {expected_len} symbols, got {len(arr)}")
    if any(not 0 <= s < 16 for s in arr):
        raise ValueError("symbols must lie in [0, 16)")
    return arr


def rs_encode(spec: RsSpec, msg) -> np.ndarray:
    """Systematic encode of k message symbols into an n-symbol codeword."""
    msg = _check_symbols(spec, msg, spec.k)
    gen = generator_poly(spec.n - spec.k)
    rem = msg + [0] * (spec.n - spec.k)
    for i in range(spec.k):
        coef = rem[i]
        if coef:
            for j in range(1, len(gen)):
                rem[i + j] ^= gf_mul(gen[j], coef)
    return np.array(msg + rem[spec.k:], dtype=np.uint8)


def _berlekamp_massey(synd: list[int], nsyn: int) -> list[int]:
    # returns the connection polynomial, ascending coefficients, C[0] = 1
    C = [1] + [0] * nsyn
    B = [1] + [0] * nsyn
    L, m, b = 0, 1, 1
    for n in range(nsyn):
        d = synd[n]
        for i in range(1, L + 1):
            d ^= gf_mul(C[i], synd[n - i])
        if d == 0:
            m += 1
        elif 2 * L <= n:
            T = C[:]
            coef = gf_div(d, b)
            for i in range(nsyn + 1 - m):
                C[i + m] ^= gf_mul(coef, B[i])
            L, B, b, m = n + 1 - L, T, d, 1
        else:
            coef = gf_div(d, b)
            for i in range(nsyn + 1 - m):
                C[i + m] ^= gf_mul(coef, B[i])
            m += 1
    return C[: L + 1]


def rs_decode(spec: RsSpec, recv):
    """Decode a received word; returns k message symbols or None on failure.

    Any pattern of up to t symbol errors is corrected.  An inconsistent error
    locator (wrong root count, zero derivative, or residual syndromes after
    correction) reports failure instead of a wrong answer.
    """
    recv = _check_symbols(spec, recv, spec.n)
    nsyn = spec.n - spec.k
    synd = [_eval_desc(recv, _EXP[m]) for m in range(1, nsyn + 1)]
    if not any(synd):
        return np.array(recv[: spec.k], dtype=np.uint8)

    sigma = _berlekamp_massey(synd, nsyn)
    n_errors = len(sigma) - 1
    if n_errors == 0 or n_errors > spec.t:
        return None

    # Chien search: X = alpha^(14 - p) locates an error at position p
    positions, x_invs = [], []
    for d in range(spec.n):
        x_inv = _EXP[(15 - d) % 15]
        if _eval_asc(sigma, x_inv) == 0:
            positions.append(spec.n - 1 - d)
            x_invs.append(x_inv)
    if len(positions) != n_errors:
        return None

    # Forney: omega = S(x) sigma(x) mod x^nsyn with S(x) = S_1 + S_2 x + ...
    omega = [0] * nsyn
    for i, s in enumerate(synd):
        for j, c in enumerate(sigma):
            if i + j < nsyn:
                omega[i + j] ^= gf_mul(s, c)
    deriv = [sigma[i] if i % 2 == 1 else 0 for i in range(1, len(sigma))]

    corrected = recv[:]
    for pos, x_inv in zip(positions, x_invs):
        den = _eval_asc(deriv, x_inv)
        if den == 0:
            return None
        corrected[pos] ^= gf_div(_eval_asc(omega, x_inv), den)

    if any(_eval_desc(corrected, _EXP[m]) for m in range(1, nsyn + 1)):
        return None
    return np.array(corrected[: spec.k], dtype=np.uint8)


def has_nonzero_syndrome(spec: RsSpec, recv) -> bool:
    """True when any of S_1 .. S_(n-k) of the received word is nonzero."""
    recv = _check_symbols(spec, recv, spec.n)
    return any(_eval_desc(recv, _EXP[m]) for m in range(1, spec.n - spec.k + 1))
