"""Reed-Solomon (15, k) over GF(16): hard-decision bounded-distance baseline.

Field: GF(2^4) built on the primitive polynomial x^4 + x + 1, generator
element alpha = x (value 2).  Codewords are 15 symbols; index 0 is the first
transmitted symbol and carries the highest power of x, so a received word
r evaluates as r[0] x^14 + ... + r[14].  Encoding is systematic with the
message in the first k positions.  The generator polynomial has roots
alpha^1 .. alpha^(n-k).

Both entry points take arrays of any leading shape.  rs_encode is one
lookup in a 16x16 multiplication table against a k x (n-k) parity matrix
followed by an XOR reduction.  rs_decode gathers every word's nibble-packed
syndromes at once, 0 for a codeword.  _PAIRS, indexed by S_1 .. S_4, names
the one of the 225 one-error and 23,625 two-error patterns that the roots
alpha^1 .. alpha^4 of RS(15, 11), d = 5, tell apart; a dirty word whose
n-k syndromes all match its pattern's is within distance 2 of a codeword,
which as d >= 5 for every k is the one bounded-distance decoding returns.
Only the other dirty words go one by one through Berlekamp-Massey, Chien
search and Forney.  A detected uncorrectable word is flagged in the
returned failure array; that is a value, not a fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitstream import checked_uint8

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
    mul = [[0] * 16 for _ in range(16)]
    for a in range(1, 16):
        for b in range(1, 16):
            mul[a][b] = exp[log[a] + log[b]]
    return exp, log, mul


_EXP, _LOG, _MUL = _build_tables()
_INV = [0] + [_EXP[15 - _LOG[a]] for a in range(1, 16)]
_MUL_NP = np.array(_MUL, dtype=np.uint8)


def _packed(exponents: np.ndarray) -> list[list[int]]:
    """Row r, symbol s: s * alpha^exponents[r, i] in nibble i, for every i."""
    values = _MUL_NP[np.arange(16)[:, None], np.array(_EXP)[exponents % 15][:, None, :]]
    return (values.astype(np.int64) << 4 * np.arange(exponents.shape[1])).sum(axis=-1).tolist()


# Syndromes packed as nibbles: S_j occupies bits 4(j-1) .. 4j-1 for
# j = 1 .. 12.  _SYN[p][s] holds S_1 .. S_12 of symbol s alone at position p,
# that is s * alpha^(j (14 - p)); a word's packed syndromes are the XOR of
# its 15 entries, since GF(16) addition is XOR.
_MAX_SYN = 12
_SYN = _packed(np.outer(N_SYMBOLS - 1 - np.arange(N_SYMBOLS), np.arange(1, _MAX_SYN + 1)))
_SYN_NP = np.array(_SYN, dtype=np.int64)
_POSITIONS = np.arange(N_SYMBOLS)
# _EVAL[i][c] packs c * alpha^(-i d) for d = 0 .. 14 as nibbles, so XOR-ing
# _EVAL[i][poly[i]] over an ascending polynomial evaluates it at every Chien
# point alpha^-d at once; nibble d is the value at alpha^-d.
_EVAL = _packed(-np.outer(np.arange(_MAX_SYN), np.arange(N_SYMBOLS)))


def _error_tables():
    """Row 1 + 15p + e - 1 of one_error is symbol e at position p alone, and
    one_syn holds its packed syndromes; row 0 is no error.  pairs[S_1 .. S_4]
    is a1 | a2 << 8 for the pattern of rows a1 < a2 with those syndromes, or 0."""
    pos = (np.arange(226) - 1) // 15  # row 0 comes before every position
    one_error = np.zeros((226, N_SYMBOLS), dtype=np.uint8)
    one_error[np.arange(1, 226), pos[1:]] = np.arange(225) % 15 + 1
    one_syn = np.concatenate([[0], _SYN_NP[:, 1:].ravel()])
    first, second = np.nonzero(pos[:, None] < pos)
    pairs = np.zeros(1 << 16, dtype="<u2")  # little-endian: a uint8 view reads a1, a2
    pairs[(one_syn[first] ^ one_syn[second]) & 0xFFFF] = first | second << 8
    return one_error, one_syn, pairs


_ONE_ERROR, _ONE_SYN, _PAIRS = _error_tables()


@dataclass(frozen=True)
class RsSpec:
    """One of the three supported code rates: k in {11, 7, 3}, t = (15-k)/2."""

    k: int

    def __post_init__(self):
        if self.k not in (3, 7, 11):
            raise ValueError("k must be one of 3, 7, 11")

    @property
    def n(self) -> int:
        return N_SYMBOLS

    @property
    def t(self) -> int:
        return (self.n - self.k) // 2

    @property
    def syndrome_mask(self) -> int:
        """Selects S_1 .. S_(n-k) from a packed syndrome integer."""
        return (1 << 4 * (self.n - self.k)) - 1


@lru_cache(maxsize=8)
def generator_poly(n_minus_k: int) -> tuple[int, ...]:
    """Monic generator with roots alpha^1 .. alpha^(n-k), highest degree first."""
    g = [1]
    for i in range(1, n_minus_k + 1):
        root = _EXP[i]
        nxt = [0] * (len(g) + 1)
        for j, c in enumerate(g):
            nxt[j] ^= c
            nxt[j + 1] ^= _MUL[c][root]
        g = nxt
    return tuple(g)


@lru_cache(maxsize=8)
def _parity_matrix(k: int) -> np.ndarray:
    """Row i is the parity of the unit message e_i; encoding is linear over GF(16)."""
    gen = generator_poly(N_SYMBOLS - k)
    rows = []
    for i in range(k):
        rem = [0] * N_SYMBOLS
        rem[i] = 1
        for a in range(k):
            coef = rem[a]
            if coef:
                for j in range(1, len(gen)):
                    rem[a + j] ^= _MUL[gen[j]][coef]
        rows.append(rem[k:])
    return np.array(rows, dtype=np.uint8)


def _check_symbols(symbols, expected_len: int) -> np.ndarray:
    arr = np.asarray(symbols)
    if arr.ndim == 0 or arr.shape[-1] != expected_len:
        got = arr.shape[-1] if arr.ndim else 0
        raise ValueError(f"expected {expected_len} symbols, got {got}")
    return checked_uint8(arr, 15, "symbols")


def rs_encode(spec: RsSpec, msg) -> np.ndarray:
    """Systematic encode of (..., k) message symbols into (..., n) codewords."""
    msg = _check_symbols(msg, spec.k)
    prods = _MUL_NP[msg[..., :, None], _parity_matrix(spec.k)]
    return np.concatenate([msg, np.bitwise_xor.reduce(prods, axis=-2)], axis=-1)


def rs_decode(spec: RsSpec, words):
    """Decode (..., n) received words; returns (msgs, failed).

    msgs is a (..., k) uint8 array of message symbols and failed a (...)
    bool array.  Any pattern of up to t symbol errors is corrected.  An
    inconsistent error locator (wrong root count, zero derivative, or
    residual syndromes after correction) flags the word as failed instead
    of giving a wrong answer, and a failed word's symbols are zero.
    """
    words = _check_symbols(words, spec.n)
    flat = words.reshape(-1, N_SYMBOLS)
    k, mask = spec.k, spec.syndrome_mask
    packed = np.bitwise_xor.reduce(_SYN_NP[_POSITIONS, flat], axis=-1) & mask
    msgs = flat[:, :k].copy()
    failed = np.zeros(len(flat), dtype=bool)
    dirty = np.flatnonzero(packed)
    if dirty.size:
        syn = packed[dirty]
        pair = _PAIRS[syn & 0xFFFF].view(np.uint8).reshape(-1, 2)
        first, second = pair.T
        refuted = ((_ONE_SYN[first] ^ _ONE_SYN[second]) & mask) != syn
        pair[refuted] = 0
        msgs[dirty] ^= (_ONE_ERROR[first] | _ONE_ERROR[second])[:, :k]
        miss = dirty[refuted]
        decoded = [_correct(spec, word, s)
                   for word, s in zip(flat[miss].tolist(), syn[refuted].tolist())]
        if decoded:
            failed[miss] = [dec is None for dec in decoded]
            blank = [0] * k
            msgs[miss] = [blank if dec is None else dec for dec in decoded]
    return msgs.reshape(words.shape[:-1] + (k,)), failed.reshape(words.shape[:-1])


def _berlekamp_massey(synd: list[int]) -> list[int]:
    # returns the connection polynomial, ascending coefficients, C[0] = 1;
    # B is kept at its degree, which never exceeds its length L
    nsyn = len(synd)
    C = [1] + [0] * nsyn
    B = [1]
    L, m, b = 0, 1, 1
    for r in range(nsyn):
        d = synd[r]
        for i in range(1, L + 1):
            d ^= _MUL[C[i]][synd[r - i]]
        if d == 0:
            m += 1
            continue
        T = C[: L + 1]
        row = _MUL[_MUL[d][_INV[b]]]
        for i, c in enumerate(B):
            C[i + m] ^= row[c]
        if 2 * L <= r:
            L, B, b, m = r + 1 - L, T, d, 1
        else:
            m += 1
    return C[: L + 1]


def _eval_all(poly) -> int:
    # poly[i] is the coefficient of x^i; nibble d of the result is poly(alpha^-d)
    acc = 0
    for i, c in enumerate(poly):
        acc ^= _EVAL[i][c]
    return acc


def _correct(spec: RsSpec, recv: list[int], packed: int) -> list[int] | None:
    """Berlekamp-Massey, Chien search and Forney on one word of 15 symbols
    whose packed S_1 .. S_(n-k) are `packed`; its k corrected message
    symbols, or None on failure."""
    nsyn = N_SYMBOLS - spec.k
    synd = [(packed >> 4 * j) & 15 for j in range(nsyn)]
    sigma = _berlekamp_massey(synd)
    n_errors = len(sigma) - 1
    if n_errors > nsyn // 2:
        return None

    # Chien search: a root alpha^-d locates an error at position 14 - d
    values = _eval_all(sigma)
    roots = [d for d in range(N_SYMBOLS) if not (values >> 4 * d) & 15]
    if len(roots) != n_errors:
        return None

    # Forney: omega = S(x) sigma(x) with S(x) = S_1 + S_2 x + ..., taken
    # mod x^n_errors: a correctable pattern has deg omega < n_errors, and
    # any other word fails the residual check whatever omega says
    omega = [0] * n_errors
    for i, s in enumerate(synd[:n_errors]):
        row = _MUL[s]
        for j, c in enumerate(sigma[: n_errors - i]):
            omega[i + j] ^= row[c]
    deriv = [sigma[i] if i % 2 == 1 else 0 for i in range(1, len(sigma))]
    omega_values, deriv_values = _eval_all(omega), _eval_all(deriv)

    corrected = recv[:]
    for d in roots:
        den = (deriv_values >> 4 * d) & 15
        if den == 0:
            return None
        pos = N_SYMBOLS - 1 - d
        err = _MUL[(omega_values >> 4 * d) & 15][_INV[den]]
        corrected[pos] ^= err
        packed ^= _SYN[pos][err]

    # S(r + e) = S(r) + S(e), so the residual needs only the error symbols
    if packed & spec.syndrome_mask:
        return None
    return corrected[: spec.k]


def bits_to_symbols(bits) -> np.ndarray:
    """Pack bits into 4-bit symbols, first bit = most significant.

    The bits are expected to be 0 or 1; this is not checked.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] % SYMBOL_BITS:
        raise ValueError("bit count must be a multiple of 4")
    shaped = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // SYMBOL_BITS, SYMBOL_BITS))
    weights = np.array([8, 4, 2, 1], dtype=np.uint8)
    return shaped @ weights


def symbols_to_bits(symbols) -> np.ndarray:
    """Unpack 4-bit symbols into bits, most significant bit first.

    The symbols are expected to lie in [0, 16); this is not checked.
    """
    symbols = np.asarray(symbols)
    shifts = np.array([3, 2, 1, 0])
    bits = (symbols[..., None] >> shifts) & 1
    return bits.reshape(bits.shape[:-2] + (math.prod(bits.shape[-2:]),)).astype(np.uint8)
