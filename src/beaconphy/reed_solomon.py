"""Reed-Solomon (15, k) over GF(16): hard-decision bounded-distance baseline.

Field: GF(2^4) built on the primitive polynomial x^4 + x + 1, generator
element alpha = x (value 2).  Codewords are 15 symbols; index 0 is the first
transmitted symbol and carries the highest power of x, so a received word
r evaluates as r[0] x^14 + ... + r[14].  Encoding is systematic with the
message in the first k positions.  The generator polynomial has roots
alpha^1 .. alpha^(n-k).

Both entry points take arrays of any leading shape.  Encoding is linear, so
rs_encode gathers each message symbol's codeword image from a per-k table of
nibble-packed codewords and XORs the k images (Sarwate, CACM 1988, computes
CRCs by such lookups).  rs_decode gathers every word's nibble-packed
syndromes at once, 0 for a codeword.  _PAIRS, indexed by S_1 .. S_4, names
the one of the 225 one-error and 23,625 two-error patterns that the roots
alpha^1 .. alpha^4 of RS(15, 11), d = 5, tell apart; a dirty word whose
n-k syndromes all match its pattern's is within distance 2 of a codeword,
which as d >= 5 for every k is the one bounded-distance decoding returns.
For RS(15, 11) the table is the whole decoder: every other dirty word lies
beyond t = 2 and fails.  For k = 7 and 3 the other dirty words, the table's
misses, go through Berlekamp-Massey, Chien search and Forney: one by one in
_correct when a call has few of them, else all at once in _correct_batch,
which gives the same words and failures.  A detected uncorrectable word is
flagged in the returned failure array; that is a value, not a fault.
"""

from __future__ import annotations

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
_EXP_NP, _MUL_NP, _INV_NP = (np.array(t, dtype=np.uint8) for t in (_EXP, _MUL, _INV))
_MUL_FLAT = _MUL_NP.ravel()  # _MUL_FLAT[a << 4 | b] = a * b, one gather for uint8 a, b < 16


def _packed(factors: np.ndarray) -> np.ndarray:
    """Row r, symbol s: s * factors[r, i] in nibble i, for every i."""
    values = _MUL_NP[np.arange(16)[:, None], factors[:, None, :]]
    return (values.astype(np.int64) << 4 * np.arange(factors.shape[1])).sum(axis=-1)


# Syndromes packed as nibbles: S_j occupies bits 4(j-1) .. 4j-1 for
# j = 1 .. 12.  _SYN[p, s] holds S_1 .. S_12 of symbol s alone at position p,
# that is s * alpha^(j (14 - p)); a word's packed syndromes are the XOR of
# its 15 entries, since GF(16) addition is XOR.
_MAX_SYN = 12
_POSITIONS = np.arange(N_SYMBOLS)
_SYN = _packed(_EXP_NP[np.outer(N_SYMBOLS - 1 - _POSITIONS, np.arange(1, _MAX_SYN + 1)) % 15])
# _EVAL[i][c] packs c * alpha^(-i d) for d = 0 .. 14 as nibbles, so XOR-ing
# _EVAL[i][poly[i]] over an ascending polynomial evaluates it at every Chien
# point alpha^-d at once; nibble d is the value at alpha^-d.
_EVAL_NP = _packed(_EXP_NP[-np.outer(np.arange(_MAX_SYN), np.arange(N_SYMBOLS)) % 15])
_EVAL = _EVAL_NP.tolist()


def _error_tables():
    """Row 1 + 15p + e - 1 of one_error is symbol e at position p alone, and
    one_syn holds its packed syndromes; row 0 is no error.  pairs[S_1 .. S_4]
    is a1 | a2 << 8 for the pattern of rows a1 < a2 with those syndromes, or 0."""
    pos = (np.arange(226) - 1) // 15  # row 0 comes before every position
    one_error = np.zeros((226, N_SYMBOLS), dtype=np.uint8)
    one_error[np.arange(1, 226), pos[1:]] = np.arange(225) % 15 + 1
    one_syn = np.concatenate([[0], _SYN[:, 1:].ravel()])
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


@lru_cache(maxsize=4)
def _image(k: int) -> np.ndarray:
    """Entry 16 j + s: the codeword of s alone at message position j, symbol p
    in nibble p.  Its parity is s times x^(14-j) mod the generator polynomial."""
    gen = generator_poly(N_SYMBOLS - k)[1:]
    rows, rem = np.eye(k, N_SYMBOLS, dtype=np.uint8), list(gen)  # rem = x^(n-k) mod g
    for row in rows[::-1]:
        row[k:] = rem
        rem = [r ^ _MUL[rem[0]][c] for r, c in zip(rem[1:] + [0], gen)]  # times x, mod g
    return _packed(rows)


def _check_symbols(symbols, expected_len: int) -> np.ndarray:
    arr = np.asarray(symbols)
    if arr.ndim == 0 or arr.shape[-1] != expected_len:
        got = arr.shape[-1] if arr.ndim else 0
        raise ValueError(f"expected {expected_len} symbols, got {got}")
    return checked_uint8(arr, 15, "symbols")


def rs_encode(spec: RsSpec, msg) -> np.ndarray:
    """Systematic encode of (..., k) message symbols into (..., n) codewords."""
    msg = _check_symbols(msg, spec.k)
    words = np.bitwise_xor.reduce(_image(spec.k).take(msg + 16 * np.arange(spec.k)), axis=-1)
    return (words[..., None] >> 4 * _POSITIONS & 15).astype(np.uint8)


def rs_decode(spec: RsSpec, words):
    """Decode (..., n) received words; returns (msgs, failed).

    msgs holds (..., k) uint8 message symbols and failed (...) bools.  Up to
    t symbol errors are corrected; a word farther than t symbols from every
    codeword is flagged failed, with zero symbols.  The pair table decodes a
    word within distance 2; a miss fails for RS(15, 11).  Otherwise a call's
    misses go one by one to _correct, or, from _ARRAY_MIN misses up, all at
    once to _correct_batch.
    """
    words = _check_symbols(words, spec.n)
    flat = words.reshape(-1, N_SYMBOLS)
    k, mask = spec.k, spec.syndrome_mask
    packed = np.bitwise_xor.reduce(_SYN[_POSITIONS, flat], axis=-1) & mask
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
        miss, syn = dirty[refuted], syn[refuted]
        if spec.t == 2:  # _PAIRS holds every pattern of weight <= 2, so a miss fails
            msgs[miss], failed[miss] = 0, True
        elif miss.size >= _ARRAY_MIN:
            msgs[miss], failed[miss] = _correct_batch(spec, flat[miss], syn)
        elif miss.size:
            decoded = [_correct(spec, word, s) for word, s in zip(flat[miss].tolist(), syn.tolist())]
            failed[miss] = [dec is None for dec in decoded]
            msgs[miss] = [dec or [0] * k for dec in decoded]  # a decoded list is never empty
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
    """Berlekamp-Massey, Chien search and Forney, for t > 2, on one word of 15 symbols whose
    packed S_1 .. S_(n-k) are `packed`: its k corrected message symbols, or None on failure."""
    synd = [(packed >> 4 * j) & 15 for j in range(N_SYMBOLS - spec.k)]
    sigma = _berlekamp_massey(synd)
    n_errors = len(sigma) - 1
    if n_errors > spec.t:
        return None

    # Chien search: a root alpha^-d locates an error at position 14 - d.  As n = q - 1,
    # a shortest locator of degree L <= t with L distinct roots generates all n-k
    # syndromes through an invertible Vandermonde system (Massey 1969): the corrected
    # word is a codeword and sigma' is nonzero at every root, so no check follows this.
    values = _eval_all(sigma)
    roots = [d for d in range(N_SYMBOLS) if not (values >> 4 * d) & 15]
    if len(roots) != n_errors:
        return None

    # Forney: omega = S(x) sigma(x) mod x^n_errors, with S(x) = S_1 + S_2 x + ...
    omega = [0] * n_errors
    for i, s in enumerate(synd[:n_errors]):
        row = _MUL[s]
        for j, c in enumerate(sigma[: n_errors - i]):
            omega[i + j] ^= row[c]
    deriv = [sigma[i] if i % 2 == 1 else 0 for i in range(1, len(sigma))]
    omega_values, deriv_values = _eval_all(omega), _eval_all(deriv)

    corrected = recv[:]
    for d in roots:
        omega_d, deriv_d = (omega_values >> 4 * d) & 15, (deriv_values >> 4 * d) & 15
        corrected[N_SYMBOLS - 1 - d] ^= _MUL[omega_d][_INV[deriv_d]]
    return corrected[: spec.k]


# A call with at least this many table misses decodes them all in one
# _correct_batch pass; fewer go one by one through _correct.  Timed on miss
# words, the scalar loop costs 15-21 us a word and the array pass 180-260 us a
# call plus 3 us a word (k = 7 and 3): they meet between 16 and 20 misses.
_ARRAY_MIN = 20


def _correct_batch(spec: RsSpec, words: np.ndarray, packed: np.ndarray):
    """_correct on every row of `words` at once: (k message symbols, failed) arrays."""
    nsyn, t, k = N_SYMBOLS - spec.k, spec.t, spec.k
    synd = (packed[:, None] >> 4 * np.arange(nsyn) & 15).astype(np.uint8)
    # Berlekamp-Massey with L, b and shift = x^m B(x) held per word
    sigma, shift = np.zeros((2, len(words), nsyn + 1), dtype=np.uint8)
    sigma[:, 0] = shift[:, 1] = 1
    length = np.zeros(len(words), dtype=np.intp)
    b = sigma[:, 0].copy()
    for r in range(nsyn):
        d = np.bitwise_xor.reduce(_MUL_FLAT[sigma[:, : r + 1] << 4 | synd[:, r::-1]], axis=1)
        grow = (d != 0) & (2 * length <= r)
        kept = np.where(grow[:, None], sigma, shift)
        sigma ^= _MUL_FLAT[(_MUL_FLAT[d << 4 | _INV_NP[b]] << 4)[:, None] | shift]
        length = np.where(grow, r + 1 - length, length)
        b = np.where(grow, d, b)
        shift[:, 1:] = kept[:, :-1]  # shift[:, 0] stays 0

    # Chien and Forney as in _correct, on sigma cut to degree t: a locator longer
    # than t then has fewer than L roots, and fails the root count.  As sigma
    # generates S_1 .. S_(n-k), coefficients L .. n-k-1 of S sigma are zero, so
    # its low t coefficients are omega = S sigma mod x^L.
    sigma = sigma[:, : t + 1]
    values = np.bitwise_xor.reduce(_EVAL_NP[np.arange(t + 1), sigma], axis=1)
    roots = (values[:, None] >> 4 * _POSITIONS & 15) == 0
    ok = roots.sum(axis=1) == length
    lag = np.arange(t)[:, None] - np.arange(t)
    omega = np.bitwise_xor.reduce(
        _MUL_FLAT[synd[:, None, :t] * (lag >= 0) << 4 | sigma[:, np.maximum(lag, 0)]], axis=2)
    deriv = sigma[:, 1:].copy()
    deriv[:, 1::2] = 0
    both = np.bitwise_xor.reduce(_EVAL_NP[np.arange(t), np.stack([omega, deriv])], axis=2)
    # message position p is Chien point d = 14 - p
    omega_d, deriv_d = both[..., None] >> 4 * (N_SYMBOLS - 1 - np.arange(k)) & 15
    errors = _MUL_FLAT[omega_d << 4 | _INV_NP[deriv_d]] * roots[:, : -k - 1 : -1]
    return (words[:, :k] ^ errors) * ok[:, None], ~ok


# Byte strings carried as 2- and 4-byte integers, so that a uint8 view of a gather
# reads _NIBBLES[b] as byte b's high and low nibble and _BITS[s] as symbol s's bits.
_BYTE = np.arange(256, dtype=np.uint8)[:, None]
_NIBBLES = np.hstack([_BYTE >> 4, _BYTE & 15]).view("<u2").ravel()
_BITS = np.unpackbits(_BYTE[:16], axis=1)[:, 4:].copy().view("<u4").ravel()


def bits_to_symbols(bits) -> np.ndarray:
    """Pack bits into 4-bit symbols, first bit = most significant, a whole
    row into bytes at once.  Bits are expected to be 0 or 1; any other value
    packs as 1."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] % SYMBOL_BITS:
        raise ValueError("bit count must be a multiple of 4")
    nibbles = _NIBBLES.take(np.packbits(bits, axis=-1)).view(np.uint8)
    return nibbles[..., : bits.shape[-1] // SYMBOL_BITS]


def symbols_to_bits(symbols) -> np.ndarray:
    """Unpack 4-bit symbols into bits, most significant bit first.  Symbols
    are expected to lie in [0, 16); this is not checked."""
    return _BITS.take(np.asarray(symbols, dtype=np.uint8)).view(np.uint8)
