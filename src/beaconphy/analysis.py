"""Monte-Carlo experiments: ones-density distributions, BER curves, frame timing.

Frame f of every experiment draws its randomness from
np.random.default_rng((master_seed, f)) alone.  Results are therefore
identical for any batch size and any worker count, and a run can be
reproduced exactly from its recorded configuration.  The per-frame
generators are seeded for a whole batch at once (see _frame_generators),
with the same bytes as building them one by one.
"""

from __future__ import annotations

import concurrent.futures
import math
import operator
import os
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap
from multiprocessing import get_context

import numpy as np

from . import bitstream
from .channel import ChannelParams, llr_demap, modulate_ook
from .polar_codec import encode_nspe, encode_position_major, encode_systematic, sc_decode
from .polar_construction import PolarSpec
from .reed_solomon import (
    N_SYMBOLS,
    SYMBOL_BITS,
    RsSpec,
    bits_to_symbols,
    rs_decode,
    rs_encode,
    symbols_to_bits,
)
from .scrambler import ScramblerSpec, keystream

DEFAULT_MASTER_SEED = 0xC0DEC
DEFAULT_FRAME_BITS = 158  # message bits per frame: the paper's K
DEFAULT_MIN_ERRORS = 100  # a BER point stops at this many bit errors,
DEFAULT_MAX_FRAMES = 200_000  # or at this many frames
MFTP_LIMIT_S = 5e-3
_DIST_BATCH = 2048  # frames run_dist_experiment encodes per call

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
_CHUNK = 64  # frames whose uniforms are thresholded in one call
ENCODERS = {"nspe": encode_nspe, "systematic": encode_systematic}


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0 .. n-1, as an (n, 1) uint32 column."""
    consts = [init]
    for _ in range(n - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(col).generate_state(8, np.uint32) for each column of a (words, n) uint32 array.

    numpy's SeedSequence (NEP 19) hashes its entropy into a pool of four uint32 words with
    multiply-xorshift hashes whose constants do not depend on the data, so every column goes
    through each step at once.  Zero rows stand in exactly for missing pool words, so words
    is at least 4; rows 4 on, beyond the pool, are mixed into it last.  Hash k xors with c[k]
    and multiplies by c[k + 1].
    """
    c = _hash_consts(0x43B0D7E5, 0x931E8875, 17 + 4 * (len(entropy) - 4))
    with np.errstate(over="ignore"):
        pool = np.concatenate([(entropy[:4] ^ c[0:4]) * c[1:5], entropy[4:]])
        pool[:4] ^= pool[:4] >> 16
        k = 4  # the next hash's constant
        for src in range(len(pool)):
            # Word src is hashed once per pool word other than itself, then mixed into it.
            dst = [d for d in range(4) if d != src]
            h = (pool[src] ^ c[k : k + len(dst)]) * c[k + 1 : k + len(dst) + 1]
            h ^= h >> 16
            r = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * h
            pool[dst] = r ^ (r >> 16)
            k += len(dst)
        c = _hash_consts(0x8B51F9DD, 0x58F38DED, 9)
        out = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ c[0:8]) * c[1:9]
    return out ^ (out >> 16)


def _frame_generators(master_seed: int, lo: int, hi: int):
    """np.random.default_rng((master_seed, f)) for f = lo .. hi-1, in order.

    The frames are hashed in one pass per word count of f: one 32-bit word below f = 2**32,
    two from there up to 2**64.  A group with no frames is skipped.  Each frame's PCG64
    state is set on one shared generator.  PCG64 seeds itself from the four output words
    (initstate, initseq) with two LCG steps: inc = 2 initseq + 1, then state = (inc +
    initstate) * MULT + inc (O'Neill 2014).  A negative seed is rejected with numpy's error
    text.  The simulators build every frame generator here, none through channel.RngStream.
    The shared generator is yielded again for the next frame, so use each before asking for
    the next.
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError("expected non-negative integer")
    seed_words = -(-max(master_seed, 1).bit_length() // 32)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    pcg = {}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for f_words, a, b in ((1, lo, min(hi, 1 << 32)), (2, max(lo, 1 << 32), hi)):
        if a >= b:
            continue
        f = np.arange(a, b, dtype=np.uint64)
        entropy = np.zeros((max(4, seed_words + f_words), b - a), dtype=np.uint32)
        for i in range(seed_words):
            entropy[i] = master_seed >> 32 * i & _MASK32
        entropy[seed_words] = f & _MASK32
        if f_words == 2:
            entropy[seed_words + 1] = f >> 32
        state = _seed_sequence_words(entropy).astype(np.uint64)
        state = state[0::2] | state[1::2] << 32
        for s_hi, s_lo, q_hi, q_lo in state.T.tolist():
            inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
            pcg["state"] = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128
            pcg["inc"] = inc
            bitgen.state = full
            yield gen


def _draw_frames(master_seed: int, lo: int, msgs: np.ndarray, p_one: float,
                 noise: np.ndarray, sigma: float) -> None:
    """Fill row i of msgs (uint8 bits, u < p_one) and of noise (normals) from frame lo + i.

    Frame f draws from np.random.default_rng((master_seed, f)) alone:
    random(msgs.shape[1]), then normal(0, sigma, noise.shape[1]).  The
    uniforms are thresholded _CHUNK frames at a time and the noise is
    scaled once.
    """
    (n, n_bits), noise_bits = msgs.shape, noise.shape[1]
    u = np.empty((min(n, _CHUNK), n_bits), dtype=np.float64)
    for i, gen in enumerate(_frame_generators(master_seed, lo, lo + n)):
        c = i % _CHUNK
        gen.random(out=u[c])
        if noise_bits:
            gen.standard_normal(out=noise[i])
        if c == _CHUNK - 1 or i == n - 1:
            np.less(u[: c + 1], p_one, out=msgs[i - c : i + 1].view(bool))
    noise *= sigma
    noise += 0.0  # normal() returns 0.0 + sigma * z, which turns z = -0.0 into +0.0


@dataclass
class DistStats:
    """Ones-density statistics of encoded frames: weights[f] is frame f's codeword weight.

    min, max and mean are derived from the integer weights, so they are exact."""

    N: int
    weights: np.ndarray
    max_run_length: int

    @property
    def frames(self) -> int:
        return self.weights.size

    @property
    def samples(self) -> np.ndarray:
        return self.weights / self.N

    @property
    def min(self) -> float:
        return int(self.weights.min()) / self.N

    @property
    def max(self) -> float:
        return int(self.weights.max()) / self.N

    @property
    def mean(self) -> float:
        return int(self.weights.sum()) / (self.frames * self.N)


def polar_encoder(name: str):
    """The polar encoder a name from ENCODERS stands for."""
    if name not in ENCODERS:
        raise ValueError(f"unknown encoder {name!r}; choose from {', '.join(ENCODERS)}")
    return ENCODERS[name]


def draw_messages(frames: int, n_bits: int, p1: float, master_seed: int) -> np.ndarray:
    """Messages of frames 0 .. frames-1, one row of n_bits Bernoulli(p1) bits each.

    Row f depends on (master_seed, f, n_bits, p1) alone, so every encoder and
    scrambler setting of one experiment can encode the same array.  p1 = 0.9
    is not the worst case: unscrambled (256,158) frames spread wider at 0.1
    (exact ones-fraction sd 0.0763, against 0.0674 at 0.9)."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("p1 must lie in [0, 1]")
    if frames <= 0:
        raise ValueError("frame count must be positive")
    msgs = np.empty((frames, n_bits), dtype=np.uint8)
    _draw_frames(master_seed, 0, msgs, p1, np.empty((frames, 0)), 0.0)
    return msgs


def run_dist_experiment(
    spec: PolarSpec,
    msgs: np.ndarray,
    *,
    encoder: str = "nspe",
    scrambler: ScramblerSpec | None = ScramblerSpec(),
) -> DistStats:
    """Encode each row of msgs (see draw_messages); collect ones-density statistics.

    The messages are XORed with the scrambler's keystream first; a scrambler
    of None is an all-zero key.  msgs is left as it is, so one draw serves
    every encoder and scrambler setting: simulate-dist draws each size's
    messages once and shares them across its encoders and scramble settings."""
    polar_encoder(encoder)  # rejects a name outside ENCODERS
    shape = np.shape(msgs)
    if len(shape) != 2 or shape[0] < 1 or shape[1] != spec.K:
        raise ValueError(f"msgs must be a (frames >= 1, K={spec.K}) array, got shape {shape}")
    ks = np.zeros(spec.K, np.uint8) if scrambler is None else keystream(scrambler, spec.K)
    frames = shape[0]
    weights = np.empty(frames, dtype=np.int64)
    max_run = 0
    for lo in range(0, frames, _DIST_BATCH):
        hi = min(lo + _DIST_BATCH, frames)
        # (N, hi - lo) codewords, one column per frame, never transposed
        x = encode_position_major(spec, msgs[lo:hi] ^ ks, systematic=encoder == "systematic")
        x.sum(axis=0, dtype=np.int64, out=weights[lo:hi])
        max_run = max(max_run, bitstream.max_run_length(x.T))
    return DistStats(spec.N, weights, max_run)


@dataclass
class BerPoint:
    ebn0_db: float
    bits_sent: int
    bit_errors: int
    frames_sent: int
    frame_errors: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_sent if self.bits_sent else 0.0


def _frames(arr, width: int, what: str) -> np.ndarray:
    """arr as an array, once it is known to hold whole (frames, width) rows.

    The one shape check of every link's encode and decode.
    """
    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{what} must have shape (frames, {width}), got {arr.shape}")
    return arr


class PolarLink:
    """Scrambler plus non-systematic polar encoder, decoded by SC.

    Messages are XORed with key, the scrambler's keystream, before encoding
    and after decoding; a scrambler of None is an all-zero key."""

    def __init__(self, spec: PolarSpec, scrambler: ScramblerSpec | None = ScramblerSpec(),
                 exact: bool = False):
        self.spec = spec
        self.key = np.zeros(spec.K, np.uint8) if scrambler is None else keystream(scrambler, spec.K)
        self.exact = exact
        self.frame_bits = spec.K
        self.tx_bits = spec.N
        self.rate = self.frame_bits / self.tx_bits

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        return encode_nspe(self.spec, _frames(msgs, self.frame_bits, "messages") ^ self.key)

    def decode(self, y: np.ndarray, params: ChannelParams):
        y = _frames(y, self.tx_bits, "received samples")
        hat = sc_decode(self.spec, llr_demap(y, params), exact=self.exact)
        return hat ^ self.key, np.zeros(y.shape[0], dtype=bool)


class RsLink:
    """Blocked RS(15, k) over hard-decided OOK.

    A frame is padded with zero bits to whole symbols and with zero symbols
    to whole blocks; padding is stripped before bit accounting.  A frame in
    which any block reports decode failure is flagged, and the BER harness
    then counts every message bit of that frame as erroneous.
    """

    def __init__(self, k: int, frame_bits: int = DEFAULT_FRAME_BITS):
        if frame_bits <= 0:
            raise ValueError("frame_bits must be positive")
        self.spec = RsSpec(k)
        self.frame_bits = frame_bits
        self.blocks = -(-frame_bits // (SYMBOL_BITS * k))
        self.padded_symbols = self.blocks * k
        self.tx_bits = self.blocks * N_SYMBOLS * SYMBOL_BITS
        self.rate = self.frame_bits / self.tx_bits

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        msgs = bitstream.checked_uint8(_frames(msgs, self.frame_bits, "messages"), 1, "bits")
        nframes = msgs.shape[0]
        padded = np.zeros((nframes, self.padded_symbols * SYMBOL_BITS), dtype=np.uint8)
        padded[:, : self.frame_bits] = msgs
        syms = bits_to_symbols(padded).reshape(nframes, self.blocks, self.spec.k)
        return symbols_to_bits(rs_encode(self.spec, syms).reshape(nframes, self.blocks * N_SYMBOLS))

    def decode(self, y: np.ndarray, params: ChannelParams):
        """Hard-decide, then decode every block in one rs_decode call.  A
        failed block decodes to zero."""
        y = _frames(y, self.tx_bits, "received samples")
        nframes = y.shape[0]
        hard = np.greater(y, 0.5).view(np.uint8)
        words = bits_to_symbols(hard).reshape(nframes * self.blocks, N_SYMBOLS)
        msgs, failed = rs_decode(self.spec, words)
        bits = symbols_to_bits(msgs.reshape(nframes, self.padded_symbols))[:, : self.frame_bits]
        return bits, failed.reshape(nframes, self.blocks).any(axis=1)


class UncodedLink:
    """Raw OOK reference: no coding, hard threshold at 1/2."""

    def __init__(self, frame_bits: int = DEFAULT_FRAME_BITS):
        if frame_bits <= 0:
            raise ValueError("frame_bits must be positive")
        self.frame_bits = frame_bits
        self.tx_bits = frame_bits
        self.rate = self.frame_bits / self.tx_bits

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        return bitstream.checked_uint8(_frames(msgs, self.frame_bits, "messages"), 1, "bits")

    def decode(self, y: np.ndarray, params: ChannelParams):
        y = _frames(y, self.tx_bits, "received samples")
        return np.greater(y, 0.5).view(np.uint8), np.zeros(y.shape[0], dtype=bool)


@lru_cache(maxsize=1)  # the last batch shape only, so a finished link's buffers are freed
def _buffers(frames: int, frame_bits: int, tx_bits: int) -> list:
    """The idle (messages, noise) buffers of one batch shape."""
    return []


def _run_batch(link, params: ChannelParams, lo: int, hi: int, master_seed: int):
    """Bit and frame counts of frames lo .. hi-1, run on a pooled buffer pair."""
    nframes = hi - lo
    pool = _buffers(nframes, link.frame_bits, link.tx_bits)
    try:
        msgs, y = pool.pop()
    except IndexError:
        msgs = np.empty((nframes, link.frame_bits), dtype=np.uint8)
        y = np.empty((nframes, link.tx_bits))
    _draw_frames(master_seed, lo, msgs, 0.5, y, params.sigma)
    y += modulate_ook(link.encode(msgs))  # noise + x, the same IEEE sums as x + noise
    hat, failed = link.decode(y, params)
    per_frame = np.where(failed, link.frame_bits, (hat != msgs).sum(axis=1))
    pool.append((msgs, y))
    return (
        nframes * link.frame_bits,
        int(per_frame.sum()),
        nframes,
        int((per_frame > 0).sum()),
    )


def _imap_bounded(pool, tasks, depth: int):
    """_run_batch over tasks in order on the executor, with at most depth tasks submitted ahead."""
    pending = deque()
    for task in tasks:
        pending.append(pool.submit(_run_batch, *task))
        if len(pending) >= depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def run_ber_experiment(
    link,
    ebn0_db_points,
    *,
    min_errors: int = DEFAULT_MIN_ERRORS,
    max_frames: int = DEFAULT_MAX_FRAMES,
    master_seed: int = DEFAULT_MASTER_SEED,
    batch: int = 1000,
    workers: int | None = None,
) -> list[BerPoint]:
    """Sweep Eb/N0 points for one link, stopping each point at min_errors.

    Frames are consumed in whole batches in index order, so the simulated
    set of frames (and hence every count) does not depend on the worker
    count.  With workers > 1, min(workers, CPU count) processes run the
    batches, with at most that many in flight, so few batches are computed
    past a point's error stop, and a worker that dies raises
    BrokenProcessPool.  The sweep ends early once a point collects zero
    errors, since every later point would only be quieter.
    """
    if min_errors <= 0 or max_frames <= 0 or batch <= 0 or (workers is not None and workers <= 0):
        raise ValueError("min_errors, max_frames, batch and workers must be positive")
    points = []
    # no more processes than CPUs, which also keeps a huge count within the executor's C int
    procs = min(workers, os.cpu_count() or 1) if workers else 1
    # spawn, as fork is unsafe beside the executor's thread; only this path imports the executor
    with (concurrent.futures.ProcessPoolExecutor(procs, mp_context=get_context("spawn"))
          if workers and workers > 1 else nullcontext()) as pool:
        for db in ebn0_db_points:
            params = ChannelParams.from_ebn0_db(db, link.rate)
            tasks = ((link, params, lo, min(lo + batch, max_frames), master_seed)
                     for lo in range(0, max_frames, batch))
            results = (starmap(_run_batch, tasks) if pool is None
                       else _imap_bounded(pool, tasks, procs))
            point = BerPoint(db, 0, 0, 0, 0)
            points.append(point)
            for nbits, nerr, nframes, nferr in results:
                point.bits_sent += nbits
                point.bit_errors += nerr
                point.frames_sent += nframes
                point.frame_errors += nferr
                if point.bit_errors >= min_errors:
                    break
            if point.bit_errors == 0:
                break
    return points


def ebn0_at_ber(points, target: float):
    """Eb/N0 in dB where a measured curve crosses target, or None.

    Log-linear interpolation between the first bracketing pair; exact hits
    return the measured point.  Zero-BER points cannot bracket from below.
    """
    if target <= 0:
        raise ValueError("target BER must be positive")
    pts = sorted(points, key=lambda p: p.ebn0_db)
    for p in pts:
        if p.ber == target:
            return p.ebn0_db
    for a, b in zip(pts, pts[1:]):
        if a.ber > target > b.ber and b.ber > 0:
            la, lb, lt = math.log10(a.ber), math.log10(b.ber), math.log10(target)
            return a.ebn0_db + (b.ebn0_db - a.ebn0_db) * (lt - la) / (lb - la)
    return None


def coding_gain(curve_a, curve_b, target: float):
    """dB saved by curve_a relative to curve_b at the target BER.

    Positive when curve_a reaches the target at lower Eb/N0.  Returns None
    when either curve does not bracket the target.
    """
    xa = ebn0_at_ber(curve_a, target)
    xb = ebn0_at_ber(curve_b, target)
    if xa is None or xb is None:
        return None
    return xb - xa


@dataclass(frozen=True)
class MftpReport:
    frame_bits: int
    clock_hz: float
    frame_time_s: float
    limit_s: float
    compliant: bool


def mftp_check(frame_bits: int, clock_hz: float) -> MftpReport:
    """Time to clock out one frame, against the maximum flickering time period."""
    if frame_bits <= 0:
        raise ValueError("frame_bits must be positive")
    if not 0 < clock_hz < math.inf:  # NaN fails too
        raise ValueError("clock_hz must be finite and positive")
    frame_time = frame_bits / clock_hz
    return MftpReport(frame_bits, clock_hz, frame_time, MFTP_LIMIT_S, frame_time < MFTP_LIMIT_S)
