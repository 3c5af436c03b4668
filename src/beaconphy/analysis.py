"""Monte-Carlo experiments: ones-density distributions, BER curves, frame timing.

Every experiment draws its randomness through per-frame RngStream objects
keyed by (master_seed, frame_index).  Results are therefore identical for
any batch size and any worker count, and a run can be reproduced exactly
from its recorded configuration.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from . import bitstream
from .channel import ChannelParams, RngStream, llr_demap, modulate_ook
from .polar_codec import encode_nspe, encode_systematic, sc_decode
from .polar_construction import PolarSpec
from .reed_solomon import (
    N_SYMBOLS,
    SYMBOL_BITS,
    RsSpec,
    bits_to_symbols,
    rs_decode,
    rs_encode,
    rs_screen,
    symbols_to_bits,
)
from .scrambler import ScramblerSpec, keystream

DEFAULT_MASTER_SEED = 0xC0DEC
DEFAULT_FRAME_BITS = 158
MFTP_LIMIT_S = 5e-3


@dataclass(frozen=True)
class InputBiasModel:
    """Bernoulli source for message bits.

    The experiments default to ones_ratio = 0.9, which is not the worst
    case: unscrambled (256,158) frames spread wider at 0.1 (exact
    ones-fraction sd 0.0763, against 0.0674 at 0.9).
    """

    ones_ratio: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.ones_ratio <= 1.0:
            raise ValueError("ones_ratio must lie in [0, 1]")


def _draw_frames(master_seed: int, lo: int, hi: int, n_bits: int, p_one: float,
                 noise_bits: int = 0, sigma: float = 0.0):
    """Frames lo .. hi-1, one row each: n_bits bits (u < p_one), then noise_bits normals."""
    msgs = np.empty((hi - lo, n_bits), dtype=np.uint8)
    noise = np.empty((hi - lo, noise_bits), dtype=np.float64)
    for i, f in enumerate(range(lo, hi)):
        gen = RngStream(master_seed, f).generator()
        msgs[i] = gen.random(n_bits) < p_one
        if noise_bits:
            noise[i] = gen.normal(0.0, sigma, noise_bits)
    return msgs, noise


@dataclass
class DistStats:
    """Ones-density statistics of encoded frames.

    weight_hist[w] counts frames whose codeword weight is exactly w, one bin
    per achievable weight (bin width 1/N on the fraction axis).  min, max and
    mean are derived from the integer histogram, so merge order can never
    change them.
    """

    encoder: str
    scrambled: bool
    N: int
    K: int
    p1: float
    frames: int
    samples: np.ndarray
    weight_hist: np.ndarray
    max_run_length: int

    @property
    def min(self) -> float:
        return int(np.flatnonzero(self.weight_hist)[0]) / self.N

    @property
    def max(self) -> float:
        return int(np.flatnonzero(self.weight_hist)[-1]) / self.N

    @property
    def mean(self) -> float:
        total = int(np.arange(self.N + 1, dtype=np.int64) @ self.weight_hist)
        return total / (self.frames * self.N)


def run_dist_experiment(
    spec: PolarSpec,
    *,
    encoder: str = "nspe",
    scrambled: bool = True,
    bias: InputBiasModel = InputBiasModel(0.9),
    frames: int = 10000,
    master_seed: int = DEFAULT_MASTER_SEED,
    scrambler: ScramblerSpec = ScramblerSpec(),
    batch: int = 2048,
) -> DistStats:
    """Encode `frames` random frames and collect ones-density statistics."""
    if frames <= 0:
        raise ValueError("frame count must be positive")
    if encoder == "nspe":
        enc = encode_nspe
    elif encoder == "systematic":
        enc = encode_systematic
    else:
        raise ValueError("encoder must be 'nspe' or 'systematic'")

    ks = keystream(scrambler, spec.K) if scrambled else None
    hist = np.zeros(spec.N + 1, dtype=np.int64)
    samples = np.empty(frames, dtype=np.float64)
    max_run = 0
    for lo in range(0, frames, batch):
        hi = min(lo + batch, frames)
        msgs, _ = _draw_frames(master_seed, lo, hi, spec.K, bias.ones_ratio)
        if ks is not None:
            msgs ^= ks
        x = enc(spec, msgs)
        w = x.sum(axis=1, dtype=np.int64)
        hist += np.bincount(w, minlength=spec.N + 1)
        samples[lo:hi] = w / spec.N
        max_run = max(max_run, bitstream.max_run_length(x))
    return DistStats(
        encoder=encoder,
        scrambled=scrambled,
        N=spec.N,
        K=spec.K,
        p1=bias.ones_ratio,
        frames=frames,
        samples=samples,
        weight_hist=hist,
        max_run_length=max_run,
    )


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


class PolarLink:
    """Scrambler plus non-systematic polar encoder, decoded by SC."""

    def __init__(self, spec: PolarSpec, scrambler: ScramblerSpec | None = ScramblerSpec(),
                 exact: bool = False):
        self.spec = spec
        self.key = None if scrambler is None else keystream(scrambler, spec.K)
        self.exact = exact
        self.frame_bits = spec.K
        self.tx_bits = spec.N

    @property
    def rate(self) -> float:
        return self.frame_bits / self.tx_bits

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        if self.key is not None:
            msgs = msgs ^ self.key
        return encode_nspe(self.spec, msgs)

    def decode(self, y: np.ndarray, params: ChannelParams):
        hat = sc_decode(self.spec, llr_demap(y, params), exact=self.exact)
        if self.key is not None:
            hat = hat ^ self.key
        return hat, np.zeros(y.shape[0], dtype=bool)


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
        msg_symbols = -(-frame_bits // SYMBOL_BITS)
        self.blocks = -(-msg_symbols // k)
        self.padded_symbols = self.blocks * k
        self.tx_bits = self.blocks * N_SYMBOLS * SYMBOL_BITS

    @property
    def rate(self) -> float:
        return self.frame_bits / self.tx_bits

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        nframes = msgs.shape[0]
        padded = np.zeros((nframes, self.padded_symbols * SYMBOL_BITS), dtype=np.uint8)
        padded[:, : self.frame_bits] = msgs
        syms = bits_to_symbols(padded).reshape(nframes, self.blocks, self.spec.k)
        return symbols_to_bits(rs_encode(self.spec, syms).reshape(nframes, -1))

    def decode(self, y: np.ndarray, params: ChannelParams):
        """Screen every block at once; only blocks with a nonzero syndrome
        go through rs_decode.  A failed block decodes to zero symbols."""
        nframes = y.shape[0]
        hard = (y > params.amplitude / 2.0).astype(np.uint8)
        words = bits_to_symbols(hard).reshape(nframes, self.blocks, N_SYMBOLS)
        msg_syms = words[..., : self.spec.k].copy()
        failed = np.zeros(nframes, dtype=bool)
        for fi, blk in zip(*np.nonzero(rs_screen(self.spec, words))):
            dec = rs_decode(self.spec, words[fi, blk])
            if dec is None:
                failed[fi] = True
                dec = 0
            msg_syms[fi, blk] = dec
        bits = symbols_to_bits(msg_syms.reshape(nframes, -1))[:, : self.frame_bits]
        return bits, failed


class UncodedLink:
    """Raw OOK reference: no coding, hard threshold at A/2."""

    def __init__(self, frame_bits: int = DEFAULT_FRAME_BITS):
        if frame_bits <= 0:
            raise ValueError("frame_bits must be positive")
        self.frame_bits = frame_bits
        self.tx_bits = frame_bits

    @property
    def rate(self) -> float:
        return 1.0

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        return msgs

    def decode(self, y: np.ndarray, params: ChannelParams):
        hard = (y > params.amplitude / 2.0).astype(np.uint8)
        return hard, np.zeros(y.shape[0], dtype=bool)


def _run_batch(link, params: ChannelParams, lo: int, hi: int, master_seed: int):
    nframes = hi - lo
    msgs, noise = _draw_frames(master_seed, lo, hi, link.frame_bits, 0.5,
                               link.tx_bits, params.sigma)
    y = modulate_ook(link.encode(msgs), params) + noise
    hat, failed = link.decode(y, params)
    per_frame = np.where(failed, link.frame_bits, (hat != msgs).sum(axis=1))
    return (
        nframes * link.frame_bits,
        int(per_frame.sum()),
        nframes,
        int((per_frame > 0).sum()),
    )


def _run_batch_args(args):
    return _run_batch(*args)


def _imap_bounded(pool, tasks, depth: int):
    """pool.imap over tasks in order, with at most depth tasks submitted ahead."""
    pending = deque()
    for task in tasks:
        pending.append(pool.apply_async(_run_batch_args, (task,)))
        if len(pending) >= depth:
            yield pending.popleft().get()
    while pending:
        yield pending.popleft().get()


def _run_point(link, ebn0_db, params, min_errors, max_frames, master_seed, batch, pool, workers):
    spans = [(lo, min(lo + batch, max_frames)) for lo in range(0, max_frames, batch)]
    tasks = ((link, params, lo, hi, master_seed) for lo, hi in spans)
    results = map(_run_batch_args, tasks) if pool is None else _imap_bounded(pool, tasks, workers)
    bits = errors = frames = frame_errors = 0
    for nbits, nerr, nframes, nferr in results:
        bits += nbits
        errors += nerr
        frames += nframes
        frame_errors += nferr
        if errors >= min_errors:
            break
    return BerPoint(ebn0_db, bits, errors, frames, frame_errors)


def run_ber_experiment(
    link,
    ebn0_db_points,
    *,
    amplitude: float = 1.0,
    min_errors: int = 100,
    max_frames: int = 50000,
    master_seed: int = DEFAULT_MASTER_SEED,
    batch: int = 1000,
    workers: int | None = None,
) -> list[BerPoint]:
    """Sweep Eb/N0 points for one link, stopping each point at min_errors.

    Frames are consumed in whole batches in index order, so the simulated
    set of frames (and hence every count) does not depend on the worker
    count.  With workers > 1 at most `workers` batches are in flight, so
    few batches are computed past a point's error stop.  The sweep ends
    early once a point collects zero errors, since every later point would
    only be quieter.
    """
    if min_errors <= 0 or max_frames <= 0 or batch <= 0:
        raise ValueError("min_errors, max_frames and batch must be positive")
    points = []

    def sweep(pool):
        for db in ebn0_db_points:
            params = ChannelParams.from_ebn0_db(db, link.rate, amplitude)
            point = _run_point(link, db, params, min_errors, max_frames, master_seed, batch,
                               pool, workers)
            points.append(point)
            if point.bit_errors == 0:
                break

    if workers and workers > 1:
        with Pool(workers) as pool:
            sweep(pool)
    else:
        sweep(None)
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


def mftp_check(frame_bits: int, clock_hz: float, limit_s: float = MFTP_LIMIT_S) -> MftpReport:
    """Time to clock out one frame, against the maximum flickering time period."""
    if frame_bits <= 0:
        raise ValueError("frame_bits must be positive")
    if clock_hz <= 0:
        raise ValueError("clock_hz must be positive")
    frame_time = frame_bits / clock_hz
    return MftpReport(frame_bits, clock_hz, frame_time, limit_s, frame_time < limit_s)
