"""Experiment-harness tests: distributions, BER machinery, frame timing."""

import concurrent.futures
import math
import os
from itertools import groupby

import numpy as np
import pytest

from beaconphy import analysis
from beaconphy.analysis import (
    DEFAULT_MASTER_SEED,
    BerPoint,
    DistStats,
    PolarLink,
    RsLink,
    UncodedLink,
    coding_gain,
    draw_messages,
    ebn0_at_ber,
    mftp_check,
    run_ber_experiment,
    run_dist_experiment,
    _draw_frames,
)
from beaconphy.channel import ChannelParams, modulate_ook
from beaconphy.polar_codec import encode_nspe
from beaconphy.polar_construction import construct
from beaconphy.reed_solomon import N_SYMBOLS, rs_decode, RsSpec
from beaconphy.scrambler import ScramblerSpec, keystream


def _drawn(seed, lo, hi, n_bits, p_one, noise_bits=0, sigma=0.0):
    """_draw_frames of frames lo .. hi-1 into fresh arrays, returned as (msgs, noise)."""
    msgs, noise = np.empty((hi - lo, n_bits), np.uint8), np.empty((hi - lo, noise_bits))
    _draw_frames(seed, lo, msgs, p_one, noise, sigma)
    return msgs, noise


def test_bias_model_validation_and_sampling():
    spec = construct(16, 8)
    for p1 in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="p1"):
            draw_messages(1, spec.K, p1, DEFAULT_MASTER_SEED)
    v, _ = _drawn(5, 0, 1, 100000, 0.9)
    assert abs(v.mean() - 0.9) < 0.01


def test_dist_stats_derived_from_histogram():
    # three frames of weight 2, one of weight 6
    stats = DistStats(N=8, weights=np.array([2, 2, 2, 6], dtype=np.int64), max_run_length=3)
    assert stats.frames == 4
    assert stats.samples.tolist() == [0.25, 0.25, 0.25, 0.75]
    assert stats.min == 0.25
    assert stats.max == 0.75
    assert stats.mean == (3 * 2 + 6) / (4 * 8)


def test_dist_experiment_reproducible_and_batch_independent():
    # 4,100 frames span three encode batches: every weight and the longest
    # run must be those of the whole array, encoded and scanned row by row
    spec = construct(32, 20)
    msgs = draw_messages(4100, spec.K, 0.9, 1234)
    assert len(msgs) > 2 * analysis._DIST_BATCH
    a = run_dist_experiment(spec, msgs, encoder="nspe", scrambler=ScramblerSpec())
    x = encode_nspe(spec, msgs ^ keystream(ScramblerSpec(), spec.K))
    assert np.array_equal(a.weights, x.sum(axis=1))
    assert a.max_run_length == max(len(list(run)) for row in x for _, run in groupby(row))
    b = run_dist_experiment(spec, msgs, encoder="nspe", scrambler=ScramblerSpec())
    assert np.array_equal(a.weights, b.weights) and a.max_run_length == b.max_run_length


def test_dist_experiment_seed_changes_samples():
    spec = construct(32, 20)
    a = run_dist_experiment(spec, draw_messages(200, spec.K, 0.9, 1))
    b = run_dist_experiment(spec, draw_messages(200, spec.K, 0.9, 2))
    assert not np.array_equal(a.samples, b.samples)


def test_dist_samples_rebuild_from_numpy_streams():
    # README's contract: frame f's message is default_rng((master_seed, f))
    # drawing K uniforms, a bit being 1 below p1.  Rebuilt with numpy alone.
    spec = construct(64, 40)
    seed, p1, frames = 99, 0.8, 150
    stats = run_dist_experiment(spec, draw_messages(frames, spec.K, p1, seed), scrambler=None)
    msgs = np.array([np.random.default_rng((seed, f)).random(spec.K) < p1
                     for f in range(frames)], dtype=np.uint8)
    assert np.array_equal(stats.samples, encode_nspe(spec, msgs).sum(axis=1) / spec.N)


def test_dist_experiment_degenerate_bias():
    spec = construct(16, 8)
    # p1 = 0 unscrambled: every frame is the all-zero codeword.
    stats = run_dist_experiment(spec, draw_messages(50, spec.K, 0.0, DEFAULT_MASTER_SEED),
                                scrambler=None)
    assert stats.min == 0.0 and stats.max == 0.0
    # Scrambled, the message becomes the fixed keystream: one codeword.
    stats = run_dist_experiment(spec, draw_messages(50, spec.K, 0.0, DEFAULT_MASTER_SEED),
                                scrambler=ScramblerSpec())
    assert stats.min == stats.max


def test_dist_experiment_scrambling_invariant_at_balanced_input():
    # A Bernoulli(1/2) message XOR a fixed keystream is still Bernoulli(1/2),
    # so scrambling must not move the mean.
    spec = construct(64, 40)
    on = run_dist_experiment(spec, draw_messages(2000, spec.K, 0.5, DEFAULT_MASTER_SEED),
                             scrambler=ScramblerSpec())
    off = run_dist_experiment(spec, draw_messages(2000, spec.K, 0.5, DEFAULT_MASTER_SEED),
                              scrambler=None)
    assert abs(on.mean - off.mean) < 0.01
    assert abs(on.mean - 0.5) < 0.01


def test_dist_experiment_scrambles_with_the_given_spec():
    # A non-default scrambler: the weights are those of encode_nspe applied
    # to the drawn messages XOR that scrambler's keystream.
    spec = construct(64, 40)
    scrambler = ScramblerSpec(poly_mask=0x25, seed=0x1B)
    assert not np.array_equal(keystream(scrambler, spec.K), keystream(ScramblerSpec(), spec.K))
    stats = run_dist_experiment(spec, draw_messages(200, spec.K, 0.8, 31), scrambler=scrambler)
    msgs, _ = _drawn(31, 0, 200, spec.K, 0.8)
    want = encode_nspe(spec, msgs ^ keystream(scrambler, spec.K)).sum(axis=1)
    assert np.array_equal(stats.weights, want)


def test_dist_experiment_validation():
    spec = construct(16, 8)
    with pytest.raises(ValueError):
        draw_messages(0, spec.K, 0.9, DEFAULT_MASTER_SEED)
    with pytest.raises(ValueError):
        run_dist_experiment(spec, draw_messages(1, spec.K, 0.9, DEFAULT_MASTER_SEED),
                            encoder="other")


@pytest.mark.parametrize("msgs_shape, match", [
    ((0, 8), r"frames >= 1, K=8\) array, got shape \(0, 8\)"),
    ((8,), r"frames >= 1, K=8\) array, got shape \(8,\)"),
    ((10, 7), r"frames >= 1, K=8\) array, got shape \(10, 7\)"),
], ids=["no-frames", "one-dim", "wrong-width"])
def test_dist_experiment_rejects_bad_msgs_or_batch(msgs_shape, match):
    # each once returned garbage or raised a numpy error: no frames a
    # DistStats whose mean divided by zero, a 1-D array numpy's AxisError, a
    # wrong width a broadcast error
    spec = construct(16, 8)
    with pytest.raises(ValueError, match=match):
        run_dist_experiment(spec, np.zeros(msgs_shape, dtype=np.uint8))


def test_ber_point_ratio():
    p = BerPoint(10.0, bits_sent=2000, bit_errors=3, frames_sent=10, frame_errors=2)
    assert p.ber == pytest.approx(1.5e-3)
    assert BerPoint(0.0, 0, 0, 0, 0).ber == 0.0


def test_link_geometry():
    polar = PolarLink(construct(256, 158), ScramblerSpec())
    assert polar.frame_bits == 158 and polar.tx_bits == 256
    assert polar.rate == pytest.approx(158 / 256)
    for k, blocks in ((11, 4), (7, 6), (3, 14)):
        link = RsLink(k)
        assert link.blocks == blocks
        assert link.tx_bits == blocks * 60
        assert link.rate == pytest.approx(158 / (blocks * 60))
    assert UncodedLink().rate == 1.0


def test_polar_link_noiseless_roundtrip():
    link = PolarLink(construct(64, 40), ScramblerSpec())
    rng = np.random.default_rng(11)
    msgs = (rng.random((20, 40)) < 0.5).astype(np.uint8)
    params = ChannelParams(noise_var=0.01)
    y = modulate_ook(link.encode(msgs))
    hat, failed = link.decode(y, params)
    assert np.array_equal(hat, msgs)
    assert not failed.any()


def test_polar_link_without_scrambler():
    link = PolarLink(construct(64, 40), scrambler=None)
    rng = np.random.default_rng(13)
    msgs = (rng.random((5, 40)) < 0.5).astype(np.uint8)
    params = ChannelParams(noise_var=0.01)
    hat, _ = link.decode(modulate_ook(link.encode(msgs)), params)
    assert np.array_equal(hat, msgs)


@pytest.mark.parametrize("scrambler", [ScramblerSpec(), None], ids=["scrambled", "unscrambled"])
def test_float_messages_fail_alike_scrambled_or_not(scrambler):
    # an unscrambled frame XORs an all-zero key, so both fail at the XOR
    spec = construct(64, 40)
    with pytest.raises(TypeError):
        PolarLink(spec, scrambler).encode(np.zeros((2, 40)))
    with pytest.raises(TypeError):
        run_dist_experiment(spec, np.zeros((2, 40)), scrambler=scrambler)


def test_rs_link_noiseless_roundtrip():
    rng = np.random.default_rng(17)
    params = ChannelParams(noise_var=0.01)
    for k in (3, 7, 11):
        link = RsLink(k)
        msgs = (rng.random((8, 158)) < 0.5).astype(np.uint8)
        y = modulate_ook(link.encode(msgs))
        hat, failed = link.decode(y, params)
        assert np.array_equal(hat, msgs)
        assert not failed.any()


def test_rs_link_corrects_symbol_errors():
    link = RsLink(11)
    rng = np.random.default_rng(19)
    msgs = (rng.random((1, 158)) < 0.5).astype(np.uint8)
    params = ChannelParams(noise_var=0.01)
    y = modulate_ook(link.encode(msgs))
    # Two symbol errors in each of the four blocks: all correctable.
    for blk in range(4):
        for sym in (0, 8):
            base = (blk * N_SYMBOLS + sym) * 4
            y[0, base : base + 4] = 1.0 - y[0, base : base + 4]
    hat, failed = link.decode(y, params)
    assert np.array_equal(hat, msgs)
    assert not failed.any()


def test_rs_link_flags_failed_frames():
    # Find a weight-3 pattern the block decoder reports as uncorrectable,
    # then check the link escalates it to a frame failure.
    spec = RsSpec(11)
    rng = np.random.default_rng(23)
    pattern = None
    for _ in range(500):
        recv = np.zeros(15, dtype=np.uint8)
        pos = rng.choice(15, 3, replace=False)
        recv[pos] = rng.integers(1, 16, 3)
        if rs_decode(spec, recv)[1]:
            pattern = recv
            break
    assert pattern is not None
    link = RsLink(11)
    msgs = np.zeros((1, 158), dtype=np.uint8)
    params = ChannelParams(noise_var=0.01)
    y = modulate_ook(link.encode(msgs))
    from beaconphy.reed_solomon import symbols_to_bits

    bad_bits = symbols_to_bits(pattern)
    y[0, : 60] = modulate_ook(bad_bits)  # overwrite first block
    hat, failed = link.decode(y, params)
    assert failed[0]


def test_uncoded_link_threshold():
    link = UncodedLink(frame_bits=4)
    params = ChannelParams(noise_var=1.0)
    y = np.array([[0.4, 0.6, 2.5, -0.3]])
    hat, failed = link.decode(y, params)
    assert hat.tolist() == [[0, 1, 1, 0]]
    assert not failed.any()


def test_ber_experiment_reproducible_across_workers():
    link = UncodedLink()
    kw = dict(min_errors=40, max_frames=4000,
              master_seed=777, batch=250)
    serial = run_ber_experiment(link, [11.0, 12.0, 30.0], workers=None, **kw)
    pooled = run_ber_experiment(link, [11.0, 12.0, 30.0], workers=2, **kw)
    assert [(p.bits_sent, p.bit_errors, p.frames_sent, p.frame_errors)
            for p in serial] == \
           [(p.bits_sent, p.bit_errors, p.frames_sent, p.frame_errors)
            for p in pooled]
    # error-free at 30 dB, the last point runs to its frame cap, past the pool's last submit
    assert serial[-1] == BerPoint(30.0, 4000 * 158, 0, 4000, 0)


def test_pooled_batch_buffers_leave_no_stale_data():
    # Batches of two links and four shapes, each run once on buffers that the
    # pool hands back poisoned (NaN noise, 255 message bytes) and once on
    # fresh ones: every count must agree, so each batch overwrites all of its
    # buffers.  The pool keeps the last shape only: the second batch of each
    # 500-frame polar and 40-frame RS pair reuses the first one's pair, and a
    # batch of another shape frees it.
    links = {"polar": PolarLink(construct(256, 158)), "rs15_3": RsLink(3)}
    batches = [("polar", 7.0, 0, 500), ("polar", 7.0, 500, 1000), ("rs15_3", 14.0, 500, 540),
               ("rs15_3", 14.0, 540, 580), ("polar", 7.0, 1000, 1500),
               ("polar", 7.0, 1500, 1537), ("rs15_3", 14.0, 1000, 1037)]
    analysis._buffers.cache_clear()
    pooled, reuses = [], 0
    for name, db, lo, hi in batches:
        link = links[name]
        idle = analysis._buffers(hi - lo, link.frame_bits, link.tx_bits)
        for msgs, noise in idle:
            msgs.fill(255)
            noise.fill(np.nan)
        reused = [id(a) for a in idle[0]] if idle else None
        params = ChannelParams.from_ebn0_db(db, link.rate)
        pooled.append(analysis._run_batch(link, params, lo, hi, 4242))
        assert reused is None or [id(a) for a in idle[0]] == reused
        reuses += reused is not None
        assert analysis._buffers.cache_info().currsize == 1
    assert reuses == 2
    fresh = []
    for name, db, lo, hi in batches:
        analysis._buffers.cache_clear()
        link = links[name]
        params = ChannelParams.from_ebn0_db(db, link.rate)
        fresh.append(analysis._run_batch(link, params, lo, hi, 4242))
    assert pooled == fresh
    assert all(0 < nferr < nframes for _, _, nframes, nferr in fresh)
    # worker processes keep pools of their own; their counts match the serial run's
    kw = dict(min_errors=10**9, max_frames=1037, master_seed=4242, batch=500)
    assert run_ber_experiment(links["polar"], [7.0], workers=2, **kw) == \
        run_ber_experiment(links["polar"], [7.0], **kw)


def test_ber_counts_rebuild_from_numpy_streams():
    # README's contract: frame f draws from default_rng((master_seed, f)),
    # first K uniforms (bit = u < 0.5), then K N(0, sigma^2) noise samples.
    # Rebuilt with numpy alone for uncoded OOK thresholded at A/2.
    K, seed, db, frames = 40, 4321, 8.0, 300
    point, = run_ber_experiment(UncodedLink(K), [db], min_errors=10**9, max_frames=frames,
                                master_seed=seed, batch=128)
    sigma = math.sqrt(1.0 / (2.0 * 10.0 ** (db / 10.0)))  # A = 1, rate 1
    bit_errors = frame_errors = 0
    for f in range(frames):
        g = np.random.default_rng((seed, f))
        msg = g.random(K) < 0.5
        errors = int(((msg + g.normal(0.0, sigma, K) > 0.5) != msg).sum())
        bit_errors += errors
        frame_errors += errors > 0
    assert bit_errors > 0
    assert (point.bits_sent, point.bit_errors, point.frames_sent, point.frame_errors) == \
        (frames * K, bit_errors, frames, frame_errors)


def _numpy_frames(seed, lo, hi, n_bits, p_one, noise_bits, sigma):
    """Frames lo .. hi-1 from np.random.default_rng((seed, f)) alone, one call per frame."""
    msgs = np.empty((hi - lo, n_bits), dtype=np.uint8)
    noise = np.empty((hi - lo, noise_bits), dtype=np.float64)
    for i, f in enumerate(range(lo, hi)):
        g = np.random.default_rng((seed, f))
        msgs[i] = g.random(n_bits) < p_one
        if noise_bits:
            noise[i] = g.normal(0.0, sigma, noise_bits)
    return msgs, noise


# Seeds up to 2**32 - 1 take one 32-bit word of SeedSequence's entropy,
# 2**32 to 2**64 - 1 two, 2**64 three, 2**96 four, 2**128 five and
# 2**160 + 3 six; the frame index adds one word below f = 2**32 and two
# above.  So from 2**64 on some frames' entropy is longer than the pool of
# four words, and from 2**96 on every frame's is.  A numpy integer seed is
# accepted as default_rng accepts it.
DRAW_SEEDS = [0, 0xC0DEC, np.int64(0xC0DEC), 2**32 - 1, 2**32, 2**40, 2**64 - 1, 2**64, 2**96,
              2**128, 2**160 + 3]

# Each list is cut into consecutive batches at its edges: batches of a
# 3000-frame run of one frame, of exactly two 64-frame threshold chunks
# ([65, 193)) and ending mid-chunk; then batches across f = 2**32, where
# SeedSequence gives the frame index a second word, and batches ending and
# starting there.
DRAW_SPANS = [
    [0, 1, 63, 64, 65, 193, 2048, 2049, 3000],
    [2**32 - 3, 2**32 + 3],
    [2**32 - 20, 2**32, 2**32 + 20],
]


@pytest.mark.parametrize("seed", DRAW_SEEDS)
@pytest.mark.parametrize("noise_bits", [0, 256, 840])
@pytest.mark.parametrize("edges", DRAW_SPANS)
def test_draw_frames_match_numpy_streams(seed, noise_bits, edges):
    # Each batch uses the next ones ratio, so every p_one meets every seed
    # and noise size.
    n_bits, sigma = 23, 0.7
    for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
        p_one = [0.5, 0.9, 1.0, 0.0][j % 4]
        msgs, noise = _drawn(seed, lo, hi, n_bits, p_one, noise_bits, sigma)
        want_msgs, want_noise = _numpy_frames(seed, lo, hi, n_bits, p_one, noise_bits, sigma)
        assert msgs.dtype == np.uint8 and msgs.tobytes() == want_msgs.tobytes()
        assert noise.shape == want_noise.shape and noise.tobytes() == want_noise.tobytes()


def test_draw_frames_empty_range_and_negative_seed():
    msgs, noise = _drawn(7, 5, 5, 158, 0.5, 256, 0.5)
    assert msgs.shape == (0, 158) and noise.shape == (0, 256)
    with pytest.raises(ValueError) as numpys:
        np.random.default_rng((-1, 0))
    assert str(numpys.value) == "expected non-negative integer"
    # a negative seed is rejected before any frame is drawn, so an empty range too
    for lo, hi in [(0, 3), (5, 5), (2**32, 2**32 + 1)]:
        with pytest.raises(ValueError) as ours:
            _drawn(-1, lo, hi, 158, 0.5)
        assert str(ours.value) == str(numpys.value)


def test_ber_experiment_batch_size_does_not_change_consumed_prefix():
    # Identical frame set whenever the stopping boundary coincides; with
    # min_errors above any single-batch yield both runs hit max_frames.
    link = UncodedLink()
    kw = dict(min_errors=10**9, max_frames=2000, master_seed=42)
    a = run_ber_experiment(link, [12.0], batch=100, **kw)
    b = run_ber_experiment(link, [12.0], batch=500, **kw)
    assert a[0].bit_errors == b[0].bit_errors
    assert a[0].frames_sent == b[0].frames_sent == 2000


def test_ber_experiment_stops_after_quiet_point():
    link = UncodedLink()
    points = run_ber_experiment(link, [25.0, 26.0, 27.0],
                                min_errors=10, max_frames=500,
                                master_seed=7, batch=100)
    # 25 dB is already error-free at these frame counts: sweep ends there.
    assert len(points) == 1
    assert points[0].bit_errors == 0


def test_ber_experiment_stops_on_the_frame_whose_errors_reach_min_errors():
    # min_errors is reached, not passed: a first frame with exactly that many
    # bit errors ends the point by itself
    link = UncodedLink()
    first, = run_ber_experiment(link, [0.0], max_frames=1, batch=1)
    assert first.frames_sent == 1 and first.bit_errors > 0
    point, = run_ber_experiment(link, [0.0], min_errors=first.bit_errors,
                                max_frames=1000, batch=1)
    assert point.frames_sent == 1 and point.bit_errors == first.bit_errors


def test_ber_experiment_validation():
    with pytest.raises(ValueError):
        run_ber_experiment(UncodedLink(), [10.0], min_errors=0)
    with pytest.raises(ValueError):
        run_ber_experiment(UncodedLink(), [10.0], max_frames=0)
    with pytest.raises(ValueError):
        run_ber_experiment(UncodedLink(), [10.0], batch=-5)
    with pytest.raises(ValueError):
        run_ber_experiment(UncodedLink(), [10.0], workers=0)


def test_uncoded_ber_matches_analytic_value():
    # Q(1 / (2 sigma)) for hard threshold detection of unipolar OOK.
    link = UncodedLink()
    points = run_ber_experiment(link, [11.0], min_errors=1500,
                                max_frames=20000, master_seed=99, batch=1000)
    params = ChannelParams.from_ebn0_db(11.0, 1.0)
    theory = 0.5 * math.erfc(1 / (2 * params.sigma) / math.sqrt(2))
    assert points[0].ber == pytest.approx(theory, rel=0.15)


def test_ebn0_at_ber_interpolation():
    pts = [BerPoint(1.0, 100000, 1000, 0, 0),   # 1e-2
           BerPoint(2.0, 100000, 10, 0, 0)]     # 1e-4
    assert ebn0_at_ber(pts, 1e-3) == pytest.approx(1.5)
    assert ebn0_at_ber(pts, 1e-2) == 1.0
    assert ebn0_at_ber(pts, 1e-5) is None
    assert ebn0_at_ber(pts, 0.5) is None
    pts.append(BerPoint(3.0, 100000, 0, 0, 0))
    assert ebn0_at_ber(pts, 1e-5) is None  # zero floor cannot bracket
    with pytest.raises(ValueError):
        ebn0_at_ber(pts, 0.0)


def test_coding_gain_values():
    a = [BerPoint(1.0, 10**6, 10**4, 0, 0), BerPoint(3.0, 10**6, 10, 0, 0)]
    shifted = [BerPoint(2.5, 10**6, 10**4, 0, 0), BerPoint(4.5, 10**6, 10, 0, 0)]
    assert coding_gain(a, a, 1e-4) == pytest.approx(0.0)
    assert coding_gain(a, shifted, 1e-4) == pytest.approx(1.5)
    assert coding_gain(a, [BerPoint(1.0, 100, 90, 0, 0)], 1e-4) is None


def test_mftp_check_values():
    fast = mftp_check(256, 200e3)
    assert fast.frame_time_s == pytest.approx(1.28e-3, rel=1e-12)
    assert fast.compliant
    slow = mftp_check(2048, 200e3)
    assert slow.frame_time_s == pytest.approx(10.24e-3, rel=1e-12)
    assert not slow.compliant
    # The limit is strict: exactly 5 ms does not comply.
    assert not mftp_check(1000, 200e3).compliant
    with pytest.raises(ValueError):
        mftp_check(0, 200e3)
    for clock in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            mftp_check(100, clock)


class _CountingPool:
    """An executor that runs each submitted task at once and records how far
    submission ran ahead of consumption."""

    def __init__(self):
        self.submitted = self.consumed = self.max_ahead = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, func, *args):
        self.submitted += 1
        self.max_ahead = max(self.max_ahead, self.submitted - self.consumed)
        pool, value = self, func(*args)

        class Future:
            def result(self):
                pool.consumed += 1
                return value

        return Future()


def test_run_point_keeps_at_most_workers_batches_in_flight(monkeypatch):
    link = UncodedLink()
    kw = dict(min_errors=40, max_frames=4000, master_seed=777, batch=250)
    [serial] = run_ber_experiment(link, [11.0], workers=1, **kw)
    # the last two counts overflow the C int the executor turns its process count into
    for workers in (2, 3, 3_000_000_000, 10**20):
        pool, sizes = _CountingPool(), []

        def executor(processes, **_):
            sizes.append(processes)
            return pool

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
        [pooled] = run_ber_experiment(link, [11.0], workers=workers, **kw)
        assert pooled == serial
        assert serial.frames_sent < 4000
        assert sizes == [min(workers, os.cpu_count() or 1)]
        assert pool.max_ahead <= sizes[0]
        assert pool.submitted <= pool.consumed + sizes[0] - 1


def test_links_reject_nonpositive_frame_bits():
    for bits in (0, -8):
        with pytest.raises(ValueError):
            RsLink(7, frame_bits=bits)
        with pytest.raises(ValueError):
            UncodedLink(frame_bits=bits)


def test_links_reject_misshapen_frames():
    params = ChannelParams(noise_var=0.01)
    for link in (PolarLink(construct(256, 158)), RsLink(7), UncodedLink()):
        k, n = link.frame_bits, link.tx_bits
        for msgs in (np.zeros(k), np.zeros((2, k + 4)), np.zeros((2, 1, k)), np.zeros(())):
            with pytest.raises(ValueError, match=rf"messages must have shape \(frames, {k}\)"):
                link.encode(msgs.astype(np.uint8))
        for y in (np.zeros(n), np.zeros((2, n + 4)), np.zeros((2, n - 1)), np.zeros((1, 2, n))):
            with pytest.raises(ValueError, match=rf"samples must have shape \(frames, {n}\)"):
                link.decode(y, params)
    # the three mistakes that used to pass without an error
    with pytest.raises(ValueError):
        PolarLink(construct(256, 158)).decode(np.zeros(256), params)
    with pytest.raises(ValueError):
        RsLink(7).encode(np.zeros(158, np.uint8))
    with pytest.raises(ValueError):
        UncodedLink().decode(np.zeros((3, 162)), params)


@pytest.mark.parametrize("link", [PolarLink(construct(256, 158)), RsLink(7), UncodedLink()],
                         ids=lambda link: type(link).__name__)
def test_links_reject_non_bit_messages(link):
    # RsLink packs bits with np.packbits, which would send a 2 as a 1
    msgs = np.zeros((2, link.frame_bits), np.uint8)
    msgs[1, 3] = 2
    with pytest.raises(ValueError, match=r"bits must lie in \[0, 2\)"):
        link.encode(msgs)
    with pytest.raises(ValueError, match=r"bits must lie in \[0, 2\)"):
        link.encode(np.full((1, link.frame_bits), -1, np.int8))
    # a polar frame meets the scrambler key's uint8 XOR first, which refuses floats
    with pytest.raises(TypeError if isinstance(link, PolarLink) else ValueError):
        link.encode(np.zeros((1, link.frame_bits)))


@pytest.mark.parametrize("link", [RsLink(3), RsLink(7), RsLink(11), PolarLink(construct(256, 158)),
                                  UncodedLink()], ids=lambda link: type(link).__name__)
def test_links_take_an_empty_batch(link):
    tx = link.encode(np.zeros((0, link.frame_bits), np.uint8))
    assert tx.shape == (0, link.tx_bits)
    hat, failed = link.decode(np.zeros((0, link.tx_bits)), ChannelParams(noise_var=0.01))
    assert hat.dtype == np.uint8 and hat.shape == (0, link.frame_bits)
    assert failed.dtype == bool and failed.shape == (0,)
