"""Acceptance gate: twelve numbered criteria, one test (and one verdict) each.

Each test prints its measured numbers, so a failure shows exactly which
clause missed and by how much.  Criteria 5, 6 and 7 pin the published
ones-density behavior; criterion 9 pins the coding-gain ordering of the
polar link against the three Reed-Solomon baselines.
"""

import io
import json
import math
import os
import sys
import time

import numpy as np
import pytest

from beaconphy import cli
from beaconphy.analysis import (
    DEFAULT_MASTER_SEED,
    PolarLink,
    RsLink,
    UncodedLink,
    coding_gain,
    draw_messages,
    ebn0_at_ber,
    mftp_check,
    run_ber_experiment,
    run_dist_experiment,
)
from beaconphy.channel import ChannelParams
from beaconphy.polar_codec import encode_nspe, polar_transform, sc_decode
from beaconphy.polar_construction import bhattacharyya_profile, construct
from beaconphy.reed_solomon import N_SYMBOLS, RsSpec, rs_decode
from beaconphy.scrambler import ScramblerSpec, keystream, period, scramble

from ones_density_oracle import (
    message_ones_probabilities,
    moment_z_scores,
    ones_density_moments,
)


def all_messages(k):
    grid = np.arange(1 << k, dtype=np.uint32)[:, None] >> np.arange(k)[None, :]
    return (grid & 1).astype(np.uint8)


def test_criterion_01_scrambler_roundtrip_and_period():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    for _ in range(10_000):
        seed = int(rng.integers(1, 16))
        spec = ScramblerSpec(seed=seed)
        frame = (rng.random(int(rng.integers(1, 256))) < 0.5).astype(np.uint8)
        assert np.array_equal(scramble(spec, scramble(spec, frame)), frame)
    periods = [period(ScramblerSpec(seed=s)) for s in range(1, 16)]
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: 10^4 roundtrips ok, periods={set(periods)}, "
          f"time={elapsed:.2f}s")
    assert periods == [15] * 15
    assert elapsed < 1.0


def test_criterion_02_exhaustive_sc_inversion():
    t0 = time.perf_counter()
    checked = 0
    for N in (2, 4, 8, 16):
        for K in range(1, N + 1):
            spec = construct(N, K, 0.5)
            msgs = all_messages(K)
            x = encode_nspe(spec, msgs)
            llr = np.where(x == 0, np.inf, -np.inf)
            hat = sc_decode(spec, llr)
            assert np.array_equal(hat, msgs), f"SC inversion failed at N={N} K={K}"
            checked += msgs.shape[0]
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: {checked} messages inverted, time={elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_03_transform_involution_and_linearity():
    rng = np.random.default_rng(31337)
    x = (rng.random((100_000, 256)) < 0.5).astype(np.uint8)
    y = (rng.random((100_000, 256)) < 0.5).astype(np.uint8)
    inv_fail = int((polar_transform(polar_transform(x)) != x).any(axis=1).sum())
    lin_fail = int(
        (polar_transform(x ^ y) != (polar_transform(x) ^ polar_transform(y)))
        .any(axis=1)
        .sum()
    )
    print(f"criterion 3: involution failures={inv_fail}, "
          f"linearity failures={lin_fail} of 100000")
    assert inv_fail == 0
    assert lin_fail == 0


def test_criterion_04_bhattacharyya_conservation():
    worst = 0.0
    for n in range(1, 12):  # N = 2 .. 2048
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            z = bhattacharyya_profile(n, eps)
            want = (1 << n) * eps
            rel = abs(float(z.sum()) - want) / want
            worst = max(worst, rel)
    print(f"criterion 4: worst relative conservation error={worst:.3e}")
    assert worst <= 1e-9


def test_criterion_05_headline_distribution_256():
    """Scrambled (256,158) frames stay in the published window; unscrambled leave it.

    Both runs encode 10,000 iid Bernoulli(0.9) messages.  Their Monte-Carlo
    mean and sd must agree with the exact oracle in ones_density_oracle.py
    within 5 standard errors, taking sd/sqrt(n) for the mean and
    sd/sqrt(2n) for the sd.  The exact values are mean 0.449215, sd 0.067417
    unscrambled and mean 0.495676, sd 0.029515 scrambled.

    The unscrambled run must leave the scrambled window on both sides:
    min <= 0.36, below its floor, and max > 0.6375 + 0.03, above its
    ceiling.  A frame exceeds 0.6675 with probability about 3.4e-3, so 10k
    frames all miss it with probability about e^-34.  A DC-balanced
    encoder fails the clause: no scrambled frame in 1.2e7 reached 0.6675.
    The clause does not ask for the reference maximum 0.80: it sits 5.20
    sd above the exact mean, none of 1.2e7 Monte-Carlo frames reached it,
    and the measured tail puts the chance that 10k frames do at about
    6e-4.  The oracle line prints its z-score.

    The scrambled clauses pass at the default seed, but they are fragile.
    Per frame, P(w <= 97/256) is about 3.7e-5 (1.2e7 Monte-Carlo frames),
    so a 10k-frame min falls below 0.3825 with probability about 0.3.  The
    max stays below 0.6075 with probability about 0.3 too.  A change of RNG
    scheme therefore has about even odds of flipping one of them.  That is
    a finding to report, not a reason to re-seed.
    """
    t0 = time.perf_counter()
    spec = construct(256, 158, 0.5)
    p1 = 0.9
    frames = 10_000
    scr = run_dist_experiment(spec, draw_messages(frames, spec.K, p1, DEFAULT_MASTER_SEED),
                              encoder="nspe", scrambler=ScramblerSpec())
    unscr = run_dist_experiment(spec, draw_messages(frames, spec.K, p1, DEFAULT_MASTER_SEED),
                                encoder="nspe", scrambler=None)
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: scrambled min={scr.min:.4f} max={scr.max:.4f}, "
          f"unscrambled min={unscr.min:.4f} max={unscr.max:.4f}, "
          f"time={elapsed:.1f}s")
    assert elapsed < 30.0
    problems = []
    oracle = []
    runs = (("scrambled", scr, keystream(ScramblerSpec(), spec.K)),
            ("unscrambled", unscr, None))
    for label, stats, ks in runs:
        mean, var = ones_density_moments(
            spec.N, spec.info_set,
            message_ones_probabilities(p1, spec.K, ks))
        sd = math.sqrt(var)
        z_mean, z_sd = moment_z_scores(stats.samples, mean, var)
        oracle.append(f"{label} mean={mean:.6f} sd={sd:.6f}, 0.80 at "
                      f"z={(0.80 - mean) / sd:.2f}; Monte-Carlo off by "
                      f"{z_mean:+.2f} SE (mean), {z_sd:+.2f} SE (sd)")
        if abs(z_mean) > 5.0 or abs(z_sd) > 5.0:
            problems.append(f"{label} moments off the oracle: mean by "
                            f"{z_mean:+.2f} SE, sd by {z_sd:+.2f} SE")
    print("criterion 5 oracle: " + "; ".join(oracle))
    if not 0.4125 - 0.03 <= scr.min <= 0.4125 + 0.03:
        problems.append(f"scrambled min {scr.min:.4f} outside 0.4125 +/- 0.03")
    if not 0.6375 - 0.03 <= scr.max <= 0.6375 + 0.03:
        problems.append(f"scrambled max {scr.max:.4f} outside 0.6375 +/- 0.03")
    if not unscr.max > 0.6375 + 0.03:
        problems.append(f"unscrambled max {unscr.max:.4f} <= 0.6675, "
                        f"inside the scrambled window")
    if not unscr.min <= 0.36:
        problems.append(f"unscrambled min {unscr.min:.4f} > 0.36")
    assert not problems, "; ".join(problems) + " [oracle: " + "; ".join(oracle) + "]"


def test_criterion_06_long_code_distribution_2048():
    spec = construct(2048, 1024, 0.5)
    high = run_dist_experiment(spec, draw_messages(10_000, spec.K, 0.9, DEFAULT_MASTER_SEED),
                               encoder="nspe", scrambler=None)
    half = run_dist_experiment(spec, draw_messages(10_000, spec.K, 0.5, DEFAULT_MASTER_SEED),
                               encoder="nspe", scrambler=None)
    print(f"criterion 6: p1=0.9 range=({high.min:.4f}, {high.max:.4f}), "
          f"p1=0.5 range=({half.min:.4f}, {half.max:.4f})")
    # "range within (a +/- tol, b +/- tol)": the observed range must lie
    # inside the widened interval.
    assert high.min >= 0.4125 - 0.03 and high.max <= 0.6125 + 0.03, (
        f"p1=0.9 range ({high.min:.4f}, {high.max:.4f}) not within "
        f"({0.4125 - 0.03:.4f}, {0.6125 + 0.03:.4f})")
    assert half.min >= 0.42 - 0.02 and half.max <= 0.58 + 0.02, (
        f"p1=0.5 range ({half.min:.4f}, {half.max:.4f}) not within "
        f"({0.42 - 0.02:.4f}, {0.58 + 0.02:.4f})")


def test_criterion_07_systematic_drift():
    spec = construct(256, 158, 0.5)
    stats = run_dist_experiment(spec, draw_messages(10_000, spec.K, 0.9, DEFAULT_MASTER_SEED),
                                encoder="systematic", scrambler=None)
    print(f"criterion 7: systematic unscrambled mean={stats.mean:.6f}")
    assert stats.mean >= 0.75


def test_criterion_08_rs_exhaustive_double_error():
    t0 = time.perf_counter()
    spec = RsSpec(11)
    zero = np.zeros(N_SYMBOLS, dtype=np.uint8)
    failures = 0
    patterns = 0
    for p1 in range(N_SYMBOLS):
        for m1 in range(1, 16):
            recv = zero.copy()
            recv[p1] = m1
            patterns += 1
            out, lost = rs_decode(spec, recv)
            if lost or out.any():
                failures += 1
    for p1 in range(N_SYMBOLS):
        for p2 in range(p1 + 1, N_SYMBOLS):
            for m1 in range(1, 16):
                for m2 in range(1, 16):
                    recv = zero.copy()
                    recv[p1], recv[p2] = m1, m2
                    patterns += 1
                    out, lost = rs_decode(spec, recv)
                    if lost or out.any():
                        failures += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: {patterns} patterns, failures={failures}, "
          f"time={elapsed:.1f}s")
    assert patterns == 15 * 15 + 105 * 225
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_09_coding_gains_at_1e_minus_4():
    t0 = time.perf_counter()
    scrambler = ScramblerSpec()
    links = {
        "polar": PolarLink(construct(256, 158, 0.5), scrambler),
        "rs15_11": RsLink(11),
        "rs15_7": RsLink(7),
        "rs15_3": RsLink(3),
    }
    curves = {}
    for name, link in links.items():
        sweep = cli._parse_sweep(cli.DEFAULT_SWEEPS[name])
        curves[name] = run_ber_experiment(
            link, sweep, min_errors=100,
            max_frames=cli.DEFAULT_MAX_FRAMES,
            master_seed=DEFAULT_MASTER_SEED, batch=1000)
    target = 1e-4
    crossings = {name: ebn0_at_ber(curve, target) for name, curve in curves.items()}
    gains = {name: coding_gain(curves["polar"], curves[name], target)
             for name in ("rs15_11", "rs15_7", "rs15_3")}
    elapsed = time.perf_counter() - t0
    print("criterion 9: crossings at 1e-4 "
          + ", ".join(f"{n}={x if x is None else round(x, 2)} dB"
                      for n, x in crossings.items())
          + "; gains "
          + ", ".join(f"{n}={g if g is None else round(g, 2)} dB"
                      for n, g in gains.items())
          + f"; time={elapsed:.0f}s")
    for name, thresh in (("rs15_11", 2.5), ("rs15_7", 3.0), ("rs15_3", 5.0)):
        assert gains[name] is not None, f"curve pair polar/{name} does not bracket 1e-4"
        assert gains[name] >= thresh, (
            f"gain over {name} = {gains[name]:.2f} dB < {thresh} dB")
    assert elapsed < 900.0


def test_criterion_10_uncoded_matches_analytic_ber():
    link = UncodedLink()
    sweep = [10.5, 11.5, 12.5]  # analytic BER spans about 9e-3 .. 1.4e-3
    points = run_ber_experiment(link, sweep, min_errors=2000,
                                max_frames=50_000,
                                master_seed=DEFAULT_MASTER_SEED, batch=1000)
    lines = []
    for p in points:
        params = ChannelParams.from_ebn0_db(p.ebn0_db, 1.0)
        theory = 0.5 * math.erfc(1 / (2 * params.sigma) / math.sqrt(2))
        rel = abs(p.ber - theory) / theory
        lines.append(f"{p.ebn0_db:g} dB measured={p.ber:.3e} "
                     f"theory={theory:.3e} rel={rel:.3f}")
        assert 1e-3 <= theory <= 1e-2
        assert rel <= 0.10, lines[-1]
    print("criterion 10: " + "; ".join(lines))


def test_criterion_11_sidecar_reruns_are_byte_identical(tmp_path, monkeypatch, capsys):
    def run(argv, stdin_text=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = cli.main(argv)
        capsys.readouterr()
        assert code == 0

    dist1 = str(tmp_path / "dist1")
    run(["simulate-dist", "--sizes", "64:40", "--encoders", "nspe,systematic",
         "--scramble", "both", "--frames", "150", "--out-dir", dist1])
    dist2 = str(tmp_path / "dist2")
    run(["simulate-dist", "--config", os.path.join(dist1, "config.json"),
         "--out-dir", dist2])
    names = ["dist_nspe_on_64x40.csv", "dist_nspe_off_64x40.csv",
             "dist_systematic_on_64x40.csv", "dist_systematic_off_64x40.csv",
             "summary.csv"]
    for name in names:
        a = open(os.path.join(dist1, name), "rb").read()
        b = open(os.path.join(dist2, name), "rb").read()
        assert a == b, f"{name} differs between original and sidecar rerun"

    ber1 = str(tmp_path / "ber1.csv")
    run(["simulate-ber", "--codes", "uncoded,polar", "--ebn0", "9:1:10",
         "--N", "64", "--K", "40", "--min-errors", "25", "--max-frames", "2000",
         "--batch", "250", "--out", ber1])
    ber2 = str(tmp_path / "ber2.csv")
    run(["simulate-ber", "--config", ber1 + ".config.json", "--out", ber2,
         "--workers", "2"])
    a = open(ber1, "rb").read()
    b = open(ber2, "rb").read()
    print(f"criterion 11: {len(names)} distribution files and the BER CSV "
          f"reproduce byte for byte across worker settings")
    assert a == b


def test_criterion_12_mftp_report():
    fast = mftp_check(256, 200e3)
    slow = mftp_check(2048, 200e3)
    print(f"criterion 12: 256 bits -> {fast.frame_time_s * 1e3:.2f} ms "
          f"(compliant={fast.compliant}); 2048 bits -> "
          f"{slow.frame_time_s * 1e3:.2f} ms (compliant={slow.compliant})")
    assert fast.frame_time_s == pytest.approx(1.28e-3, rel=1e-12)
    assert fast.compliant
    assert slow.frame_time_s == pytest.approx(10.24e-3, rel=1e-12)
    assert not slow.compliant
