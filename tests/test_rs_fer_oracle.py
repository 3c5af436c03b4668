"""Frame errors of the simulated RS links against the exact formula in rs_fer_oracle.py.

The oracle shares no code with beaconphy, so this catches what byte-identity
checks against earlier output cannot: a noise level that ignores the code
rate, a wrong threshold, a blocking or padding slip, or a decoder that
corrects more or fewer than t symbol errors per block.
"""

import math

import pytest

import rs_fer_oracle
from beaconphy.analysis import DEFAULT_FRAME_BITS, RsLink, run_ber_experiment

# One point per code, each with an exact frame error rate of 0.10 .. 0.18.
POINTS = {11: 12.0, 7: 12.0, 3: 14.5}
FRAMES = 2000
# False-alarm rate of this whole file: each code's two-sided check runs at
# SUITE_ALPHA / 3 (Bonferroni), so the three together alarm at most 1e-3 of
# the time on a correct link.
SUITE_ALPHA = 1e-3


def test_oracle_formula_values():
    assert rs_fer_oracle.blocks_per_frame(158, 11) == 4
    assert rs_fer_oracle.blocks_per_frame(158, 7) == 6
    assert rs_fer_oracle.blocks_per_frame(158, 3) == 14
    # a noiseless channel never errs; a hopeless one always does
    assert rs_fer_oracle.frame_error_rate(200.0, 7, 158) == 0.0
    assert rs_fer_oracle.frame_error_rate(-40.0, 7, 158) == pytest.approx(1.0)
    # one block, t = 2: FER = P(3 or more of 15 symbols wrong), worked by hand
    ebn0 = 10.0
    sigma = math.sqrt(1.0 / (2.0 * (44 / 60) * 10.0))
    p = 0.5 * math.erfc(1.0 / (2.0 * sigma * math.sqrt(2.0)))
    ps = 1.0 - (1.0 - p) ** 4
    ok = (1 - ps) ** 15 + 15 * ps * (1 - ps) ** 14 + 105 * ps**2 * (1 - ps) ** 13
    assert rs_fer_oracle.frame_error_rate(ebn0, 11, 44) == pytest.approx(1.0 - ok, rel=1e-12)
    lo, hi = rs_fer_oracle.binomial_acceptance(1000, 0.2, 1e-3)
    assert 140 < lo < 200 < hi < 260


@pytest.mark.parametrize("k", sorted(POINTS))
def test_rs_frame_errors_match_exact_formula(k):
    db = POINTS[k]
    fer = rs_fer_oracle.frame_error_rate(db, k, DEFAULT_FRAME_BITS)
    assert 0.05 < fer < 0.5, fer
    (point,) = run_ber_experiment(RsLink(k), [db], min_errors=10**9, max_frames=FRAMES,
                                  batch=500)
    assert point.frames_sent == FRAMES
    lo, hi = rs_fer_oracle.binomial_acceptance(FRAMES, fer, SUITE_ALPHA / len(POINTS))
    assert lo <= point.frame_errors <= hi, (
        f"rs15_{k} at {db} dB: {point.frame_errors}/{FRAMES} frame errors, "
        f"exact FER {fer:.4f} accepts {lo}..{hi}")
