"""OOK/AWGN channel model tests."""

import math

import numpy as np
import pytest

from beaconphy.channel import (
    ChannelParams,
    RngStream,
    llr_demap,
    modulate_ook,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(noise_var=-1.0)
    with pytest.raises(ValueError):
        ChannelParams.from_ebn0_db(5.0, rate=0.0)
    # the noise variance is keyword-only, so a positional number (once the on-level) fails
    with pytest.raises(TypeError):
        ChannelParams(0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_values(bad):
    with pytest.raises(ValueError, match="noise variance must be finite and positive"):
        ChannelParams(noise_var=bad)
    with pytest.raises(ValueError, match="Eb/N0 must be finite"):
        ChannelParams.from_ebn0_db(bad, rate=0.5)


@pytest.mark.parametrize("ebn0_db", [-4000.0, 4000.0])
def test_from_ebn0_db_rejects_out_of_range_values(ebn0_db):
    # 10^(x/10) would round to 0 or overflow a float
    with pytest.raises(ValueError, match="within 3000 dB of 0"):
        ChannelParams.from_ebn0_db(ebn0_db, rate=0.5)


def test_from_ebn0_db_hand_values():
    # Rate 1, 0 dB: noise_var = 1 / 2.
    p = ChannelParams.from_ebn0_db(0.0, rate=1.0)
    assert p.noise_var == pytest.approx(0.5)
    assert p.sigma == pytest.approx(math.sqrt(0.5))
    # Rate 1/2, 10 dB: 1 / (2 * 0.5 * 10) = 0.1.
    p = ChannelParams.from_ebn0_db(10.0, rate=0.5)
    assert p.noise_var == pytest.approx(0.1)


def test_lower_rate_means_more_noise_at_fixed_ebn0():
    high = ChannelParams.from_ebn0_db(8.0, rate=158 / 240)
    low = ChannelParams.from_ebn0_db(8.0, rate=158 / 840)
    assert low.noise_var > high.noise_var


def test_modulate_ook():
    out = modulate_ook([0, 1, 1, 0])
    assert out.dtype == np.float64
    assert out.tolist() == [0.0, 1.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        modulate_ook([0, 2])


def test_llr_demap_bit_identical_to_three_temporary_formula():
    # One array, -2 y then + 1 then / (2 sigma^2), against the formula it replaced.
    special = [0.0, -0.0, 0.5, -0.5, 1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, -1e-310, 1e308, -1e308, 1.7976931348623157e308]
    y = np.concatenate([special, np.random.default_rng(3).normal(0.5, 2.0, 4000)])
    for noise_var in (0.5, 0.37, 1e-300, 1e300):
        p = ChannelParams(noise_var=noise_var)
        with np.errstate(all="ignore"):  # 2 * 1e308 overflows to inf in both
            want = (1.0 - 2.0 * y) / (2.0 * p.noise_var)
            got = llr_demap(y, p)
        assert np.array_equal(got, want, equal_nan=True)
        real = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def test_llr_demap_hand_values():
    # sigma^2 = 0.5: llr(y) = (1 - 2y).
    p = ChannelParams(noise_var=0.5)
    y = np.array([0.0, 1.0, 0.5, 0.25])
    assert llr_demap(y, p).tolist() == [1.0, -1.0, 0.0, 0.5]


def test_llr_sign_equals_threshold_rule():
    rng = np.random.default_rng(79)
    p = ChannelParams(noise_var=0.37)
    y = rng.uniform(-1.0, 2.0, 5000)
    llr = llr_demap(y, p)
    assert np.array_equal(llr < 0, y > 0.5)


def test_llr_scales_with_noise_variance():
    quiet = ChannelParams(noise_var=0.1)
    loud = ChannelParams(noise_var=1.0)
    y = np.array([0.0, 0.9])
    assert np.allclose(llr_demap(y, quiet), 10.0 * llr_demap(y, loud))


def test_rng_stream_reproducible_and_distinct():
    a1 = RngStream(1234, 7).generator().random(16)
    a2 = RngStream(1234, 7).generator().random(16)
    b = RngStream(1234, 8).generator().random(16)
    c = RngStream(1235, 7).generator().random(16)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)

