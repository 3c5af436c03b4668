"""The exact ones-density oracle, checked by enumeration and by Monte-Carlo."""

import numpy as np
import pytest

from beaconphy.analysis import draw_messages, run_dist_experiment
from beaconphy.polar_codec import encode_nspe
from beaconphy.polar_construction import construct
from beaconphy.scrambler import ScramblerSpec, keystream

from ones_density_oracle import (
    message_ones_probabilities,
    moment_z_scores,
    ones_density_moments,
)


@pytest.mark.parametrize("p1", [0.9, 0.3])
@pytest.mark.parametrize("scrambled", [False, True])
@pytest.mark.parametrize("N,K", [(16, 8), (32, 10)])
def test_oracle_matches_exhaustive_enumeration(N, K, scrambled, p1):
    spec = construct(N, K, 0.5)
    ks = keystream(ScramblerSpec(), K) if scrambled else None
    msgs = ((np.arange(1 << K)[:, None] >> np.arange(K)) & 1).astype(np.uint8)
    prob = np.where(msgs == 1, p1, 1.0 - p1).prod(axis=1)
    sent = msgs ^ ks if scrambled else msgs
    frac = encode_nspe(spec, sent).sum(axis=1) / N
    want_mean = float(prob @ frac)
    want_var = float(prob @ (frac - want_mean) ** 2)
    mean, var = ones_density_moments(N, spec.info_set,
                                     message_ones_probabilities(p1, K, ks))
    assert mean == pytest.approx(want_mean, abs=1e-12)
    assert var == pytest.approx(want_var, abs=1e-12)


def test_oracle_hand_values():
    # N=2, both positions info: x = (u0 ^ u1, u1), weight 0/1/2.
    mean, var = ones_density_moments(2, (0, 1), [0.5, 1.0])
    assert mean == pytest.approx(0.75)  # x1 = 1 always, x0 fair
    assert var == pytest.approx(0.0625)
    # Frozen inputs only: the all-zero codeword.
    assert ones_density_moments(4, (), []) == (0.0, 0.0)
    assert message_ones_probabilities(0.9, 3, [0, 1, 0]) == pytest.approx(
        [0.9, 0.1, 0.9])


@pytest.mark.parametrize("N,K,p1,scrambled", [
    (64, 40, 0.9, False),
    (64, 40, 0.9, True),
    (64, 40, 0.1, False),
    (128, 80, 0.7, True),
])
def test_dist_experiment_moments_match_oracle(N, K, p1, scrambled):
    spec = construct(N, K, 0.5)
    stats = run_dist_experiment(spec, draw_messages(4000, spec.K, p1, 7),
                                scrambler=ScramblerSpec() if scrambled else None)
    ks = keystream(ScramblerSpec(), K) if scrambled else None
    mean, var = ones_density_moments(N, spec.info_set,
                                     message_ones_probabilities(p1, K, ks))
    z_mean, z_sd = moment_z_scores(stats.samples, mean, var)
    assert abs(z_mean) <= 5.0, f"mean off by {z_mean:+.2f} SE"
    assert abs(z_sd) <= 5.0, f"sd off by {z_sd:+.2f} SE"
