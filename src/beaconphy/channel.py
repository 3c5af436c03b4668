"""Unipolar OOK over AWGN, with reproducible per-frame noise streams.

Intensity levels are 0 and 1 (no BER depends on the on-level A, as sigma scales with it).
With code rate R and Eb/N0 given in dB, the noise variance is 1 / (2 R 10^(EbN0/10)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstream import checked_uint8


@dataclass(frozen=True, kw_only=True)
class ChannelParams:
    noise_var: float = 1.0

    def __post_init__(self):
        if not 0 < self.noise_var < math.inf:
            raise ValueError("noise variance must be finite and positive")

    @classmethod
    def from_ebn0_db(cls, ebn0_db: float, rate: float) -> "ChannelParams":
        """Channel for a given per-information-bit SNR and code rate."""
        if rate <= 0:
            raise ValueError("code rate must be positive")
        if not abs(ebn0_db) <= 3000.0:  # keeps 10^(x/10) a normal float; NaN fails too
            raise ValueError(f"Eb/N0 must be finite and within 3000 dB of 0, got {ebn0_db} dB")
        return cls(noise_var=1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.noise_var)


@dataclass(frozen=True)
class RngStream:
    """Named randomness source: (master_seed, stream_id) fixes every draw.

    Experiments key stream_id by frame index, which makes results independent
    of batching and of how frames are spread over worker processes.  This is
    the one-stream form: the simulators no longer call it, as
    analysis._frame_generators seeds a whole batch of frames at once with
    the same bytes.
    """

    master_seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.master_seed, self.stream_id))


def modulate_ook(bits) -> np.ndarray:
    """Map bits to intensities: 0 -> 0.0, 1 -> 1.0."""
    return checked_uint8(bits, 1, "bits").astype(np.float64)


def llr_demap(y, params: ChannelParams) -> np.ndarray:
    """Exact per-sample LLR log P(y|0)/P(y|1) = (1 - 2 y) / (2 sigma^2).

    Positive means bit 0 is more likely; y = 1/2 maps to 0.  One array holds
    -2 y + 1, the same IEEE sum as 1 - 2 y, since IEEE 754 defines 1 - t as 1 + (-t).
    """
    llr = -2.0 * np.asarray(y, dtype=np.float64)
    llr += 1.0
    llr /= 2.0 * params.noise_var
    return llr
