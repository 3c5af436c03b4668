"""DC-balanced channel coding toolkit for beacon VLC links.

Pre-scrambled non-systematic polar coding, Reed-Solomon and uncoded OOK
baselines, and reproducible Monte-Carlo experiments over an AWGN channel.
"""

from . import analysis, bitstream, channel, polar_codec, polar_construction, reed_solomon, scrambler
from .channel import ChannelParams, RngStream, llr_demap, modulate_ook
from .polar_codec import encode_nspe, encode_systematic, polar_transform, sc_decode
from .polar_construction import PolarSpec, bhattacharyya_profile, construct
from .reed_solomon import RsSpec, rs_decode, rs_encode
from .scrambler import ScramblerSpec, keystream, scramble

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "PolarSpec",
    "RngStream",
    "RsSpec",
    "ScramblerSpec",
    "analysis",
    "bhattacharyya_profile",
    "bitstream",
    "channel",
    "construct",
    "encode_nspe",
    "encode_systematic",
    "keystream",
    "llr_demap",
    "modulate_ook",
    "polar_codec",
    "polar_construction",
    "polar_transform",
    "reed_solomon",
    "rs_decode",
    "rs_encode",
    "sc_decode",
    "scramble",
]
