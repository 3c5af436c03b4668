"""Command-line entry points: code construction, pipeline stages, experiments.

Text bitstreams on stdin/stdout use '0'/'1' characters, index 0 first.
An experiment subcommand takes each setting from its flag, else from the
--config sidecar, else from DIST_DEFAULTS or BER_DEFAULTS, and writes the
resolved settings to a JSON sidecar next to its output; re-running with
--config <sidecar> reproduces the output byte for byte (for simulate-ber,
whatever --workers says).  Bad paths and configs exit 2 with an error line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bitstream
from .analysis import (
    DEFAULT_MASTER_SEED,
    PolarLink,
    RsLink,
    UncodedLink,
    mftp_check,
    run_ber_experiment,
    run_dist_experiment,
)
from .polar_codec import encode_nspe, encode_systematic, sc_decode
from .polar_construction import construct, load, save
from .scrambler import DEFAULT_POLY, DEFAULT_SEED, ScramblerSpec, scramble

DEFAULT_N = 256
DEFAULT_K = 158
DEFAULT_EPS = 0.5

BER_CODES = ("polar", "rs15_11", "rs15_7", "rs15_3", "uncoded")
# Per-code default sweeps chosen so every curve brackets BER 1e-4 under the
# default master seed, frame cap and 100-error stopping rule.  The RS
# waterfalls are steep enough to need half-dB steps near the knee.
DEFAULT_SWEEPS = {
    "polar": "8:1:12",
    "rs15_11": "12:1:15",
    "rs15_7": "12:0.5:15.5",
    "rs15_3": "15:0.5:17.5",
    "uncoded": "10:1:15",
}
DEFAULT_MAX_FRAMES = 200_000


def _hex_int(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hex value: {text!r}")


def _parse_sizes(text: str) -> list[list[int]]:
    sizes = []
    for part in text.split(","):
        try:
            n_str, k_str = part.split(":")
            sizes.append([int(n_str), int(k_str)])
        except ValueError:
            raise ValueError(f"bad size {part!r}, expected N:K")
    return sizes


def _parse_sweep(text: str) -> list[float]:
    try:
        start, step, stop = (float(v) for v in text.split(":"))
        if not all(map(math.isfinite, (start, step, stop))):
            raise ValueError
    except ValueError:
        raise ValueError(f"bad sweep {text!r}, expected finite start:step:stop")
    if step <= 0 or stop < start:
        raise ValueError("sweep needs step > 0 and stop >= start")
    count = int((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(count)]


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# Each experiment's settings and defaults; the keys are its sidecar's, besides "command".
DIST_DEFAULTS = {
    "sizes": [[DEFAULT_N, DEFAULT_K]],
    "encoders": ["nspe"],
    "scramble": "both",
    "p1": 0.9,
    "frames": 10000,
    "eps": DEFAULT_EPS,
    "poly": DEFAULT_POLY,
    "scrambler_seed": DEFAULT_SEED,
    "master_seed": DEFAULT_MASTER_SEED,
    "out_dir": "dist_out",
}
BER_DEFAULTS = {
    "codes": list(BER_CODES),
    "ebn0": {name: _parse_sweep(text) for name, text in DEFAULT_SWEEPS.items()},
    "N": DEFAULT_N,
    "K": DEFAULT_K,
    "eps": DEFAULT_EPS,
    "poly": DEFAULT_POLY,
    "scrambler_seed": DEFAULT_SEED,
    "amplitude": 1.0,
    "min_errors": 100,
    "max_frames": DEFAULT_MAX_FRAMES,
    "batch": 1000,
    "master_seed": DEFAULT_MASTER_SEED,
    "exact_f": False,
    "workers": None,
    "out": "ber.csv",
}
_FLAG_PARSERS = {"sizes": _parse_sizes, "encoders": _parse_list, "codes": _parse_list,
                 "ebn0": _parse_sweep}


def _from_sidecar(key: str, value, default):
    """A sidecar value checked, nested items too, against its default's JSON type."""
    # an int passes for a float, and for the worker count, whose default is None
    kinds = {float: (float, int), type(None): (type(None), int)}.get(type(default))
    if type(value) not in (kinds or (type(default),)):
        want = "int or null" if default is None else type(default).__name__
        raise ValueError(f"config setting {key!r} must be {want}, got {json.dumps(value)}")
    if isinstance(default, float):
        return float(value)
    if isinstance(value, list) and default:
        return [_from_sidecar(key, v, default[0]) for v in value]
    if isinstance(value, dict) and default:  # ebn0: one sweep per code
        return {k: _from_sidecar(key, v, [*default.values()][0]) for k, v in value.items()}
    return value


def _settings(args, defaults: dict) -> dict:
    """Each setting from its flag if given, else from the --config sidecar, else its default.

    A sidecar of another command, or with a key not a setting nor "command", is rejected."""
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"config {args.config} is not a JSON object")
        if cfg.get("command", args.command) != args.command:
            raise ValueError(f"config {args.config} is for {cfg['command']}, not {args.command}")
        # older simulate-dist sidecars carry "workers", which that command ignores
        unknown = sorted(cfg.keys() - defaults.keys() - {"command", "workers"})
        if unknown:
            raise ValueError(f"config setting {unknown[0]!r} is not a {args.command} setting")
    settings = {}
    for key, default in defaults.items():
        if key in args:
            value = getattr(args, key)
            settings[key] = _FLAG_PARSERS[key](value) if key in _FLAG_PARSERS else value
        elif key in cfg:
            settings[key] = _from_sidecar(key, cfg[key], default)
        else:
            settings[key] = default
    return settings


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _stdin_bits(expected: int | None = None) -> np.ndarray:
    bits = bitstream.from_text(sys.stdin.read())
    if expected is not None and bits.size != expected:
        raise ValueError(f"expected {expected} input bits, got {bits.size}")
    return bits


def _spec_from_args(args):
    if args.spec is not None:
        return load(args.spec)
    return construct(DEFAULT_N, DEFAULT_K, DEFAULT_EPS)


def cmd_construct(args) -> int:
    spec = construct(args.N, args.K, args.eps)
    save(spec, args.out)
    _write_json(args.out + ".config.json",
                {"command": "construct", "N": args.N, "K": args.K, "eps": args.eps})
    print(f"wrote {args.out}: N={spec.N} K={spec.K} rate={spec.rate:.4f}")
    return 0


def cmd_scramble(args) -> int:
    spec = ScramblerSpec(poly_mask=args.poly, seed=args.seed)
    print(bitstream.to_text(scramble(spec, _stdin_bits())))
    return 0


def cmd_encode(args) -> int:
    spec = _spec_from_args(args)
    msg = _stdin_bits(spec.K)
    enc = encode_systematic if args.encoder == "systematic" else encode_nspe
    print(bitstream.to_text(enc(spec, msg)))
    return 0


def cmd_decode(args) -> int:
    spec = _spec_from_args(args)
    hard = _stdin_bits(spec.N)
    llr = np.where(hard == 0, np.inf, -np.inf)
    msg = sc_decode(spec, llr)
    out = encode_nspe(spec, msg) if args.emit_codeword else msg
    print(bitstream.to_text(out))
    return 0


def cmd_simulate_dist(args) -> int:
    st = _settings(args, DIST_DEFAULTS)
    for pair in st["sizes"]:
        if len(pair) != 2:
            raise ValueError(f"config setting 'sizes' must be [N, K] pairs, got {pair}")
    for enc in st["encoders"]:
        if enc not in ("nspe", "systematic"):
            raise ValueError(f"unknown encoder {enc!r}")
    if st["scramble"] not in ("on", "off", "both"):
        raise ValueError("scramble must be on, off or both")
    scramble_opts = ["on", "off"] if st["scramble"] == "both" else [st["scramble"]]
    p1, frames = st["p1"], st["frames"]

    def write_lines(name, lines):
        # the directory appears with the first file, so a rejected run leaves none
        os.makedirs(st["out_dir"], exist_ok=True)
        _write_lines(os.path.join(st["out_dir"], name), lines)

    scrambler = ScramblerSpec(poly_mask=st["poly"], seed=st["scrambler_seed"])
    summary = ["encoder,scramble,N,K,p1,frames,min,max,mean"]
    for n_bits, k_bits in st["sizes"]:
        spec = construct(n_bits, k_bits, st["eps"])
        for enc in st["encoders"]:
            for scr in scramble_opts:
                stats = run_dist_experiment(
                    spec, encoder=enc, scrambler=scrambler if scr == "on" else None, p1=p1,
                    frames=frames, master_seed=st["master_seed"])
                rows = ["frame_index,ones_fraction"]
                rows += [f"{i},{float(v)!r}" for i, v in enumerate(stats.samples)]
                write_lines(f"dist_{enc}_{scr}_{n_bits}x{k_bits}.csv", rows)
                summary.append(f"{enc},{scr},{n_bits},{k_bits},{p1!r},{frames},"
                               f"{stats.min!r},{stats.max!r},{stats.mean!r}")
                print(f"{enc} scramble={scr} ({n_bits},{k_bits}) p1={p1:g}: "
                      f"min={stats.min:.6f} max={stats.max:.6f} mean={stats.mean:.6f} "
                      f"max_run={stats.max_run_length}")
    write_lines("summary.csv", summary)
    _write_json(os.path.join(st["out_dir"], "config.json"), {"command": args.command, **st})
    return 0


def _make_link(name: str, n_bits: int, k_bits: int, eps: float,
               scrambler: ScramblerSpec, exact: bool):
    if name == "polar":
        return PolarLink(construct(n_bits, k_bits, eps), scrambler, exact=exact)
    if name.startswith("rs15_"):
        return RsLink(int(name.split("_")[1]), frame_bits=k_bits)
    return UncodedLink(frame_bits=k_bits)


def cmd_simulate_ber(args) -> int:
    st = _settings(args, BER_DEFAULTS)
    codes, sweeps = st["codes"], st["ebn0"]
    if isinstance(sweeps, list):  # --ebn0 gives every code the same sweep
        sweeps = dict.fromkeys(codes, sweeps)
    for name in codes:
        if name not in BER_CODES:
            raise ValueError(f"unknown code {name!r}; choose from {', '.join(BER_CODES)}")
        if name not in sweeps:
            raise ValueError(f"config setting 'ebn0' has no sweep for code {name!r}")
        if not all(map(math.isfinite, sweeps[name])):
            raise ValueError(f"config setting 'ebn0' for {name!r} is not finite: {sweeps[name]}")
    st["ebn0"] = {name: sweeps[name] for name in codes}
    out_dir = os.path.dirname(st["out"]) or "."
    if not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir!r} does not exist")

    scrambler = ScramblerSpec(poly_mask=st["poly"], seed=st["scrambler_seed"])
    rows = ["code,ebn0_db,bits,bit_errors,frames,frame_errors,ber"]
    for name in codes:
        link = _make_link(name, st["N"], st["K"], st["eps"], scrambler, st["exact_f"])
        points = run_ber_experiment(
            link, st["ebn0"][name], amplitude=st["amplitude"], min_errors=st["min_errors"],
            max_frames=st["max_frames"], master_seed=st["master_seed"], batch=st["batch"],
            workers=st["workers"])
        for p in points:
            rows.append(f"{name},{p.ebn0_db!r},{p.bits_sent},{p.bit_errors},"
                        f"{p.frames_sent},{p.frame_errors},{p.ber!r}")
            print(f"{name} {p.ebn0_db:g} dB: ber={p.ber:.3e} "
                  f"({p.bit_errors}/{p.bits_sent} bits, {p.frames_sent} frames)")
    _write_lines(st["out"], rows)
    _write_json(st["out"] + ".config.json", {"command": args.command, **st})
    return 0


def cmd_mftp(args) -> int:
    report = mftp_check(args.frame_bits, args.clock_hz)
    verdict = "yes" if report.compliant else "NO"
    print(
        f"frame_bits={report.frame_bits} clock_hz={report.clock_hz:g} "
        f"frame_time_ms={report.frame_time_s * 1e3:g} "
        f"limit_ms={report.limit_s * 1e3:g} compliant={verdict}"
    )
    return 0


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args returns a fresh Namespace each call
    parser = argparse.ArgumentParser(
        prog="beaconphy",
        description="DC-balanced channel coding experiments for beacon VLC links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code description JSON file")
    p.add_argument("--N", type=int, default=DEFAULT_N)
    p.add_argument("--K", type=int, default=DEFAULT_K)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS,
                   help="design erasure probability (default 0.5)")
    p.add_argument("--out", default="polar_spec.json")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("scramble", help="XOR stdin bits with the LFSR keystream")
    p.add_argument("--poly", type=_hex_int, default=DEFAULT_POLY,
                   help="characteristic polynomial mask in hex (default 19)")
    p.add_argument("--seed", type=_hex_int, default=DEFAULT_SEED,
                   help="nonzero register seed in hex (default f)")
    p.set_defaults(func=cmd_scramble)

    p = sub.add_parser("encode", help="encode K stdin bits to an N-bit codeword")
    p.add_argument("--spec", help="code description JSON (default: built-in 256:158)")
    p.add_argument("--encoder", choices=("nspe", "systematic"), default="nspe")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="SC-decode N hard stdin bits to K message bits")
    p.add_argument("--spec", help="code description JSON (default: built-in 256:158)")
    p.add_argument("--emit-codeword", action="store_true",
                   help="emit the re-encoded N-bit codeword instead of the message")
    p.set_defaults(func=cmd_decode)

    d = DIST_DEFAULTS
    p = sub.add_parser("simulate-dist", help="ones-density distribution experiment",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--sizes", help="comma list of N:K pairs (default 256:158)")
    p.add_argument("--encoders", help="comma list from {nspe,systematic} (default nspe)")
    p.add_argument("--scramble", choices=("on", "off", "both"),
                   help=f"scrambler setting (default {d['scramble']})")
    p.add_argument("--p1", type=float, help=f"message ones ratio (default {d['p1']})")
    p.add_argument("--frames", type=int, help=f"frames per configuration (default {d['frames']})")
    p.add_argument("--eps", type=float, help=f"construction design parameter (default {d['eps']})")
    p.add_argument("--poly", type=_hex_int, help="scrambler polynomial mask, hex")
    p.add_argument("--scrambler-seed", type=_hex_int, help="scrambler seed, hex")
    p.add_argument("--master-seed", type=int)
    p.add_argument("--out-dir", help=f"output directory (default {d['out_dir']})")
    p.add_argument("--config", default=None, help="rerun from a config sidecar")
    p.set_defaults(func=cmd_simulate_dist)

    d = BER_DEFAULTS
    p = sub.add_parser("simulate-ber", help="Monte-Carlo BER curves over OOK/AWGN",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--codes", help=f"comma list from {{{','.join(BER_CODES)}}} (default all)")
    p.add_argument("--ebn0", help="start:step:stop sweep in dB applied to every code "
                                  "(default: per-code sweep)")
    p.add_argument("--N", type=int, help=f"polar codeword length (default {d['N']})")
    p.add_argument("--K", type=int, help=f"message bits per frame (default {d['K']})")
    p.add_argument("--eps", type=float, help=f"construction design parameter (default {d['eps']})")
    p.add_argument("--poly", type=_hex_int, help="scrambler polynomial mask, hex")
    p.add_argument("--scrambler-seed", type=_hex_int, help="scrambler seed, hex")
    p.add_argument("--amplitude", type=float, help=f"OOK on-level (default {d['amplitude']})")
    p.add_argument("--min-errors", type=int,
                   help=f"bit errors collected per point (default {d['min_errors']})")
    p.add_argument("--max-frames", type=int,
                   help=f"frame cap per point (default {d['max_frames']})")
    p.add_argument("--batch", type=int, help=f"frames per work unit (default {d['batch']})")
    p.add_argument("--master-seed", type=int)
    p.add_argument("--workers", type=int, help="worker processes; never changes results")
    p.add_argument("--exact-f", action="store_true",
                   help="use the exact tanh check-node update instead of min-sum")
    p.add_argument("--out", help=f"output CSV path (default {d['out']})")
    p.add_argument("--config", default=None, help="rerun from a config sidecar")
    p.set_defaults(func=cmd_simulate_ber)

    p = sub.add_parser("mftp", help="frame time against the 5 ms flicker limit")
    p.add_argument("--frame-bits", type=int, default=DEFAULT_N)
    p.add_argument("--clock-hz", type=float, default=200e3)
    p.set_defaults(func=cmd_mftp)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
