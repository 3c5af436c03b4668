"""Command-line entry points: code construction, pipeline stages, experiments.

Text bitstreams on stdin/stdout use '0'/'1' characters, index 0 first.
Experiment subcommands write their fully resolved configuration to a JSON
sidecar next to the output; re-running with --config <sidecar> reproduces
the output byte for byte (for simulate-ber, whatever --workers says).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import bitstream
from .analysis import (
    DEFAULT_MASTER_SEED,
    InputBiasModel,
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
    except ValueError:
        raise ValueError(f"bad sweep {text!r}, expected start:step:stop")
    if step <= 0 or stop < start:
        raise ValueError("sweep needs step > 0 and stop >= start")
    count = int((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(count)]


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_config(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _resolve(cli_value, cfg: dict | None, key: str, default):
    if cli_value is not None:
        return cli_value
    if cfg is not None and key in cfg:
        return cfg[key]
    return default


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
    cfg = _load_config(args.config) if args.config else None
    sizes = _resolve(_parse_sizes(args.sizes) if args.sizes else None, cfg, "sizes",
                     [[DEFAULT_N, DEFAULT_K]])
    encoders = _resolve(_parse_list(args.encoders) if args.encoders else None, cfg,
                        "encoders", ["nspe"])
    scramble_mode = _resolve(args.scramble, cfg, "scramble", "both")
    p1 = _resolve(args.p1, cfg, "p1", 0.9)
    frames = _resolve(args.frames, cfg, "frames", 10000)
    eps = _resolve(args.eps, cfg, "eps", DEFAULT_EPS)
    poly = _resolve(args.poly, cfg, "poly", DEFAULT_POLY)
    scr_seed = _resolve(args.scrambler_seed, cfg, "scrambler_seed", DEFAULT_SEED)
    master_seed = _resolve(args.master_seed, cfg, "master_seed", DEFAULT_MASTER_SEED)
    out_dir = _resolve(args.out_dir, cfg, "out_dir", "dist_out")

    for enc in encoders:
        if enc not in ("nspe", "systematic"):
            raise ValueError(f"unknown encoder {enc!r}")
    if scramble_mode not in ("on", "off", "both"):
        raise ValueError("scramble must be on, off or both")
    scramble_opts = ["on", "off"] if scramble_mode == "both" else [scramble_mode]

    def write_lines(name, lines):
        # the directory appears with the first file, so a rejected run leaves none
        os.makedirs(out_dir, exist_ok=True)
        _write_lines(os.path.join(out_dir, name), lines)

    scrambler = ScramblerSpec(poly_mask=poly, seed=scr_seed)
    summary = ["encoder,scramble,N,K,p1,frames,min,max,mean"]
    for n_bits, k_bits in sizes:
        spec = construct(n_bits, k_bits, eps)
        for enc in encoders:
            for scr in scramble_opts:
                stats = run_dist_experiment(
                    spec,
                    encoder=enc,
                    scrambled=(scr == "on"),
                    bias=InputBiasModel(p1),
                    frames=frames,
                    master_seed=master_seed,
                    scrambler=scrambler,
                )
                rows = ["frame_index,ones_fraction"]
                rows += [f"{i},{float(v)!r}" for i, v in enumerate(stats.samples)]
                write_lines(f"dist_{enc}_{scr}_{n_bits}x{k_bits}.csv", rows)
                summary.append(
                    f"{enc},{scr},{n_bits},{k_bits},{p1!r},{frames},"
                    f"{stats.min!r},{stats.max!r},{stats.mean!r}"
                )
                print(
                    f"{enc} scramble={scr} ({n_bits},{k_bits}) p1={p1:g}: "
                    f"min={stats.min:.6f} max={stats.max:.6f} mean={stats.mean:.6f} "
                    f"max_run={stats.max_run_length}"
                )
    write_lines("summary.csv", summary)
    _write_json(
        os.path.join(out_dir, "config.json"),
        {
            "command": "simulate-dist",
            "sizes": sizes,
            "encoders": encoders,
            "scramble": scramble_mode,
            "p1": p1,
            "frames": frames,
            "eps": eps,
            "poly": poly,
            "scrambler_seed": scr_seed,
            "master_seed": master_seed,
            "out_dir": out_dir,
        },
    )
    return 0


def _make_link(name: str, n_bits: int, k_bits: int, eps: float,
               scrambler: ScramblerSpec, exact: bool):
    if name == "polar":
        return PolarLink(construct(n_bits, k_bits, eps), scrambler, exact=exact)
    if name.startswith("rs15_"):
        return RsLink(int(name.split("_")[1]), frame_bits=k_bits)
    if name == "uncoded":
        return UncodedLink(frame_bits=k_bits)
    raise ValueError(f"unknown code {name!r}")


def cmd_simulate_ber(args) -> int:
    cfg = _load_config(args.config) if args.config else None
    codes = _resolve(_parse_list(args.codes) if args.codes else None, cfg, "codes",
                     list(BER_CODES))
    for name in codes:
        if name not in BER_CODES:
            raise ValueError(f"unknown code {name!r}; choose from {', '.join(BER_CODES)}")
    n_bits = _resolve(args.N, cfg, "N", DEFAULT_N)
    k_bits = _resolve(args.K, cfg, "K", DEFAULT_K)
    eps = _resolve(args.eps, cfg, "eps", DEFAULT_EPS)
    poly = _resolve(args.poly, cfg, "poly", DEFAULT_POLY)
    scr_seed = _resolve(args.scrambler_seed, cfg, "scrambler_seed", DEFAULT_SEED)
    amplitude = _resolve(args.amplitude, cfg, "amplitude", 1.0)
    min_errors = _resolve(args.min_errors, cfg, "min_errors", 100)
    max_frames = _resolve(args.max_frames, cfg, "max_frames", DEFAULT_MAX_FRAMES)
    batch = _resolve(args.batch, cfg, "batch", 1000)
    master_seed = _resolve(args.master_seed, cfg, "master_seed", DEFAULT_MASTER_SEED)
    exact = _resolve(args.exact_f or None, cfg, "exact_f", False)
    workers = _resolve(args.workers, cfg, "workers", None)
    out = _resolve(args.out, cfg, "out", "ber.csv")

    if args.ebn0:
        sweep = _parse_sweep(args.ebn0)
        ebn0 = {name: sweep for name in codes}
    elif cfg is not None and "ebn0" in cfg:
        ebn0 = {name: list(cfg["ebn0"][name]) for name in codes}
    else:
        ebn0 = {name: _parse_sweep(DEFAULT_SWEEPS[name]) for name in codes}

    scrambler = ScramblerSpec(poly_mask=poly, seed=scr_seed)
    rows = ["code,ebn0_db,bits,bit_errors,frames,frame_errors,ber"]
    for name in codes:
        link = _make_link(name, n_bits, k_bits, eps, scrambler, exact)
        points = run_ber_experiment(
            link,
            ebn0[name],
            amplitude=amplitude,
            min_errors=min_errors,
            max_frames=max_frames,
            master_seed=master_seed,
            batch=batch,
            workers=workers,
        )
        for p in points:
            rows.append(
                f"{name},{p.ebn0_db!r},{p.bits_sent},{p.bit_errors},"
                f"{p.frames_sent},{p.frame_errors},{p.ber!r}"
            )
            print(f"{name} {p.ebn0_db:g} dB: ber={p.ber:.3e} "
                  f"({p.bit_errors}/{p.bits_sent} bits, {p.frames_sent} frames)")
    _write_lines(out, rows)
    _write_json(
        out + ".config.json",
        {
            "command": "simulate-ber",
            "codes": codes,
            "ebn0": ebn0,
            "N": n_bits,
            "K": k_bits,
            "eps": eps,
            "poly": poly,
            "scrambler_seed": scr_seed,
            "amplitude": amplitude,
            "min_errors": min_errors,
            "max_frames": max_frames,
            "batch": batch,
            "master_seed": master_seed,
            "exact_f": exact,
            "workers": workers,
            "out": out,
        },
    )
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

    p = sub.add_parser("simulate-dist", help="ones-density distribution experiment")
    p.add_argument("--sizes", help="comma list of N:K pairs (default 256:158)")
    p.add_argument("--encoders", help="comma list from {nspe,systematic} (default nspe)")
    p.add_argument("--scramble", choices=("on", "off", "both"),
                   help="scrambler setting (default both)")
    p.add_argument("--p1", type=float, help="message ones ratio (default 0.9)")
    p.add_argument("--frames", type=int, help="frames per configuration (default 10000)")
    p.add_argument("--eps", type=float, help="construction design parameter (default 0.5)")
    p.add_argument("--poly", type=_hex_int, help="scrambler polynomial mask, hex")
    p.add_argument("--scrambler-seed", type=_hex_int, help="scrambler seed, hex")
    p.add_argument("--master-seed", type=int)
    p.add_argument("--out-dir", help="output directory (default dist_out)")
    p.add_argument("--config", help="rerun from a config sidecar")
    p.set_defaults(func=cmd_simulate_dist)

    p = sub.add_parser("simulate-ber", help="Monte-Carlo BER curves over OOK/AWGN")
    p.add_argument("--codes", help=f"comma list from {{{','.join(BER_CODES)}}} (default all)")
    p.add_argument("--ebn0", help="start:step:stop sweep in dB applied to every code "
                                  "(default: per-code sweep)")
    p.add_argument("--N", type=int, help="polar codeword length (default 256)")
    p.add_argument("--K", type=int, help="message bits per frame (default 158)")
    p.add_argument("--eps", type=float, help="construction design parameter (default 0.5)")
    p.add_argument("--poly", type=_hex_int, help="scrambler polynomial mask, hex")
    p.add_argument("--scrambler-seed", type=_hex_int, help="scrambler seed, hex")
    p.add_argument("--amplitude", type=float, help="OOK on-level (default 1.0)")
    p.add_argument("--min-errors", type=int, help="bit errors collected per point (default 100)")
    p.add_argument("--max-frames", type=int, help="frame cap per point (default 200000)")
    p.add_argument("--batch", type=int, help="frames per work unit (default 1000)")
    p.add_argument("--master-seed", type=int)
    p.add_argument("--workers", type=int, help="worker processes; never changes results")
    p.add_argument("--exact-f", action="store_true",
                   help="use the exact tanh check-node update instead of min-sum")
    p.add_argument("--out", help="output CSV path (default ber.csv)")
    p.add_argument("--config", help="rerun from a config sidecar")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
