"""Command-line entry points: code construction, pipeline stages, experiments.

Text bitstreams on stdin/stdout use '0'/'1' characters, index 0 first.
Each subcommand takes each setting, a row of its table in COMMANDS, from its
flag, else (for the two experiments) from the --config sidecar, else from the
row's default.  An experiment writes the resolved settings to a JSON sidecar
next to its output; re-running with --config <sidecar> reproduces the output
byte for byte (for simulate-ber, whatever --workers says).  Bad flags, paths,
configs and a dead simulate-ber worker exit 2 with an error line."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from concurrent.futures import BrokenExecutor

import numpy as np

from . import bitstream
from .analysis import (
    DEFAULT_FRAME_BITS as DEFAULT_K,
    DEFAULT_MASTER_SEED,
    DEFAULT_MAX_FRAMES,
    DEFAULT_MIN_ERRORS,
    ENCODERS,
    PolarLink,
    RsLink,
    UncodedLink,
    draw_messages,
    mftp_check,
    polar_encoder,
    run_ber_experiment,
    run_dist_experiment,
)
from .channel import ChannelParams
from .polar_codec import encode_nspe, sc_decode
from .polar_construction import PolarSpec, check_design, construct
from .scrambler import DEFAULT_POLY, DEFAULT_SEED, ScramblerSpec, scramble

DEFAULT_N = 256
DEFAULT_EPS = 0.5

# The BER codes and their default sweeps, chosen so every curve brackets BER
# 1e-4 under the default master seed, frame cap and 100-error stopping rule.
# The RS waterfalls are steep enough to need half-dB steps near the knee.
DEFAULT_SWEEPS = {"polar": "8:1:12", "rs15_11": "12:1:15", "rs15_7": "12:0.5:15.5",
                  "rs15_3": "15:0.5:17.5", "uncoded": "10:1:15"}
MAX_SWEEP_POINTS = 10_000  # the default sweeps have 5 to 8


def _hex_int(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise ValueError(f"not a hex value: {text!r}") from None


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
    steps = (stop - start) / step + 1e-9  # inf when the quotient overflows
    if not steps < MAX_SWEEP_POINTS:  # checked before any point is built
        raise ValueError(f"sweep has more than {MAX_SWEEP_POINTS} points")
    count = int(steps) + 1
    return [start + i * step for i in range(count)]


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# One row per setting of a subcommand, key: (default, parser of the flag's text, help).  The
# key is the sidecar's and, with '-' for '_', the flag's; a parser of None marks an on/off flag.
DIST_SETTINGS = {
    "sizes": ([[DEFAULT_N, DEFAULT_K]], _parse_sizes, "comma list of N:K pairs"),
    "encoders": (["nspe"], _parse_list, "comma list from {" + ",".join(ENCODERS) + "}"),
    "scramble": ("both", str, "scrambler setting: on, off or both"),
    "p1": (0.9, float, "message ones ratio"),
    "frames": (10000, int, "frames per configuration"),
    "eps": (DEFAULT_EPS, float, "construction design parameter"),
    "poly": (DEFAULT_POLY, _hex_int, "scrambler polynomial mask, hex"),
    "scrambler_seed": (DEFAULT_SEED, _hex_int, "scrambler seed, hex"),
    "master_seed": (DEFAULT_MASTER_SEED, int, "seed of every frame's random stream"),
    "out_dir": ("dist_out", str, "output directory"),
}
BER_SETTINGS = {
    "codes": (list(DEFAULT_SWEEPS), _parse_list, "comma list of codes"),
    "ebn0": ({name: _parse_sweep(text) for name, text in DEFAULT_SWEEPS.items()}, _parse_sweep,
             "start:step:stop sweep in dB applied to every code"),
    "N": (DEFAULT_N, int, "polar codeword length"),
    "K": (DEFAULT_K, int, "message bits per frame"),
    "eps": DIST_SETTINGS["eps"],
    "poly": DIST_SETTINGS["poly"],
    "scrambler_seed": DIST_SETTINGS["scrambler_seed"],
    "min_errors": (DEFAULT_MIN_ERRORS, int, "bit errors collected per point"),
    "max_frames": (DEFAULT_MAX_FRAMES, int, "frame cap per point"),
    "batch": (1000, int, "frames per work unit"),
    "master_seed": DIST_SETTINGS["master_seed"],
    "exact_f": (False, None, "use the exact tanh check-node update instead of min-sum"),
    "workers": (None, int, "worker processes; never changes results"),
    "out": ("ber.csv", str, "output CSV path"),
}
CONSTRUCT_SETTINGS = {
    "N": BER_SETTINGS["N"],
    "K": BER_SETTINGS["K"],
    "eps": DIST_SETTINGS["eps"],
    "out": ("polar_spec.json", str, "code description JSON path"),
}
SCRAMBLE_SETTINGS = {"poly": DIST_SETTINGS["poly"], "seed": DIST_SETTINGS["scrambler_seed"]}
ENCODE_SETTINGS = {
    "spec": (None, str, f"code description JSON (default: built-in {DEFAULT_N}:{DEFAULT_K})"),
    "encoder": ("nspe", str, " or ".join(ENCODERS)),
}
DECODE_SETTINGS = {
    "spec": ENCODE_SETTINGS["spec"],
    "emit_codeword": (False, None, "emit the re-encoded N-bit codeword instead of the message"),
}
MFTP_SETTINGS = {
    "frame_bits": (DEFAULT_N, int, "bits per frame"),
    "clock_hz": (200e3, float, "OOK clock rate in Hz"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _help(default, parse, text: str) -> str:
    """A row's help text, with its default shown as flag text."""
    if parse is _hex_int:
        default = f"{default:x}"
    elif isinstance(default, dict):  # ebn0: one sweep per code
        default = "per code: " + ", ".join(f"{k} {v}" for k, v in DEFAULT_SWEEPS.items())
    elif isinstance(default, list):
        default = ",".join(v if isinstance(v, str) else ":".join(map(str, v)) for v in default)
    return text if parse is None or default is None else f"{text} (default {default})"


def json_excerpt(value) -> str:
    """A rejected value's JSON text for a one-line error message: its first 60 characters."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else text[:60] + "..."


def _read_json(path, what: str) -> dict:
    """The JSON object a file holds; what names the file in error messages."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:  # json nests one Python call per level
            raise ValueError(f"{what} {path} is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path} is not a JSON object")
    return doc


def _from_sidecar(key: str, value, default, noun: str = "config setting"):
    """A JSON value checked, nested items too, against its default's JSON type."""
    # an int passes for a float, and for the worker count, whose default is None
    kinds = {float: (float, int), type(None): (type(None), int)}.get(type(default))
    if type(value) not in (kinds or (type(default),)):
        want = "int or null" if default is None else type(default).__name__
        raise ValueError(f"{noun} {key!r} must be {want}, got {json_excerpt(value)}")
    if isinstance(default, float):
        return float(value)
    if isinstance(value, list) and default:
        return [_from_sidecar(key, v, default[0], noun) for v in value]
    if isinstance(value, dict) and default:  # ebn0: one sweep per code
        return {k: _from_sidecar(key, v, [*default.values()][0], noun) for k, v in value.items()}
    return value


# The fields of a code description, each with an example of its JSON type; others are ignored.
_SPEC_FIELDS = {"n": 0, "N": 0, "K": 0, "eps": 0.0, "info_set": [0]}


def load_spec(path) -> PolarSpec:
    """The code a code description file stands for; a field of the wrong JSON type is rejected,
    never rounded."""
    doc, spec = _read_json(path, "code description"), {}
    for key, example in _SPEC_FIELDS.items():
        if key not in doc:
            raise ValueError(f"code description lacks field {key!r}")
        spec[key] = _from_sidecar(key, doc[key], example, "code description field")
    return PolarSpec(**spec)


# Keys older sidecars carry that no command reads, each with the one value at which such a sidecar
# still reruns byte for byte (None: any): simulate-dist's "workers", simulate-ber's OOK on-level.
RETIRED_KEYS = {"workers": None, "amplitude": 1.0}


def _settings(args, table: dict) -> dict:
    """Each setting from its flag's text if given, else from the --config sidecar, else its default.

    The one place flag text is parsed.  A sidecar of another command, or with a key not a
    setting, "command" or a retired key at its one value, is rejected."""
    cfg, path = {}, getattr(args, "config", None)  # only the experiments take --config
    if path:
        cfg = _read_json(path, "config")
        if cfg.get("command", args.command) != args.command:
            raise ValueError(f"config {path} is for {cfg['command']}, not {args.command}")
        for key in sorted(cfg.keys() - table.keys() - {"command"}):
            if key not in RETIRED_KEYS:
                raise ValueError(f"config setting {key!r} is not a {args.command} setting")
            want = RETIRED_KEYS[key]
            if want is not None and (isinstance(cfg[key], bool) or cfg[key] != want):
                raise ValueError(f"config setting {key!r} is retired and must be {want}, "
                                 f"got {json_excerpt(cfg[key])}")
    settings = {}
    for key, (default, parse, _) in table.items():
        if key in args:
            try:
                settings[key] = getattr(args, key) if parse is None else parse(getattr(args, key))
            except ValueError as exc:
                raise ValueError(f"argument {_flag(key)}: {exc}") from None
        elif key in cfg:
            settings[key] = _from_sidecar(key, cfg[key], default)
        else:
            settings[key] = default
    return settings


def _reject_empty_or_repeated(key: str, values: list) -> None:
    """A selection setting must name at least one entry and each entry once."""
    if not values:
        raise ValueError(f"setting {key!r} is empty")
    seen = set()
    for item in map(json.dumps, values):
        if item in seen:
            raise ValueError(f"setting {key!r} repeats {json_excerpt(json.loads(item))}")
        seen.add(item)


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _reject_directories(paths) -> None:
    for path in paths:
        if os.path.isdir(path):
            raise ValueError(f"output {path!r} is a directory")


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _stdin_bits(expected: int | None = None) -> np.ndarray:
    bits = bitstream.from_text(sys.stdin.read())
    if expected is not None and bits.size != expected:
        raise ValueError(f"expected {expected} input bits, got {bits.size}")
    return bits


def _spec(path):
    return construct(DEFAULT_N, DEFAULT_K, DEFAULT_EPS) if path is None else load_spec(path)


def cmd_construct(st) -> int:
    spec = construct(st["N"], st["K"], st["eps"])
    out = st.pop("out")  # the sidecar records the code, not where it was written
    _reject_directories((out, out + ".config.json"))
    _write_json(out, dataclasses.asdict(spec))
    _write_json(out + ".config.json", {"command": "construct", **st})
    print(f"wrote {out}: N={spec.N} K={spec.K} rate={spec.rate:.4f}")
    return 0


def cmd_scramble(st) -> int:
    spec = ScramblerSpec(poly_mask=st["poly"], seed=st["seed"])
    print(bitstream.to_text(scramble(spec, _stdin_bits())))
    return 0


def cmd_encode(st) -> int:
    enc = polar_encoder(st["encoder"])
    spec = _spec(st["spec"])
    print(bitstream.to_text(enc(spec, _stdin_bits(spec.K))))
    return 0


def cmd_decode(st) -> int:
    spec = _spec(st["spec"])
    msg = sc_decode(spec, np.where(_stdin_bits(spec.N) == 0, np.inf, -np.inf))
    out = encode_nspe(spec, msg) if st["emit_codeword"] else msg
    print(bitstream.to_text(out))
    return 0


def cmd_simulate_dist(st) -> int:
    for key in ("sizes", "encoders"):
        _reject_empty_or_repeated(key, st[key])
    for pair in st["sizes"]:
        if len(pair) != 2:
            raise ValueError(f"config setting 'sizes' must be [N, K] pairs, "
                             f"got {json_excerpt(pair)}")
    for enc in st["encoders"]:
        polar_encoder(enc)
    if st["scramble"] not in ("on", "off", "both"):
        raise ValueError("scramble must be on, off or both")
    scramble_opts = ["on", "off"] if st["scramble"] == "both" else [st["scramble"]]
    p1, frames = st["p1"], st["frames"]

    def write_lines(name, lines):
        # the directory appears with the first file, so a rejected run leaves none
        os.makedirs(st["out_dir"], exist_ok=True)
        _write_lines(os.path.join(st["out_dir"], name), lines)

    scrambler = ScramblerSpec(poly_mask=st["poly"], seed=st["scrambler_seed"])
    # every size is built and every output path checked before the first run
    specs = [construct(n_bits, k_bits, st["eps"]) for n_bits, k_bits in st["sizes"]]
    configs = [(enc, scr) for enc in st["encoders"] for scr in scramble_opts]
    names = [f"dist_{enc}_{scr}_{n_bits}x{k_bits}.csv"
             for n_bits, k_bits in st["sizes"] for enc, scr in configs]
    out_dir = parent = st["out_dir"]
    if not out_dir:
        raise ValueError("output path is empty")
    while parent and not os.path.exists(parent):  # makedirs needs a directory at the base
        parent = os.path.dirname(parent)
    if parent and not os.path.isdir(parent):
        raise ValueError(f"output directory {parent!r} is not a directory")
    _reject_directories(os.path.join(out_dir, n) for n in names + ["summary.csv", "config.json"])
    summary = ["encoder,scramble,N,K,p1,frames,min,max,mean"]
    names = iter(names)  # size by size, each size's in the order of configs
    for (n_bits, k_bits), spec in zip(st["sizes"], specs):
        # one draw per size: every configuration encodes the same messages
        msgs = draw_messages(frames, k_bits, p1, st["master_seed"])
        fractions = [repr(w / n_bits) for w in range(n_bits + 1)]
        for enc, scr in configs:
            name = next(names)
            stats = run_dist_experiment(spec, msgs, encoder=enc,
                                        scrambler=scrambler if scr == "on" else None)
            rows = ["frame_index,ones_fraction"]
            rows += [f"{i},{fractions[w]}" for i, w in enumerate(stats.weights.tolist())]
            write_lines(name, rows)
            summary.append(f"{enc},{scr},{n_bits},{k_bits},{p1!r},{frames},"
                           f"{stats.min!r},{stats.max!r},{stats.mean!r}")
            print(f"{enc} scramble={scr} ({n_bits},{k_bits}) p1={p1:g}: "
                  f"min={stats.min:.6f} max={stats.max:.6f} mean={stats.mean:.6f} "
                  f"max_run={stats.max_run_length}")
    write_lines("summary.csv", summary)
    _write_json(os.path.join(st["out_dir"], "config.json"), {"command": "simulate-dist", **st})
    return 0


def cmd_simulate_ber(st) -> int:
    codes, sweeps = st["codes"], st["ebn0"]
    _reject_empty_or_repeated("codes", codes)
    if isinstance(sweeps, list):  # --ebn0 gives every code the same sweep
        sweeps = dict.fromkeys(codes, sweeps)
    check_design(st["N"], st["eps"])  # the sidecar records both whatever the codes
    scrambler = ScramblerSpec(poly_mask=st["poly"], seed=st["scrambler_seed"])
    links = []  # every link is built before the first point, so a bad size loses no results
    for name in codes:
        if name not in DEFAULT_SWEEPS:
            raise ValueError(f"unknown code {name!r}; choose from {', '.join(DEFAULT_SWEEPS)}")
        if not sweeps.get(name):  # none, or an empty one from a sidecar
            raise ValueError(f"config setting 'ebn0' has no sweep for code {name!r}")
        if name == "polar":
            link = PolarLink(construct(st["N"], st["K"], st["eps"]), scrambler, exact=st["exact_f"])
        elif name.startswith("rs15_"):
            link = RsLink(int(name.split("_")[1]), frame_bits=st["K"])
        else:
            link = UncodedLink(frame_bits=st["K"])
        for db in sweeps[name]:  # the range rule lives in channel.py
            ChannelParams.from_ebn0_db(db, link.rate)
        links.append(link)
    st["ebn0"] = {name: sweeps[name] for name in codes}
    if not st["out"]:
        raise ValueError("output path is empty")
    out_dir = os.path.dirname(st["out"]) or "."
    if not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir!r} does not exist")
    _reject_directories((st["out"], st["out"] + ".config.json"))

    rows = ["code,ebn0_db,bits,bit_errors,frames,frame_errors,ber"]
    for name, link in zip(codes, links):
        points = run_ber_experiment(
            link, st["ebn0"][name], min_errors=st["min_errors"], max_frames=st["max_frames"],
            master_seed=st["master_seed"], batch=st["batch"], workers=st["workers"])
        for p in points:
            rows.append(f"{name},{p.ebn0_db!r},{p.bits_sent},{p.bit_errors},"
                        f"{p.frames_sent},{p.frame_errors},{p.ber!r}")
            print(f"{name} {p.ebn0_db:g} dB: ber={p.ber:.3e} "
                  f"({p.bit_errors}/{p.bits_sent} bits, {p.frames_sent} frames)")
    _write_lines(st["out"], rows)
    _write_json(st["out"] + ".config.json", {"command": "simulate-ber", **st})
    return 0


def cmd_mftp(st) -> int:
    report = mftp_check(st["frame_bits"], st["clock_hz"])
    verdict = "yes" if report.compliant else "NO"
    print(f"frame_bits={report.frame_bits} clock_hz={report.clock_hz:g} "
          f"frame_time_ms={report.frame_time_s * 1e3:g} "
          f"limit_ms={report.limit_s * 1e3:g} compliant={verdict}")
    return 0


# name: (settings table, command, help), in the order of the usage text
COMMANDS = {
    "construct": (CONSTRUCT_SETTINGS, cmd_construct, "build a code description JSON file"),
    "scramble": (SCRAMBLE_SETTINGS, cmd_scramble, "XOR stdin bits with the LFSR keystream"),
    "encode": (ENCODE_SETTINGS, cmd_encode, "encode K stdin bits to an N-bit codeword"),
    "decode": (DECODE_SETTINGS, cmd_decode, "SC-decode N hard stdin bits to K message bits"),
    "simulate-dist": (DIST_SETTINGS, cmd_simulate_dist, "ones-density distribution experiment"),
    "simulate-ber": (BER_SETTINGS, cmd_simulate_ber, "Monte-Carlo BER curves over OOK/AWGN"),
    "mftp": (MFTP_SETTINGS, cmd_mftp, "frame time against the 5 ms flicker limit"),
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args returns a fresh Namespace each call
    parser = argparse.ArgumentParser(
        prog="beaconphy",
        description="DC-balanced channel coding experiments for beacon VLC links",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (table, _, text) in COMMANDS.items():
        # a flag left out leaves no attribute, so _settings can tell it from a given one
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for key, (default, parse, help_text) in table.items():
            p.add_argument(_flag(key), action="store" if parse else "store_true",
                           help=_help(default, parse, help_text))
        if name.startswith("simulate-"):
            p.add_argument("--config", default=None, help="rerun from a config sidecar")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    table, command, _ = COMMANDS[args.command]
    try:
        return command(_settings(args, table))
    except (OSError, ValueError, MemoryError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
