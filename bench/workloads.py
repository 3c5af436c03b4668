"""The benchmark's workloads: inputs, one timed round, and output checks.

A workload runs in whole rounds.  Round r of a run with seed s feeds the
program master seed s * 10**6 + r (the cli workloads) or draws its inputs
from numpy's default_rng([s, r]) (the receiver), so rounds are independent
samples and the same seed gives the same inputs.  run_round times only the
calls into the program, in CPU seconds of this process, so time slices that
other processes take on a shared machine are not counted; check_round and
finish compare what the program returned with the reference computations in
oracles.py.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

import oracles
import speed

N, K, EPS = 256, 158, 0.5
P1 = 0.9
SCRAMBLER_POLY, SCRAMBLER_SEED = 0b11001, 0b1111
RX_POINTS = {"polar": 10.5, "rs15_7": 15.0}
RX_KERNEL_LOOPS = 2000                 # kernel between consecutive single decode calls


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Round:
    """One round: seconds spent in the program, frames through the chain,
    operations attempted and failed, a digest of the outputs, the outputs
    the checks need, and per link the reference seconds of each single
    decode call.  The harness sets kernel_s, the mean kernel time around the
    round."""

    seconds: float
    frames: int
    digest: str
    data: dict = field(default_factory=dict)
    ops: int = 0
    failed: int = 0
    latency: dict = field(default_factory=dict)
    kernel_s: float = 0.0

    def __post_init__(self):
        self.ops = self.ops or self.frames


def master_seed(seed: int, r: int) -> int:
    return seed * 10**6 + r


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


def call_cli(bp, argv) -> float:
    """Run the cli in-process with its stdout discarded; returns the seconds taken."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = speed.clock()
        code = bp.cli.main(argv)
        seconds = speed.clock() - start
    if code != 0:
        raise RuntimeError(f"beaconphy {argv[0]} exited with {code}")
    return seconds


# --- set-up shared by every workload ------------------------------------------

@dataclass
class Context:
    bp: object
    spec: object
    links: dict
    params: dict
    out_dir: str


def build(bp, out_dir: str) -> Context:
    """Construct the code, build the receiver links, warm up each entry point."""
    analysis = bp.analysis
    spec = bp.polar_construction.construct(N, K, EPS)
    links = {"polar": analysis.PolarLink(spec), "rs15_7": analysis.RsLink(7)}
    params = {name: bp.channel.ChannelParams.from_ebn0_db(RX_POINTS[name], link.rate)
              for name, link in links.items()}
    warm = os.path.join(out_dir, "warm")
    call_cli(bp, ["simulate-dist", "--encoders", "nspe,systematic", "--frames", "2",
                  "--master-seed", "1", "--out-dir", warm])
    call_cli(bp, ["simulate-ber", "--codes", "polar,rs15_11,rs15_7,rs15_3", "--ebn0", "10:1:10",
                  "--max-frames", "1", "--batch", "1", "--workers", "1", "--master-seed", "1",
                  "--out", os.path.join(warm, "ber.csv")])
    for name, link in links.items():
        link.decode(link.encode(np.zeros((1, K), dtype=np.uint8)).astype(np.float64), params[name])
    return Context(bp, spec, links, params, out_dir)


# --- dist-256 ------------------------------------------------------------------

class Dist256:
    """simulate-dist at (256,158), p1 = 0.9, NSPE and systematic, scrambled and not.

    Operations are the frames plus the four per-frame CSV files of a round.
    A file whose ones_fraction column holds a numpy repr such as
    ``np.float64(0.5)`` instead of a plain number is a failed operation; the
    value inside is still read, so the frame checks keep running.
    """

    name = "dist-256"
    nominal_round_s = 0.15
    min_rounds = 1
    frames = 500                       # per configuration; four configurations per round
    configs = [(enc, scr) for enc in ("nspe", "systematic") for scr in ("on", "off")]
    round_frames = len(configs) * frames
    round_ops = round_frames + len(configs)
    numpy_repr = re.compile(r"np\.float64\((.*)\)")

    def __init__(self, ctx: Context, seed: int):
        self.ctx, self.seed = ctx, seed
        self.dir = os.path.join(ctx.out_dir, "dist")
        self.weights = {("nspe", "on"): [], ("nspe", "off"): []}

    def run_round(self, r: int) -> Round:
        seconds = call_cli(self.ctx.bp, [
            "simulate-dist", "--sizes", f"{N}:{K}", "--encoders", "nspe,systematic",
            "--scramble", "both", "--p1", str(P1), "--frames", str(self.frames),
            "--master-seed", str(master_seed(self.seed, r)), "--out-dir", self.dir])
        names = [f"dist_{enc}_{scr}_{N}x{K}.csv" for enc, scr in self.configs] + ["summary.csv"]
        digest = digest_files(os.path.join(self.dir, n) for n in names)
        data, malformed = {}, 0
        for enc, scr in self.configs:
            rows = read_csv(os.path.join(self.dir, f"dist_{enc}_{scr}_{N}x{K}.csv"))
            text = [row["ones_fraction"] for row in rows]
            wrapped = [self.numpy_repr.fullmatch(v) for v in text]
            malformed += any(wrapped)
            data[(enc, scr)] = (rows, [m.group(1) if m else v for m, v in zip(wrapped, text)])
        return Round(seconds, self.round_frames, digest, data, self.round_ops, malformed)

    def check_round(self, r: int, rnd: Round) -> None:
        summary = {(row["encoder"], row["scramble"]): row
                   for row in read_csv(os.path.join(self.dir, "summary.csv"))}
        require(sorted(summary) == sorted(self.configs), f"summary rows {sorted(summary)}")
        for enc, scr in self.configs:
            rows, fractions = rnd.data[(enc, scr)]
            require(len(rows) == self.frames and int(rows[-1]["frame_index"]) == self.frames - 1,
                    f"{enc}/{scr}: {len(rows)} frames written")
            scaled = [float(v) * N for v in fractions]
            require(all(v.is_integer() for v in scaled),
                    f"{enc}/{scr}: a ones fraction is not a multiple of 1/{N}")
            w = np.array(scaled, dtype=np.int64)
            row = summary[(enc, scr)]
            require(float(row["min"]) == w.min() / N and float(row["max"]) == w.max() / N,
                    f"{enc}/{scr}: summary min/max {row['min']}/{row['max']} differ from the frames")
            require(float(row["mean"]) == int(w.sum()) / (self.frames * N),
                    f"{enc}/{scr}: summary mean {row['mean']} differs from the frames")
            if (enc, scr) in self.weights:
                self.weights[(enc, scr)].append(w)

    def finish(self) -> None:
        keystream = oracles.lfsr_keystream(SCRAMBLER_POLY, SCRAMBLER_SEED, K)
        for (enc, scr), parts in self.weights.items():
            if not parts:
                continue
            p_one = np.where(keystream == 1, 1.0 - P1, P1) if scr == "on" else np.full(K, P1)
            mean, sd = oracles.ones_density_moments(self.ctx.spec.info_set, N, p_one)
            frac = np.concatenate(parts) / N
            n, s = frac.size, frac.std(ddof=1)
            # the sd's standard error from the sample's own fourth moment,
            # since the frame weight is not normal
            m4 = np.mean((frac - frac.mean()) ** 4)
            z_mean = (frac.mean() - mean) / (sd / math.sqrt(n))
            z_sd = (s - sd) / (math.sqrt((m4 - s**4) / n) / (2 * s))
            require(abs(z_mean) <= 5 and abs(z_sd) <= 5,
                    f"{enc}/{scr}: mean {frac.mean():.6f} (z {z_mean:+.2f}) sd {s:.6f} "
                    f"(z {z_sd:+.2f}) against exact {mean:.6f} / {sd:.6f} over {n} frames")


# --- ber-polar and ber-rs -------------------------------------------------------

class _BerWorkload:
    """simulate-ber at fixed Eb/N0 points, each run to a fixed frame count.

    Each point is its own cli call, so the sweep's stop after a point with no
    errors can never skip one, and the error stop is set beyond the frame
    count times K, so it never fires: the work in a round does not depend on
    the seed.
    """

    points: dict[str, list[float]]
    frames: int
    min_rounds = 1

    def __init__(self, ctx: Context, seed: int):
        self.ctx, self.seed = ctx, seed
        self.dir = os.path.join(ctx.out_dir, self.name)
        os.makedirs(self.dir, exist_ok=True)
        self.totals = {(code, db): [0, 0, 0] for code, pts in self.points.items() for db in pts}
        self.round_frames = self.round_ops = len(self.totals) * self.frames

    def out(self, code: str, db: float) -> str:
        return os.path.join(self.dir, f"ber_{code}_{db}.csv")

    def run_round(self, r: int) -> Round:
        seconds = 0.0
        for code, db in self.totals:
            seconds += call_cli(self.ctx.bp, [
                "simulate-ber", "--codes", code, "--ebn0", f"{db}:1:{db}",
                "--max-frames", str(self.frames), "--batch", str(self.frames),
                "--min-errors", str(self.frames * K + 1), "--workers", "1",
                "--master-seed", str(master_seed(self.seed, r)), "--out", self.out(code, db)])
        digest = digest_files(self.out(code, db) for code, db in self.totals)
        return Round(seconds, self.round_frames, digest)

    def check_round(self, r: int, rnd: Round) -> None:
        for key in self.totals:
            rows = read_csv(self.out(*key))
            require(len(rows) == 1 and (rows[0]["code"], float(rows[0]["ebn0_db"])) == key,
                    f"{key}: rows {rows}")
            row = rows[0]
            bits, errors = int(row["bits"]), int(row["bit_errors"])
            frames, frame_errors = int(row["frames"]), int(row["frame_errors"])
            require(frames == self.frames and bits == frames * K,
                    f"{key}: {frames} frames and {bits} bits, expected {self.frames} x {K}")
            require(0 <= frame_errors <= min(frames, errors) and errors <= frame_errors * K,
                    f"{key}: {frame_errors} frame errors against {errors} bit errors")
            require(float(row["ber"]) == errors / bits, f"{key}: ber column {row['ber']}")
            total = self.totals[key]
            total[0] += frames
            total[1] += errors
            total[2] += frame_errors


class BerPolar(_BerWorkload):
    """simulate-ber --codes polar at 9.5 and 10.5 dB, around the 1e-4 crossing."""

    name = "ber-polar"
    nominal_round_s = 0.1
    points = {"polar": [9.5, 10.5]}
    frames = 500
    reference_frames = 48              # per point, decoded by the scalar reference

    def finish(self) -> None:
        for (code, db), (frames, errors, _) in self.totals.items():
            if frames:
                ber, bound = errors / (frames * K), oracles.uncoded_ber(db)
                require(ber < bound, f"{code} {db} dB: BER {ber:.3e} not below uncoded {bound:.3e}")
        self.check_sc_decode()

    def check_sc_decode(self) -> None:
        """sc_decode against the scalar reference on frames drawn like the workload's."""
        spec = self.ctx.spec
        frozen = ~self.ctx.spec.info_mask()
        keystream = oracles.lfsr_keystream(SCRAMBLER_POLY, SCRAMBLER_SEED, K)
        rng = np.random.default_rng([self.seed, 0x5C])
        link = self.ctx.links["polar"]
        for db in self.points["polar"]:
            msgs = rng.integers(0, 2, (self.reference_frames, K), dtype=np.uint8)
            x = oracles.encode_subset(spec.info_set, N, msgs ^ keystream)
            require(np.array_equal(link.encode(msgs), x), f"{db} dB: PolarLink.encode differs "
                    "from the subset-rule encoder")
            sigma = oracles.ook_sigma(db, K / N)
            llr = oracles.ook_llr(x + rng.normal(0.0, sigma, x.shape), 1.0, sigma)
            got = self.ctx.bp.polar_codec.sc_decode(spec, llr)
            ref = np.array([oracles.sc_decode_reference(row, frozen) for row in llr])
            bad = np.flatnonzero((got != ref[:, spec.info_indices()]).any(axis=1))
            require(bad.size == 0, f"{db} dB: sc_decode differs from the reference on "
                    f"{bad.size} of {len(llr)} frames")


class BerRs(_BerWorkload):
    """simulate-ber over rs15_11/7/3, each below its crossing and at it."""

    name = "ber-rs"
    nominal_round_s = 0.2
    points = {"rs15_11": [12.0, 14.5], "rs15_7": [12.0, 15.0], "rs15_3": [14.5, 17.0]}
    frames = 40
    alpha = 1e-7                       # per-tail significance of the frame-error check

    def finish(self) -> None:
        for (code, db), (frames, _, frame_errors) in self.totals.items():
            if not frames:
                continue
            k = int(code.split("_")[1])
            fer = oracles.rs_frame_error_rate(db, k)
            low, high = oracles.binomial_tails(frame_errors, frames, fer)
            require(min(low, high) >= self.alpha,
                    f"{code} {db} dB: {frame_errors}/{frames} frame errors against analytic "
                    f"FER {fer:.4g} (tails {low:.2g}, {high:.2g})")


# --- rx-single -----------------------------------------------------------------

class RxSingle:
    """One frame per decode call through PolarLink and RsLink(7), as a receiver does."""

    name = "rx-single"
    nominal_round_s = 0.07
    frames = 10                        # per link per round, so the speed scale is fresh
    min_rounds = 100                   # 1000 calls per link, ten beyond the p99
    round_frames = round_ops = 2 * frames

    def __init__(self, ctx: Context, seed: int):
        self.ctx, self.seed = ctx, seed
        for name, link in ctx.links.items():
            sigma = oracles.ook_sigma(RX_POINTS[name], link.frame_bits / link.tx_bits)
            require(abs(ctx.params[name].sigma - sigma) < 1e-12,
                    f"{name}: channel sigma {ctx.params[name].sigma} against {sigma}")

    def run_round(self, r: int) -> Round:
        rng = np.random.default_rng([self.seed, r])
        links, params = self.ctx.links, self.ctx.params
        data, latency = {}, {name: [] for name in links}
        for name, link in links.items():
            msgs = rng.integers(0, 2, (self.frames, K), dtype=np.uint8)
            tx = link.encode(msgs)
            y = tx + rng.normal(0.0, params[name].sigma, tx.shape)
            data[name] = {"msgs": msgs, "tx": tx, "y": y, "hat": [], "failed": []}
        seconds = 0.0
        kernel_s = speed.kernel(RX_KERNEL_LOOPS)
        for i in range(self.frames):
            for name, link in links.items():
                d = data[name]
                start = speed.clock()
                hat, failed = link.decode(d["y"][i : i + 1], params[name])
                elapsed = speed.clock() - start
                after = speed.kernel(RX_KERNEL_LOOPS)
                seconds += elapsed
                latency[name].append(elapsed * speed.scale((kernel_s + after) / 2, RX_KERNEL_LOOPS))
                kernel_s = after
                d["hat"].append(hat[0])
                d["failed"].append(bool(failed[0]))
        h = hashlib.sha256()
        for d in data.values():
            d["hat"], d["failed"] = np.array(d["hat"]), np.array(d["failed"])
            h.update(d["hat"].tobytes() + d["failed"].tobytes())
        return Round(seconds, self.round_frames, h.hexdigest(), data, latency=latency)

    def check_round(self, r: int, rnd: Round) -> None:
        links, params = self.ctx.links, self.ctx.params
        for name, d in rnd.data.items():
            hat, failed = links[name].decode(d["y"], params[name])
            require(np.array_equal(hat, d["hat"]) and np.array_equal(failed, d["failed"]),
                    f"{name}: single-call decisions differ from the batched ones")
        d, k = rnd.data["rs15_7"], 7
        words = oracles.symbols_from_bits(d["tx"]).reshape(-1, oracles.RS_N)
        require(not oracles.rs_syndromes(words, oracles.RS_N - k).any(),
                "rs15_7: a transmitted block is not a codeword")
        hard = (d["y"] > 0.5).astype(np.uint8)
        t = (oracles.RS_N - k) // 2
        within = (oracles.symbol_errors_per_block(d["tx"], hard) <= t).all(axis=1)
        ok = ~d["failed"] & (d["hat"] == d["msgs"]).all(axis=1)
        require(ok[within].all(), f"rs15_7: {int((~ok[within]).sum())} of {int(within.sum())} "
                "frames with at most t symbol errors per block did not decode to their message")

    def finish(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Dist256, BerPolar, BerRs, RxSingle)}
