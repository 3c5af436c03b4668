"""Run one beaconphy benchmark workload and print its metrics.

    python3 bench/run.py --workload dist-256 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the package is imported from the
checkout's src/ and nowhere else.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the same
rounds run untraced and then traced, and the metrics are per layer.

Times are in reference seconds (see speed.py).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 9                             # set-ups per run; setup_s is their median


def import_package():
    """Import beaconphy afresh from the checkout, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "beaconphy" or m.startswith("beaconphy.")]:
        del sys.modules[name]
    importlib.import_module("beaconphy.cli")
    bp = sys.modules["beaconphy"]
    if Path(bp.__file__).resolve().parent != (SRC / "beaconphy").resolve():
        raise RuntimeError(f"beaconphy was imported from {bp.__file__}, not from {SRC}")
    return bp


def timed_setups(wl, out_dir):
    """Import, construct, build the links and warm up, SETUPS times over."""
    seconds = []
    for _ in range(SETUPS):
        ctx, elapsed, kernel_s = speed.timed(lambda: wl.build(import_package(), out_dir))
        seconds.append(elapsed * speed.scale(kernel_s))
    return ctx, seconds


def timed_round(workload, r):
    """One round, with the mean time of kernels run just before and after it.

    Garbage left by the previous round is collected first, so that a round
    does not pay for its predecessor's objects.
    """
    gc.collect()
    rnd, _, kernel_s = speed.timed(lambda: workload.run_round(r))
    rnd.kernel_s = kernel_s
    return rnd


def reference_seconds(rounds) -> float:
    """Total program time of the rounds, scaled by their mean kernel time."""
    kernel_s = statistics.fmean(rnd.kernel_s for rnd in rounds)
    return sum(rnd.seconds for rnd in rounds) * speed.scale(kernel_s)


class Tally:
    """Operations attempted and failed, and every check that did not hold."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, workload, r):
        """One round plus its checks; returns the Round, or None if it raised."""
        try:
            rnd = timed_round(workload, r)
        except Exception as exc:  # a failing round is counted, and the run goes on
            self.attempted += workload.round_ops
            self.failed += workload.round_ops
            self.problems.append(f"{workload.name} round {r} failed: {exc!r}")
            return None
        self.count(rnd)
        self.check(workload.check_round, r, rnd)
        rnd.data = {}                  # keep memory flat however many rounds run
        return rnd

    def count(self, rnd):
        self.attempted += rnd.ops
        self.failed += rnd.failed

    def check(self, fn, *args):
        try:
            fn(*args)
        except self.wl.CheckFailed as exc:
            self.problems.append(str(exc))


def latency_metrics(np, rounds) -> dict:
    out = {}
    for name, key in (("polar", "rx_polar"), ("rs15_7", "rx_rs")):
        times = [x for rnd in rounds for x in rnd.latency[name]]
        p50, p99 = np.percentile(times, [50, 99]) * 1e6
        out[f"{key}_p50_us"], out[f"{key}_p99_us"] = (float(p50), "us"), (float(p99), "us")
    return out


def end_to_end(wl, cls, ctx, seed, seconds, tally, setups):
    workload = cls(ctx, seed)
    # Every run reports the receiver latencies.  rx-single takes them from its
    # own calls.  The other workloads run a fixed probe, min_rounds rounds of
    # rx-single, interleaved with their own rounds and paced to end at 80 % of
    # the run, so that the probe samples the whole run.  The probe's calls are
    # not counted as the workload's operations, and an exception in it ends
    # the run.
    receiver = None if isinstance(workload, wl.RxSingle) else wl.RxSingle(ctx, seed)
    rounds, probe, r = [], [], 0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or r < workload.min_rounds
           or (receiver and len(probe) < receiver.min_rounds)):
        rnd = tally.run(workload, r)
        if rnd:
            rounds.append(rnd)
        r += 1
        if receiver is None:
            continue
        due = receiver.min_rounds * min(1.0, (time.perf_counter() - start) / (0.8 * seconds))
        while len(probe) < due:
            probe.append(timed_round(receiver, len(probe)))
            tally.check(receiver.check_round, len(probe) - 1, probe[-1])
            probe[-1].data = {}
    if not rounds:
        raise RuntimeError("no round completed")
    probe = probe if receiver else rounds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.check(workload.finish)
    metrics = {
        "frames_per_s": (sum(r.frames for r in rounds) / reference_seconds(rounds), "frames/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    metrics.update(latency_metrics(wl.np, probe))
    calls = sum(len(rnd.latency["polar"]) for rnd in probe)
    print(f"{workload.name}: {len(rounds)} rounds, {sum(r.frames for r in rounds)} frames; "
          f"receiver latency over {calls} calls per link", file=sys.stderr)
    return metrics


def per_layer(wl, cls, ctx, seed, seconds, tally, trace_path):
    import oracles
    import trace

    np = wl.np
    n = max(1, round(seconds / 4 / cls.nominal_round_s))
    workload = cls(ctx, seed)
    plain = [tally.run(workload, r) for r in range(n)]
    tally.check(workload.finish)

    tracer = trace.Tracer()
    trace.install(tracer, ctx.bp)
    try:
        traced_workload = cls(wl.build(ctx.bp, ctx.out_dir), seed)
        traced = []
        for r in range(n):
            rnd = timed_round(traced_workload, r)
            tally.count(rnd)
            traced.append(rnd)
    finally:
        tracer.restore()
    for r, (a, b) in enumerate(zip(plain, traced)):
        if a is None or a.digest != b.digest:
            tally.problems.append(f"round {r}: traced output differs from the untraced output")
    tracer.write(trace_path)

    s = tracer.summary()
    counts = tracer.counts
    dirty = 0
    for k, blobs in tracer.rs_inputs.items():
        words = np.frombuffer(b"".join(blobs), dtype=np.uint8).reshape(-1, oracles.RS_N)
        dirty += int(oracles.rs_syndromes(words, oracles.RS_N - k).any(axis=1).sum())
    sc, rsd = s["polar_codec.sc_decode"], s["reed_solomon.rs_decode"]
    overhead = reference_seconds(traced) - reference_seconds([r for r in plain if r])
    return {
        "channel.rng_stream.calls": (s["channel.rng_stream"]["calls"], "count"),
        "channel.rng_stream.busy_s": (s["channel.rng_stream"]["busy_s"], "s"),
        "bitstream.max_run_length.calls": (s["bitstream.max_run_length"]["calls"], "count"),
        "bitstream.max_run_length.busy_s": (s["bitstream.max_run_length"]["busy_s"], "s"),
        "polar_codec.encode_nspe.busy_s": (s["polar_codec.encode_nspe"]["busy_s"], "s"),
        "polar_codec.encode_systematic.busy_s": (s["polar_codec.encode_systematic"]["busy_s"], "s"),
        "polar_codec.sc_decode.calls": (sc["calls"], "count"),
        "polar_codec.sc_decode.busy_s": (sc["busy_s"], "s"),
        "polar_codec.sc_decode.us_per_frame": (sc["busy_s"] / counts["sc_decode.frames"] * 1e6, "us"),
        "reed_solomon.rs_encode.calls": (s["reed_solomon.rs_encode"]["calls"], "count"),
        "reed_solomon.rs_encode.busy_s": (s["reed_solomon.rs_encode"]["busy_s"], "s"),
        "reed_solomon.rs_decode.calls": (rsd["calls"], "count"),
        "reed_solomon.rs_decode.busy_s": (rsd["busy_s"], "s"),
        "reed_solomon.rs_decode.us_per_block": (rsd["busy_s"] / rsd["calls"] * 1e6, "us"),
        "reed_solomon.rs_decode.failed": (counts["rs_decode.failed"], "count"),
        "reed_solomon.rs_decode.dirty_blocks": (dirty, "count"),
        "scrambler.keystream.calls": (s["scrambler.keystream"]["calls"], "count"),
        "scrambler.keystream.busy_s": (s["scrambler.keystream"]["busy_s"], "s"),
        "channel.modulate_ook.busy_s": (s["channel.modulate_ook"]["busy_s"], "s"),
        "channel.llr_demap.busy_s": (s["channel.llr_demap"]["busy_s"], "s"),
        "analysis.self_s": (s["analysis.run_dist_experiment"]["self_s"]
                            + s["analysis.run_ber_experiment"]["self_s"], "s"),
        "analysis.frames": (counts["analysis.frames"], "count"),
        "polar_construction.construct.busy_s": (s["polar_construction.construct"]["busy_s"], "s"),
        "cli.self_s": (s["cli.main"]["self_s"], "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "beaconphy" / "__init__.py").is_file():
        print(f"error: no beaconphy package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    tally = Tally(wl)
    cls = wl.WORKLOADS[args.workload]
    ctx, setups = timed_setups(wl, str(out_dir))
    if args.trace:
        trace_path = out_dir / f"trace_seed{args.seed}.json"
        metrics = per_layer(wl, cls, ctx, args.seed, args.seconds, tally, trace_path)
    else:
        metrics = end_to_end(wl, cls, ctx, args.seed, args.seconds, tally, setups)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
