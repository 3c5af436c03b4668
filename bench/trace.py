"""Span tracing of beaconphy from outside the package.

A Tracer replaces a function by a wrapper under the name its caller looks
up (for example ``beaconphy.analysis.sc_decode``), records one span per call
(name, start, end, parent span) in memory, and restores every name when
the traced phase ends.  Self time is derived from the spans afterwards.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.rs_inputs: dict[int, list[bytes]] = defaultdict(list)

    def patch(self, owner, attr: str, span_name: str, after=None) -> None:
        """Wrap owner.attr; after(args, result) runs once the span has closed."""
        original = getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(span_name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, (name_id, start, end, _) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def install(tracer: Tracer, bp) -> None:
    """Wrap the public functions of each layer where their callers look them up."""
    cli, analysis, channel = bp.cli, bp.analysis, bp.channel
    counts = tracer.counts

    def count_frames(args, decided):
        counts["sc_decode.frames"] += 1 if np.ndim(decided) == 1 else len(decided)

    def rs_decoded(args, result):
        tracer.rs_inputs[args[0].k].append(np.asarray(args[1], dtype=np.uint8).tobytes())
        counts["rs_decode.failed"] += result is None

    def dist_frames(args, stats):
        counts["analysis.frames"] += stats.frames

    def ber_frames(args, points):
        counts["analysis.frames"] += sum(p.frames_sent for p in points)

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "run_dist_experiment", "analysis.run_dist_experiment", dist_frames)
    tracer.patch(cli, "run_ber_experiment", "analysis.run_ber_experiment", ber_frames)
    tracer.patch(cli, "construct", "polar_construction.construct")
    tracer.patch(bp.polar_construction, "construct", "polar_construction.construct")
    tracer.patch(channel.RngStream, "generator", "channel.rng_stream")
    tracer.patch(analysis.bitstream, "max_run_length", "bitstream.max_run_length")
    tracer.patch(analysis, "encode_nspe", "polar_codec.encode_nspe")
    tracer.patch(analysis, "encode_systematic", "polar_codec.encode_systematic")
    tracer.patch(analysis, "sc_decode", "polar_codec.sc_decode", count_frames)
    tracer.patch(analysis, "rs_encode", "reed_solomon.rs_encode")
    tracer.patch(analysis, "rs_decode", "reed_solomon.rs_decode", rs_decoded)
    tracer.patch(analysis, "keystream", "scrambler.keystream")
    tracer.patch(analysis, "modulate_ook", "channel.modulate_ook")
    tracer.patch(analysis, "llr_demap", "channel.llr_demap")
