"""Command-line interface tests: pipelines, experiments, reproducibility."""

import concurrent.futures
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from beaconphy import analysis, cli, reed_solomon
from beaconphy.cli import load_spec
from beaconphy.polar_codec import encode_nspe
from beaconphy.polar_construction import construct
from beaconphy.reed_solomon import rs_encode
from beaconphy.scrambler import ScramblerSpec, keystream


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    """Invoke the entry point; returns (exit_code, stdout, stderr)."""
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


OVER_LONG_SWEEPS = ["0:1:10000", "0:1e-300:1", "0:5e-324:1", "-1e308:1:1e308"]


def test_parse_sweep():
    assert cli._parse_sweep("6:1:8") == [6.0, 7.0, 8.0]
    assert cli._parse_sweep("0:0.5:1") == [0.0, 0.5, 1.0]
    assert cli._parse_sweep("3:2:3") == [3.0]
    with pytest.raises(ValueError):
        cli._parse_sweep("5:0:6")
    with pytest.raises(ValueError):
        cli._parse_sweep("5:1")
    with pytest.raises(ValueError):
        cli._parse_sweep("8:1:5")
    for text in ("0:inf:12", "0:1:inf", "nan:1:3", "-inf:1:3"):
        with pytest.raises(ValueError, match="bad sweep"):
            cli._parse_sweep(text)
    assert len(cli._parse_sweep("0:1:9999")) == cli.MAX_SWEEP_POINTS
    # rejected before any point is built: most of these would not fit in memory
    for text in OVER_LONG_SWEEPS:
        with pytest.raises(ValueError, match="^sweep has more than 10000 points$"):
            cli._parse_sweep(text)


def test_parse_sizes():
    assert cli._parse_sizes("256:158") == [[256, 158]]
    assert cli._parse_sizes("16:8,32:20") == [[16, 8], [32, 20]]
    with pytest.raises(ValueError):
        cli._parse_sizes("16-8")


def test_construct_writes_loadable_spec(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "code.json")
    code, stdout, _ = run_cli(
        ["construct", "--N", "32", "--K", "20", "--out", out],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert load_spec(out) == construct(32, 20)
    assert json.loads(Path(out + ".config.json").read_text()) == {
        "command": "construct", "N": 32, "K": 20, "eps": 0.5}
    assert "N=32" in stdout


def test_scramble_pipeline_identity(monkeypatch, capsys):
    zeros = "0" * 158
    code, out, _ = run_cli(["scramble"], stdin_text=zeros,
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    line = out.strip()
    assert len(line) == 158
    want = keystream(ScramblerSpec(), 158)
    assert line == "".join(str(b) for b in want)
    # Scrambling twice restores the zeros.
    code, out2, _ = run_cli(["scramble"], stdin_text=line,
                            monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out2.strip() == zeros


def test_scramble_and_mftp_flags_take_hex_and_float_text(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["scramble", "--poly", "1d", "--seed", "a"], stdin_text="0" * 40,
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out.strip() == "".join(map(str, keystream(ScramblerSpec(0x1D, 0xA), 40)))
    code, out, _ = run_cli(["mftp", "--clock-hz", "1e6", "--frame-bits=5000"],
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and out == ("frame_bits=5000 clock_hz=1e+06 frame_time_ms=5 "
                                 "limit_ms=5 compliant=NO\n")
    spec = str(tmp_path / "c.json")
    assert run_cli(["construct", "--N", "16", "--K", "8", "--eps", "0.25", "--out", spec],
                   monkeypatch=monkeypatch, capsys=capsys)[0] == 0
    assert load_spec(spec) == construct(16, 8, 0.25)
    assert json.loads(Path(spec + ".config.json").read_text())["eps"] == 0.25


def test_encode_decode_roundtrip(monkeypatch, capsys):
    rng = np.random.default_rng(7)
    msg = "".join(str(b) for b in (rng.random(158) < 0.5).astype(int))
    code, cw, _ = run_cli(["encode"], stdin_text=msg,
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert len(cw.strip()) == 256
    code, back, _ = run_cli(["decode"], stdin_text=cw.strip(),
                            monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert back.strip() == msg


def test_encode_systematic_embeds_message(monkeypatch, capsys):
    spec = construct(256, 158)
    rng = np.random.default_rng(9)
    bits = (rng.random(158) < 0.5).astype(np.uint8)
    msg = "".join(str(b) for b in bits)
    code, cw, _ = run_cli(["encode", "--encoder", "systematic"], stdin_text=msg,
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    cw_bits = np.array([int(c) for c in cw.strip()], dtype=np.uint8)
    assert np.array_equal(cw_bits[spec.info_indices()], bits)


def test_decode_emit_codeword(monkeypatch, capsys):
    spec = construct(256, 158)
    rng = np.random.default_rng(11)
    msg_bits = (rng.random(158) < 0.5).astype(np.uint8)
    cw = encode_nspe(spec, msg_bits)
    text = "".join(str(b) for b in cw)
    code, out, _ = run_cli(["decode", "--emit-codeword"], stdin_text=text,
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out.strip() == text


def test_custom_spec_file_flows_through(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "c.json")
    run_cli(["construct", "--N", "16", "--K", "8", "--out", out],
            monkeypatch=monkeypatch, capsys=capsys)
    msg = "10110010"
    code, cw, _ = run_cli(["encode", "--spec", out], stdin_text=msg,
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and len(cw.strip()) == 16
    code, back, _ = run_cli(["decode", "--spec", out], stdin_text=cw.strip(),
                            monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and back.strip() == msg


def test_simulate_dist_outputs_and_rerun(tmp_path, monkeypatch, capsys):
    out1 = str(tmp_path / "a")
    # 2049 frames: one more than an encode batch
    argv = ["simulate-dist", "--sizes", "32:16", "--encoders", "nspe",
            "--scramble", "on", "--frames", "2049", "--out-dir", out1]
    code, stdout1, _ = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    csv1 = Path(out1, "dist_nspe_on_32x16.csv").read_bytes()
    summary1 = Path(out1, "summary.csv").read_bytes()
    sidecar = os.path.join(out1, "config.json")
    cfg = json.loads(Path(sidecar).read_text())
    # the rejection rows build sidecars with sidecar_of; this pins it to what a run writes
    assert cfg == sidecar_of("simulate-dist", sizes=[[32, 16]], encoders=["nspe"],
                             scramble="on", frames=2049, out_dir=out1)

    # Rerun solely from the sidecar into a fresh directory.  Older sidecars
    # carry a "workers" key, which the rerun ignores.
    cfg["workers"] = 3
    with open(sidecar, "w") as fh:
        json.dump(cfg, fh)
    out2 = str(tmp_path / "b")
    code, stdout2, _ = run_cli(
        ["simulate-dist", "--config", sidecar, "--out-dir", out2],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and stdout2 == stdout1
    csv2 = Path(out2, "dist_nspe_on_32x16.csv").read_bytes()
    summary2 = Path(out2, "summary.csv").read_bytes()
    assert csv1 == csv2
    assert summary1 == summary2


def test_simulate_dist_has_no_workers_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate-dist", "--workers", "2", "--out-dir", str(tmp_path / "w")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "w")


def test_simulate_dist_rows_are_plain_numbers(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "p")
    code, _, _ = run_cli(
        ["simulate-dist", "--sizes", "32:16", "--encoders", "nspe,systematic",
         "--frames", "60", "--out-dir", out],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    summary = Path(out, "summary.csv").read_text().splitlines()
    assert len(summary) == 5
    for line in summary[1:]:
        enc, scr, n, k, _, frames, lo, hi, mean = line.split(",")
        rows = Path(out, f"dist_{enc}_{scr}_{n}x{k}.csv").read_text().splitlines()
        assert rows[0] == "frame_index,ones_fraction" and len(rows) == int(frames) + 1
        values = [float(row.split(",")[1]) for row in rows[1:]]
        assert min(values) == float(lo) and max(values) == float(hi)
        weight = sum(round(v * int(n)) for v in values)
        assert weight / (int(frames) * int(n)) == float(mean)


def test_simulate_dist_both_writes_two_files(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "d")
    code, _, _ = run_cli(
        ["simulate-dist", "--sizes", "16:8", "--frames", "40",
         "--out-dir", out],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert os.path.exists(os.path.join(out, "dist_nspe_on_16x8.csv"))
    assert os.path.exists(os.path.join(out, "dist_nspe_off_16x8.csv"))


def test_simulate_ber_csv_and_rerun(tmp_path, monkeypatch, capsys):
    out1 = str(tmp_path / "ber1.csv")
    argv = ["simulate-ber", "--codes", "uncoded", "--ebn0", "11:1:12",
            "--min-errors", "20", "--max-frames", "1500", "--batch", "300",
            "--out", out1]
    code, _, _ = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    body1 = Path(out1).read_bytes()
    lines = body1.decode().splitlines()
    assert lines[0] == "code,ebn0_db,bits,bit_errors,frames,frame_errors,ber"
    assert all(line.startswith("uncoded,") for line in lines[1:])

    sidecar = out1 + ".config.json"
    out2 = str(tmp_path / "ber2.csv")
    code, _, _ = run_cli(
        ["simulate-ber", "--config", sidecar, "--out", out2, "--workers", "2"],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    body2 = Path(out2).read_bytes()
    assert body1 == body2


def test_mftp_output(monkeypatch, capsys):
    code, out, _ = run_cli(["mftp", "--frame-bits", "256"],
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert "frame_time_ms=1.28" in out and "compliant=yes" in out
    code, out, _ = run_cli(["mftp", "--frame-bits", "2048"],
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert "frame_time_ms=10.24" in out and "compliant=NO" in out


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch, capsys):
    assert cli._build_parser() is cli._build_parser()
    # a usage error, then a clean call through the same parser
    with pytest.raises(SystemExit) as exc:
        cli.main(["mftp", "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, out, _ = run_cli(["mftp"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and "frame_bits=256 " in out

    # a store_true flag does not stick to the next call
    base = ["simulate-ber", "--codes", "polar", "--N", "16", "--K", "8", "--ebn0", "10:1:10",
            "--max-frames", "4", "--batch", "4", "--workers", "1"]
    exact, plain = str(tmp_path / "exact.csv"), str(tmp_path / "plain.csv")
    assert run_cli(base + ["--exact-f", "--out", exact], capsys=capsys)[0] == 0
    assert run_cli(base + ["--out", plain], capsys=capsys)[0] == 0
    assert json.loads(Path(exact + ".config.json").read_text())["exact_f"] is True
    assert json.loads(Path(plain + ".config.json").read_text())["exact_f"] is False


def _write_config(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def test_json_roundtrip(tmp_path):
    spec = construct(64, 40, 0.4)
    path = tmp_path / "code.json"
    cli._write_json(path, dataclasses.asdict(spec))
    assert load_spec(path) == spec
    # the field order older files were written in, and a field the loader does not know
    doc = {"n": 6, "N": 64, "K": 40, "eps": 0.4, "info_set": list(spec.info_set), "note": "x"}
    assert load_spec(_write_config(path, doc)) == spec


def test_load_spec_missing_field(tmp_path):
    doc = dataclasses.asdict(construct(8, 4))
    del doc["info_set"]
    with pytest.raises(ValueError, match="^code description lacks field 'info_set'$"):
        load_spec(_write_config(tmp_path / "code.json", doc))


def test_sidecar_int_passes_for_a_float_setting(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path / "c.json", {"sizes": [[16, 8]], "scramble": "off",
                                              "frames": 10, "p1": 1})
    out_dir = tmp_path / "d"
    code, out, _ = run_cli(["simulate-dist", "--config", cfg, "--out-dir", str(out_dir)],
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and "p1=1:" in out
    assert json.loads((out_dir / "config.json").read_text())["p1"] == 1.0
    assert (out_dir / "summary.csv").read_text().splitlines()[1].split(",")[4] == "1.0"


def test_flag_overrides_sidecar_which_overrides_default(tmp_path, monkeypatch, capsys):
    # simulate-dist: --frames over the sidecar's frames; the sidecar's sizes over the default
    first = tmp_path / "a"
    base = ["simulate-dist", "--sizes", "16:8", "--scramble", "on"]
    assert run_cli(base + ["--frames", "30", "--out-dir", str(first)],
                   monkeypatch=monkeypatch, capsys=capsys)[0] == 0
    second = tmp_path / "b"
    code, _, _ = run_cli(["simulate-dist", "--config", str(first / "config.json"),
                          "--frames", "50", "--out-dir", str(second)],
                         monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    rows = (second / "dist_nspe_on_16x8.csv").read_text().splitlines()
    assert len(rows) == 51
    cfg = json.loads((second / "config.json").read_text())
    assert cfg["frames"] == 50 and cfg["sizes"] == [[16, 8]] and cfg["scramble"] == "on"
    assert cfg["out_dir"] == str(second) and cfg["p1"] == 0.9

    # simulate-ber: --min-errors over the sidecar's value changes where each point stops
    one = str(tmp_path / "one.csv")
    argv = ["simulate-ber", "--codes", "uncoded", "--ebn0", "11:1:11", "--min-errors", "5",
            "--batch", "100", "--out", one]
    assert run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)[0] == 0
    two = str(tmp_path / "two.csv")
    code, _, _ = run_cli(["simulate-ber", "--config", one + ".config.json",
                          "--min-errors", "200", "--out", two],
                         monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    frames = [int(Path(path).read_text().splitlines()[1].split(",")[4]) for path in (one, two)]
    assert frames[1] > frames[0]
    cfg = json.loads(Path(two + ".config.json").read_text())
    assert cfg["min_errors"] == 200 and cfg["ebn0"] == {"uncoded": [11.0]}
    assert cfg["batch"] == 100 and cfg["max_frames"] == cli.DEFAULT_MAX_FRAMES


@pytest.mark.parametrize("value", [1.0, 1], ids=["float", "int"])
def test_sidecar_with_the_retired_on_level_at_1_reruns_byte_for_byte(
        tmp_path, monkeypatch, capsys, value):
    # sidecars written while the on-level was a setting record "amplitude": 1.0
    out = str(tmp_path / "run1.csv")
    code, _, _ = run_cli(["simulate-ber", "--codes", "uncoded", "--ebn0", "11:1:12",
                          "--min-errors", "20", "--max-frames", "600", "--batch", "200",
                          "--out", out], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    cfg = json.loads(Path(out + ".config.json").read_text())
    assert cfg == sidecar_of("simulate-ber", codes=["uncoded"], ebn0={"uncoded": [11.0, 12.0]},
                             min_errors=20, max_frames=600, batch=200, out=out)
    cfg["amplitude"] = value
    again = str(tmp_path / "run2.csv")
    code, _, err = run_cli(["simulate-ber", "--config", _write_config(tmp_path / "old.json", cfg),
                            "--out", again], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and err == ""
    assert Path(again).read_bytes() == Path(out).read_bytes()
    assert "amplitude" not in json.loads(Path(again + ".config.json").read_text())


def test_retired_amplitude_flag_is_a_usage_error(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate-ber", "--codes", "uncoded", "--amplitude", "1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --amplitude 1" in capsys.readouterr().err
    assert not out.exists()


class InProcessExecutor:
    """Stands in for ProcessPoolExecutor: runs each task as it is submitted, so no process
    starts."""

    def __init__(self, processes, **_):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, func, *args):
        future = concurrent.futures.Future()
        future.set_result(func(*args))
        return future


@pytest.mark.parametrize("workers", ["3000000000", str(10**20)])
def test_simulate_ber_worker_count_beyond_a_c_int_runs_like_one_worker(tmp_path, monkeypatch,
                                                                      capsys, workers):
    sizes = []

    def executor(processes, **kwargs):
        sizes.append(processes)
        return InProcessExecutor(processes, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
    runs = {}
    for count in ("1", workers):
        out = tmp_path / f"{count}.csv"
        code, stdout, err = run_cli(
            ["simulate-ber", "--codes", "uncoded,rs15_7", "--ebn0", "10:1:11",
             "--max-frames", "300", "--batch", "100", "--workers", count, "--out", str(out)],
            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0 and err == ""
        runs[count] = out.read_bytes(), stdout
    assert runs[workers] == runs["1"]
    assert sizes == [os.cpu_count() or 1] * 2  # one pool per code


DIR = None  # an input of a rejection that is an empty directory


def _tree(root: Path) -> dict:
    """Each path under root, relative, with its bytes, or DIR."""
    return {str(path.relative_to(root)): DIR if path.is_dir() else path.read_bytes()
            for path in root.rglob("*")}


def assert_clean_rejection(tmp_path, monkeypatch, capsys, argv, want, stdin="", files={}):
    """Check that bad input is rejected cleanly: cli.main(argv), run on stdin in the empty
    directory tmp_path once files (path: text, a JSON value or DIR) are written there, exits 2
    with empty stdout and the one stderr line 'error: <want>', where want is the exact text or a
    re.fullmatch pattern.  No batch of frames and no simulate-dist configuration may finish, and
    the directory must hold the input files, unchanged, and nothing else."""
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if body is DIR:
            path.mkdir()
        else:
            path.write_text(body if isinstance(body, str) else json.dumps(body))
    before, done = _tree(tmp_path), []

    def recording(func):
        def run(*args, **kwargs):
            result = func(*args, **kwargs)
            done.append(func.__name__)
            return result
        return run

    monkeypatch.setattr(analysis, "_run_batch", recording(analysis._run_batch))
    monkeypatch.setattr(cli, "run_dist_experiment", recording(cli.run_dist_experiment))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
    code, out, err = run_cli(argv, stdin, monkeypatch, capsys)
    assert (code, out) == (2, ""), err
    assert done == []
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    message = err[len("error: "):-1]
    if isinstance(want, re.Pattern):
        assert want.fullmatch(message), message
    else:
        assert message == want
    assert _tree(tmp_path) == before


def reject(row_id, argv, want, stdin="", files={}):
    """A row of REJECTIONS; see assert_clean_rejection."""
    return pytest.param(argv, want, stdin, files, id=row_id)


def starts(prefix: str) -> re.Pattern:
    """A pattern for any message that begins with prefix."""
    return re.compile(re.escape(prefix) + ".+")


ANY_MESSAGE = re.compile(".+")


# one JSON value of each type
JSON_VALUES = {"null": None, "true": True, "int": 7, "float": 0.5, "string": "x", "list": [0],
               "object": {"x": 0}}


def json_values_rejected_for(default):
    """(type name, value) of each of JSON_VALUES that a setting or field with this default
    rejects: any of another type, where an int passes for a float and for None."""
    accepted = {type(default)} | ({int} if default is None or isinstance(default, float) else set())
    return [(kind, value) for kind, value in JSON_VALUES.items() if type(value) not in accepted]


# Every setting of both experiments gets each JSON type its default rejects, from a sidecar and
# with no output flag, which would override the sidecar's out or out_dir.
SIDECAR_TYPE_CASES = {
    "simulate-dist-frames-ten": ("simulate-dist", "frames", "ten"),
    "simulate-dist-sizes-5": ("simulate-dist", "sizes", 5),
    "simulate-dist-sizes-item-text": ("simulate-dist", "sizes", [[16, "8"]]),
    "simulate-ber-exact_f-1": ("simulate-ber", "exact_f", 1),
    "simulate-ber-workers-two": ("simulate-ber", "workers", "two"),
    "simulate-dist-sizes-short-pair": ("simulate-dist", "sizes", [[16]]),
}
SIDECAR_TYPE_CASES.update({
    f"{command}-{key}-as-{kind}": (command, key, value)
    for command, table in (("simulate-dist", cli.DIST_SETTINGS), ("simulate-ber", cli.BER_SETTINGS))
    for key, (default, _, _) in table.items()
    for kind, value in json_values_rejected_for(default)})

_SPEC = {"n": 3, "N": 8, "K": 4, "eps": 0.5, "info_set": [3, 5, 6, 7]}
MALFORMED_SPEC_CASES = {
    "info_set-int": ("info_set", 5), "n-null": ("n", None), "eps-list": ("eps", [0.5]),
    "n-float": ("n", 3.7), "K-float": ("K", 1.9), "info_set-float": ("info_set", [7.9]),
    "N-bool": ("N", True), "info_set-bool": ("info_set", [3, 5, 6, True]),
    "eps-text": ("eps", "0.5"),
}
MALFORMED_SPEC_CASES.update({f"{key}-as-{kind}": (key, value)
                             for key, example in cli._SPEC_FIELDS.items()
                             for kind, value in json_values_rejected_for(example)})
# checked before anything of length N, such as the 2**n-float profile, is built
TOO_LONG = f"N must not exceed {np.iinfo(np.intp).max}, got {2**100}"
# Each code description the encode and decode commands reject, with the message.
SPEC_CASES = {
    "not-an-object": ([], "code description bad.json is not a JSON object"),
    # json's decoder recurses once per level: this once ended in a RecursionError traceback
    "nested-too-deeply": ("[" * 100_000, "code description bad.json is nested too deeply"),
    **{f"eps-{eps}": ({**_SPEC, "eps": eps}, "design erasure probability must lie in (0, 1)")
       for eps in (float("nan"), float("inf"), 0, 1, -0.5)},
    # N is checked against n without 1 << n, which a huge n overflows and a negative n rejects
    **{f"n-{n}": ({**_SPEC, "n": n}, "N must equal 2**n") for n in (10**20, -1)},
    "no-info-bit": ({"n": 3, "N": 8, "K": 0, "eps": 0.5, "info_set": []},
                    "K must satisfy 0 < K <= N"),
    "N-beyond-numpy-indexing": ({"n": 100, "N": 2**100, "K": 1, "eps": 0.5, "info_set": [3]},
                                TOO_LONG),
    **{f"field-{case}": ({**_SPEC, key: value}, starts(f"code description field {key!r} must be "))
       for case, (key, value) in MALFORMED_SPEC_CASES.items()},
}

# The error line once held the whole rejected value: about 2,000 characters for a list nested
# 980 deep, and every byte of a multi-megabyte one.  It now holds its first 60 characters.
DEEP_LIST = "[" * 500 + "]" * 500  # about 1,000 characters of JSON, still loadable in-process
LONG_LIST = json.dumps([0.5] * 200_000)  # about 1 MB
_DIST = ["simulate-dist", "--config", "bad.json", "--out-dir", "d"]
_INFO_SET = '{"n": 3, "N": 8, "K": 4, "eps": 0.5, "info_set": [%s]}'  # an item, checked as an int
ECHO_CASES = {f"{name}-{kind}": (argv, n_in, doc % value, shown)
              for name, argv, n_in, doc, shown in [
                  ("sizes", _DIST, 0, '{"sizes": [[%s]]}',
                   "config setting 'sizes' must be int, got "),
                  ("frames", _DIST, 0, '{"frames": %s}',
                   "config setting 'frames' must be int, got "),
                  ("retired-amplitude", ["simulate-ber", "--config", "bad.json", "--out", "x.csv"],
                   0, '{"amplitude": %s}',
                   "config setting 'amplitude' is retired and must be 1.0, got "),
                  ("encode-info_set", ["encode", "--spec", "bad.json"], 4, _INFO_SET,
                   "code description field 'info_set' must be int, got "),
                  ("decode-info_set", ["decode", "--spec", "bad.json"], 8, _INFO_SET,
                   "code description field 'info_set' must be int, got ")]
              for kind, value in (("deep", DEEP_LIST), ("long", LONG_LIST))}
ECHO_CASES["sizes-long-pair"] = (_DIST, 0, json.dumps({"sizes": [[0] * 200_000]}),
                                 "config setting 'sizes' must be [N, K] pairs, got ")
ECHO_CASES["sizes-long-repeat"] = (_DIST, 0, json.dumps({"sizes": [[7] * 100_000] * 2}),
                                   "setting 'sizes' repeats ")


def sidecar_of(command: str, **changes) -> dict:
    """The sidecar a run of command with every setting at its default writes, with changes."""
    table = cli.COMMANDS[command][0]
    return {"command": command, **{key: row[0] for key, row in table.items()}, **changes}


_BER = ["simulate-ber", "--codes", "uncoded", "--ebn0", "10:1:10", "--max-frames", "10"]
_DIST16 = ["simulate-dist", "--sizes", "16:8", "--frames", "5"]
_MISSING = "[Errno 2] No such file or directory: 'missing.json'"
_BAD_SWEEP = "argument --ebn0: bad sweep {!r}, expected finite start:step:stop"
_FAR_EBN0 = "Eb/N0 must be finite and within 3000 dB of 0, got {} dB"
REJECTIONS = [
    # construct
    reject("construct-N-not-a-power-of-two",
           ["construct", "--N", "12", "--K", "4", "--out", "code.json"],
           "N must be a power of two"),
    reject("construct-N-text", ["construct", "--N", "ten"],
           "argument --N: invalid literal for int() with base 10: 'ten'", "0" * 158),
    reject("construct-N-beyond-numpy-indexing",
           ["construct", "--N", str(2**100), "--K", "1", "--out", "code.json"], TOO_LONG),
    reject("construct-out-in-missing-directory", ["construct", "--out", "nodir/c.json"],
           "[Errno 2] No such file or directory: 'nodir/c.json'"),
    *(reject(f"construct-out-{taken}-is-a-directory",
             ["construct", "--N", "8", "--K", "4", "--out", "x.json"],
             f"output {taken!r} is a directory", files={taken: DIR})
      for taken in ("x.json", "x.json.config.json")),

    # scramble, encode, decode and mftp
    reject("scramble-bad-character", ["scramble"], "bitstream text may only contain '0' and '1'",
           "10x0"),
    *(reject(f"scramble-poly{text}", ["scramble", f"--poly={text}"],
             "polynomial mask must be nonnegative", "0101") for text in ("-19", "-1")),
    *(reject(f"scramble-{flag}-text", ["scramble", f"--{flag}", "zz"],
             f"argument --{flag}: not a hex value: 'zz'", "0" * 158) for flag in ("poly", "seed")),
    reject("encode-short-message", ["encode"], "expected 158 input bits, got 4", "1010"),
    reject("decode-short-word", ["decode"], "expected 256 input bits, got 2", "10"),
    reject("encode-unknown-encoder", ["encode", "--encoder", "bogus"],
           "unknown encoder 'bogus'; choose from nspe, systematic", "0" * 158),
    reject("encode-missing-spec", ["encode", "--spec", "missing.json"], _MISSING),
    *(reject(f"{command}-spec-{case}", [command, "--spec", "bad.json"], want, "0" * n_in,
             {"bad.json": doc})
      for command, n_in in (("encode", 4), ("decode", 8))
      for case, (doc, want) in SPEC_CASES.items()),
    *(reject(f"mftp-clock-hz-{clock}", ["mftp", "--clock-hz", clock],
             "clock_hz must be finite and positive") for clock in ("nan", "inf", "0")),
    reject("mftp-frame-bits-text", ["mftp", "--frame-bits", "many"],
           "argument --frame-bits: invalid literal for int() with base 10: 'many'", "0" * 158),
    reject("mftp-clock-hz-text", ["mftp", "--clock-hz", "x"],
           "argument --clock-hz: could not convert string to float: 'x'", "0" * 158),

    # simulate-dist
    reject("simulate-dist-negative-master-seed",
           ["simulate-dist", "--master-seed", "-1", "--frames", "5", "--out-dir", "D"],
           "expected non-negative integer"),
    reject("simulate-dist-unknown-encoder",
           ["simulate-dist", "--encoders", "magic", "--frames", "5", "--out-dir", "x"],
           "unknown encoder 'magic'; choose from nspe, systematic"),
    *(reject(f"simulate-dist-{flag[2:]}-text", ["simulate-dist", flag, text, "--out-dir", "o"],
             want)
      for flag, text, want in [
          ("--frames", "ten", "argument --frames: invalid literal for int() with base 10: 'ten'"),
          ("--poly", "zz", "argument --poly: not a hex value: 'zz'"),
          ("--sizes", "16-8", "argument --sizes: bad size '16-8', expected N:K"),
          ("--scramble", "bogus", "scramble must be on, off or both")]),
    reject("simulate-dist-bad-later-size",
           ["simulate-dist", "--sizes", "16:8,100:50", "--frames", "50", "--out-dir", "d"],
           "N must be a power of two"),
    reject("simulate-dist-out-dir-empty", [*_DIST16, "--out-dir="], "output path is empty"),
    reject("simulate-dist-sidecar-out-dir-empty", ["simulate-dist", "--config", "c.json"],
           "output path is empty", files={"c.json": {"sizes": [[16, 8]], "frames": 5,
                                                     "out_dir": ""}}),
    reject("simulate-dist-out-dir-is-a-file", [*_DIST16, "--out-dir", "d"],
           "output directory 'd' is not a directory", files={"d": "kept\n"}),
    reject("simulate-dist-out-dir-under-a-file", [*_DIST16, "--out-dir", "afile/sub/deeper"],
           "output directory 'afile' is not a directory", files={"afile": "kept\n"}),
    *(reject(f"simulate-dist-{taken}-is-a-directory", [*_DIST16, "--out-dir", "d"],
             f"output 'd/{taken}' is a directory", files={f"d/{taken}": DIR})
      for taken in ("summary.csv", "config.json", "dist_nspe_on_16x8.csv")),
    reject("simulate-dist-missing-config",
           ["simulate-dist", "--config", "missing.json", "--out-dir", "d"], _MISSING),
    reject("simulate-dist-config-not-an-object",
           ["simulate-dist", "--config", "list.json", "--out-dir", "d"],
           "config list.json is not a JSON object", files={"list.json": [["sizes", [[16, 8]]]]}),
    reject("simulate-dist-config-nested-too-deeply",
           ["simulate-dist", "--config", "deep.json", "--out-dir", "d"],
           "config deep.json is nested too deeply", files={"deep.json": "[" * 100_000}),
    reject("simulate-dist-sidecar-unknown-key",
           ["simulate-dist", "--config", "typo.json", "--out-dir", "d"],
           "config setting 'frame' is not a simulate-dist setting",
           files={"typo.json": {"sizes": [[16, 8]], "frame": 5}}),

    # simulate-ber
    reject("simulate-ber-unknown-code", ["simulate-ber", "--codes", "turbo", "--out", "x.csv"],
           "unknown code 'turbo'; choose from polar, rs15_11, rs15_7, rs15_3, uncoded"),
    *(reject(f"simulate-ber-K-0-{name}",
             ["simulate-ber", "--codes", name, "--K", "0", "--ebn0", "10:1:10",
              "--max-frames", "10", "--out", "x.csv"], want)
      for name, want in [("rs15_7", "frame_bits must be positive"),
                         ("uncoded", "frame_bits must be positive"),
                         ("polar", "K must satisfy 0 < K <= N")]),
    reject("simulate-ber-negative-master-seed", [*_BER, "--master-seed", "-1", "--out", "x.csv"],
           "expected non-negative integer"),
    reject("simulate-ber-worker-count-below-one",
           ["simulate-ber", "--codes", "uncoded", "--workers", "-3", "--out", "z.csv"],
           "min_errors, max_frames, batch and workers must be positive"),
    # 2^58 one-byte bits per frame: beyond the 57-bit virtual address space of any 64-bit
    # machine, so the allocation fails and is never granted
    reject("simulate-ber-frame-too-large-for-memory",
           ["simulate-ber", "--codes", "uncoded", "--K", str(2**58), "--max-frames", "1",
            "--batch", "1", "--out", "y.csv"],
           starts("Unable to allocate ")),
    # the sidecar records N and eps for every run, and NaN is not JSON
    *(reject(f"simulate-ber-uncoded-{flag[2:]}-{value}", [*_BER, flag, value, "--out", "x.csv"],
             want)
      for flag, value, want in [
          ("--eps", "nan", "design erasure probability must lie in (0, 1)"),
          ("--eps", "1", "design erasure probability must lie in (0, 1)"),
          ("--N", "0", "N must be a power of two"),
          ("--N", "100", "N must be a power of two")]),
    reject("simulate-ber-bad-polar-size-after-uncoded",
           ["simulate-ber", "--codes", "uncoded,polar", "--N", "100", "--ebn0", "10:1:11",
            "--max-frames", "20000", "--out", "x.csv"], "N must be a power of two"),
    reject("simulate-ber-N-beyond-numpy-indexing",
           ["simulate-ber", "--codes", "polar", "--N", str(2**100), "--out", "x.csv"], TOO_LONG),
    *(reject(f"simulate-ber-{flag[2:]}-text", ["simulate-ber", flag, text, "--out", "o"], want)
      for flag, text, want in [
          ("--eps", "loud", "argument --eps: could not convert string to float: 'loud'"),
          ("--ebn0", "10:1", _BAD_SWEEP.format("10:1"))]),
    *(reject(f"simulate-ber-ebn0-{extra[-1].removeprefix('--ebn0=')}",
             ["simulate-ber", "--codes", "uncoded", "--max-frames", "10", *extra, "--out", "x.csv"],
             want)
      for extra, want in [
          (["--ebn0", "0:inf:12"], _BAD_SWEEP.format("0:inf:12")),
          (["--ebn0", "0:1:inf"], _BAD_SWEEP.format("0:1:inf")),
          (["--ebn0", "nan:1:12"], _BAD_SWEEP.format("nan:1:12")),
          (["--ebn0=-inf:1:12"], _BAD_SWEEP.format("-inf:1:12")),
          (["--ebn0=-4000:1:-4000"], _FAR_EBN0.format(-4000.0)),
          (["--ebn0", "4000:1:4000"], _FAR_EBN0.format(4000.0)),
          *((["--ebn0=" + text], "argument --ebn0: sweep has more than 10000 points")
            for text in OVER_LONG_SWEEPS)]),
    reject("simulate-ber-out-in-missing-directory", [*_BER, "--out", "nodir/x.csv"],
           "output directory 'nodir' does not exist"),
    *(reject(f"simulate-ber-{taken}-is-a-directory", [*_BER, "--out", "x.csv"],
             f"output {taken!r} is a directory", files={taken: DIR})
      for taken in ("x.csv", "x.csv.config.json")),
    reject("simulate-ber-missing-config",
           ["simulate-ber", "--config", "missing.json", "--out", "b.csv"], _MISSING),
    reject("simulate-ber-config-nested-too-deeply",
           ["simulate-ber", "--config", "deep.json", "--out", "x.csv"],
           "config deep.json is nested too deeply", files={"deep.json": "[" * 100_000}),
    reject("simulate-ber-sidecar-of-simulate-dist",
           ["simulate-ber", "--config", "d/config.json", "--out", "x.csv"],
           "config d/config.json is for simulate-dist, not simulate-ber",
           files={"d/config.json": sidecar_of("simulate-dist")}),
    reject("simulate-ber-sidecar-ebn0-lacks-a-chosen-code",
           ["simulate-ber", "--config", "c.json", "--out", "x.csv"],
           "config setting 'ebn0' has no sweep for code 'uncoded'",
           files={"c.json": {"codes": ["uncoded"], "ebn0": {"polar": [10.0]}}}),
    # the bad value on the second code is found before the first code's point is simulated
    *(reject(f"simulate-ber-sidecar-ebn0-{value}",
             ["simulate-ber", "--config", "c.json", "--out", "x.csv"], _FAR_EBN0.format(shown),
             files={"c.json": '{"codes": ["uncoded", "rs15_7"], '
                              f'"ebn0": {{"uncoded": [10.0], "rs15_7": [{value}]}}, '
                              '"max_frames": 10}'})
      for value, shown in (("NaN", "nan"), ("4000.0", "4000.0"))),
    # sidecars written while the on-level was a setting record "amplitude": 1.0
    *(reject(f"simulate-ber-sidecar-retired-amplitude-{name}",
             ["simulate-ber", "--config", "old.json", "--out", "run2.csv"],
             f"config setting 'amplitude' is retired and must be 1.0, got {shown}",
             files={"old.json": sidecar_of("simulate-ber", amplitude=value)})
      for name, value, shown in (("2.0", 2.0, "2.0"), ("true", True, "true"),
                                 ("text", "1.0", '"1.0"'))),

    # empty or repeated selections, from a flag or a sidecar
    *(reject(f"{argv[0]}-{argv[1][2:]}-empty-{name}", argv, f"setting {argv[1][2:]!r} is empty")
      for name, argv in [("comma", ["simulate-dist", "--encoders", ","]),
                         ("blank", ["simulate-dist", "--encoders", ""]),
                         ("blank", ["simulate-ber", "--codes", ""]),
                         ("comma", ["simulate-ber", "--codes", " , "])]),
    *(reject(f"{command}-sidecar-{key}-empty", [command, "--config", "c.json"], want,
             files={"c.json": doc})
      for command, key, doc, want in [
          ("simulate-dist", "encoders", {"encoders": []}, "setting 'encoders' is empty"),
          ("simulate-dist", "sizes", {"sizes": []}, "setting 'sizes' is empty"),
          ("simulate-ber", "codes", {"codes": []}, "setting 'codes' is empty"),
          ("simulate-ber", "ebn0", {"codes": ["uncoded"], "ebn0": {"uncoded": []}},
           "config setting 'ebn0' has no sweep for code 'uncoded'")]),
    *(row
      for command, key, text, values, shown in [
          ("simulate-dist", "encoders", "nspe,systematic,nspe", ["nspe", "nspe"], '"nspe"'),
          ("simulate-dist", "sizes", "16:8,32:16,16:8", [[16, 8], [32, 16], [16, 8]], "[16, 8]"),
          ("simulate-ber", "codes", "uncoded,uncoded", ["uncoded", "uncoded"], '"uncoded"')]
      for row in (reject(f"{command}-{key}-repeated", [command, f"--{key}", text],
                         f"setting {key!r} repeats {shown}"),
                  reject(f"{command}-sidecar-{key}-repeated", [command, "--config", "c.json"],
                         f"setting {key!r} repeats {shown}", files={"c.json": {key: values}}))),

    # generated: a value of the wrong JSON type, and a rejected value echoed in short
    *(reject(f"{name}-in-sidecar", [command, "--config", "c.json"],
             starts(f"config setting {setting!r} must be "), files={"c.json": {setting: value}})
      for name, (command, setting, value) in SIDECAR_TYPE_CASES.items()),
    *(reject(f"echo-{name}", argv, re.compile(re.escape(shown) + r".{60}\.\.\."),
             "0" * n_in, {"bad.json": doc})
      for name, (argv, n_in, doc, shown) in ECHO_CASES.items()),
]


@pytest.mark.parametrize("argv, want, stdin, files", REJECTIONS)
def test_rejected_input_exits_2_cleanly(tmp_path, monkeypatch, capsys, argv, want, stdin, files):
    assert_clean_rejection(tmp_path, monkeypatch, capsys, argv, want, stdin, files)


# Per setting, a flag's text and the sidecar value it stands for; out and out_dir take a path.
ROW_SAMPLES = {
    "sizes": ("16:8,32:20", [[16, 8], [32, 20]]),
    "encoders": ("nspe,systematic", ["nspe", "systematic"]),
    "scramble": ("off", "off"),
    "p1": ("0.25", 0.25),
    "frames": ("7", 7),
    "eps": ("0.375", 0.375),
    "poly": ("90000001", 0x90000001),  # PRBS31, x^31 + x^28 + 1
    "scrambler_seed": ("a", 0xA),
    "master_seed": ("12", 12),
    "codes": ("uncoded,rs15_7", ["uncoded", "rs15_7"]),
    "ebn0": ("10:0.5:11", {"uncoded": [10.0, 10.5, 11.0]}),
    "N": ("32", 32),
    "K": ("20", 20),
    "min_errors": ("5", 5),
    "max_frames": ("30", 30),
    "batch": ("7", 7),
    "exact_f": (True, True),  # an on/off flag takes no text
    "workers": ("1", 1),
}


def _argv(flags: dict) -> list:
    argv = []
    for key, text in flags.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if text is True else [flag, text]
    return argv


@pytest.mark.parametrize("command, key", [
    *(("simulate-dist", key) for key in cli.DIST_SETTINGS),
    *(("simulate-ber", key) for key in cli.BER_SETTINGS),
])
def test_flag_text_and_sidecar_value_resolve_to_the_same_setting(
        tmp_path, monkeypatch, capsys, command, key):
    out = str(tmp_path / "out")
    if command == "simulate-dist":
        base = {"sizes": "16:8", "frames": "5", "out_dir": out}
        written = os.path.join(out, "config.json")
    else:
        base = {"codes": "uncoded", "ebn0": "10:1:10", "max_frames": "20", "batch": "10",
                "workers": "1", "out": out}
        written = out + ".config.json"
    base.pop(key, None)
    text, value = ROW_SAMPLES.get(key, (out, out))

    code, by_flag_out, _ = run_cli([command, *_argv(base), *_argv({key: text})],
                                   monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    by_flag = json.loads(Path(written).read_text())
    cfg = _write_config(tmp_path / "c.json", {key: value})
    code, by_sidecar_out, _ = run_cli([command, *_argv(base), "--config", cfg],
                                      monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    by_sidecar = json.loads(Path(written).read_text())
    assert by_flag[key] == value
    assert by_flag == by_sidecar and by_flag_out == by_sidecar_out


# Every setting with a parser gets each of these texts as --flag=text.  The matrix runs on the
# in-process executor, so a worker count it accepts starts no process.
BAD_TEXTS = {"0": "0", "-1": "-1", "nan": "nan", "inf": "inf", "empty": "", "1e400": "1e400",
             "x": "x", "3:1": "3:1", "0x": "0x", "20-digit": "9" * 20, "1.5": "1.5", "comma": ",",
             "-0": "-0"}
TEXT_MATRIX = [(command, key, name) for command, (table, _, _) in cli.COMMANDS.items()
               for key, (_, parse, _) in table.items() if parse is not None
               for name in BAD_TEXTS]
# Flags that keep an accepted run tiny; the tested flag comes after them, and the last one wins.
MATRIX_BASE = {"construct": ["--N", "8", "--K", "4"],
               "simulate-dist": ["--sizes", "16:8", "--frames", "2"],
               "simulate-ber": ["--codes", "uncoded", "--ebn0", "10:1:10", "--max-frames", "10"]}
# The texts a setting takes: any path but the empty one, seeds, p1 = 0, huge caps and masks, and
# mftp's frame length and clock rate.
MATRIX_ACCEPTS = {
    *((command, key, name) for command, key in [("construct", "out"), ("simulate-ber", "out"),
                                                ("simulate-dist", "out_dir")]
      for name in BAD_TEXTS if name != "empty"),
    *((command, "poly", "20-digit") for command in ("scramble", "simulate-dist", "simulate-ber")),
    ("simulate-dist", "p1", "0"), ("simulate-dist", "p1", "-0"),
    *((command, "master_seed", name) for command in ("simulate-dist", "simulate-ber")
      for name in ("0", "-0", "20-digit")),
    *(("simulate-ber", key, "20-digit")
      for key in ("min_errors", "max_frames", "batch", "workers")),
    ("mftp", "frame_bits", "20-digit"), ("mftp", "clock_hz", "20-digit"),
    ("mftp", "clock_hz", "1.5"),
}


@pytest.mark.parametrize("command, key, name", TEXT_MATRIX, ids=["-".join(c) for c in TEXT_MATRIX])
def test_flag_text_exits_2_with_one_error_line_unless_allowed(tmp_path, monkeypatch, capsys,
                                                              command, key, name):
    argv = [command, *MATRIX_BASE.get(command, []), f"{cli._flag(key)}={BAD_TEXTS[name]}"]
    if (command, key, name) not in MATRIX_ACCEPTS:
        assert_clean_rejection(tmp_path, monkeypatch, capsys, argv, ANY_MESSAGE, "0101")
        return
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
    code, _, err = run_cli(argv, "0101", monkeypatch, capsys)
    assert code == 0 and err == ""


def test_module_entry_point_exits_2_with_one_error_line():
    # python -m runs the module's own sys.exit(main()), which no in-process test reaches
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "beaconphy.cli", "mftp", "--clock-hz", "nan"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: clock_hz must be finite and positive\n"


def test_simulate_ber_rs_csv_matches_pinned_bytes(tmp_path, monkeypatch, capsys):
    # data/ber_rs_pinned.csv was written by the decoder that sent every dirty
    # block through Berlekamp-Massey, before the syndrome table; every point
    # but rs15_11 at 14 dB mixes blocks the table corrects with blocks it
    # leaves to Berlekamp-Massey, and the run must exercise both paths and
    # both of Berlekamp-Massey's cores
    calls = {"dirty": 0, "miss": 0, "array": 0}
    decode, core, array = analysis.rs_decode, reed_solomon._correct, reed_solomon._correct_batch

    def counting_decode(spec, words):
        # a systematic word is dirty when it differs from its message's codeword
        calls["dirty"] += int((rs_encode(spec, words[:, : spec.k]) != words).any(axis=1).sum())
        return decode(spec, words)

    def counting_core(spec, word, packed):
        calls["miss"] += 1
        return core(spec, word, packed)

    def counting_array(spec, words, packed):
        calls["miss"] += len(words)
        calls["array"] += len(words)
        return array(spec, words, packed)

    monkeypatch.setattr(analysis, "rs_decode", counting_decode)
    monkeypatch.setattr(reed_solomon, "_correct", counting_core)
    monkeypatch.setattr(reed_solomon, "_correct_batch", counting_array)
    out = tmp_path / "rs.csv"
    code, _, _ = run_cli(
        ["simulate-ber", "--codes", "rs15_11,rs15_7,rs15_3", "--ebn0", "12:1:14",
         "--max-frames", "300", "--min-errors", "1000000", "--batch", "128", "--workers", "1",
         "--out", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    pinned = os.path.join(os.path.dirname(__file__), "data", "ber_rs_pinned.csv")
    assert out.read_bytes() == Path(pinned).read_bytes()
    assert 0 < calls["array"] < calls["miss"] < calls["dirty"] - 1000, calls


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_simulate_dist_csvs_match_pinned_bytes(tmp_path, monkeypatch, capsys):
    # data/dist_pinned/ was written by the butterfly that ran along the last
    # axis of (batch, N); both encoders, scrambled or not, at two sizes.  Its
    # stdout.txt, which holds each configuration's max_run, was written by the
    # fenced flatnonzero/diff run-length scan that read (batch, N) rows.
    pinned = os.path.join(DATA, "dist_pinned")
    out = tmp_path / "dist"
    code, stdout, _ = run_cli(
        ["simulate-dist", "--sizes", "256:158,32:16", "--encoders", "nspe,systematic",
         "--scramble", "both", "--frames", "300", "--out-dir", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    with open(os.path.join(pinned, "stdout.txt"), "rb") as f:
        assert stdout.encode() == f.read()
    names = sorted(n for n in os.listdir(pinned) if n.endswith(".csv"))
    assert len(names) == 9 and sorted(os.listdir(pinned)) == sorted(names + ["stdout.txt"])
    assert sorted(os.listdir(out)) == sorted(names + ["config.json"])
    for name in names:
        assert (out / name).read_bytes() == Path(pinned, name).read_bytes(), name


def test_simulate_dist_draws_each_size_once_and_leaves_the_draw_intact(
        tmp_path, monkeypatch, capsys):
    draws, seen = [], []
    draw_frames, run = analysis._draw_frames, cli.run_dist_experiment

    def counting_draw(*args, **kwargs):
        draws.append(args)
        return draw_frames(*args, **kwargs)

    def checking_run(spec, msgs, **kwargs):
        before = msgs.copy()
        stats = run(spec, msgs, **kwargs)
        assert np.array_equal(msgs, before)
        seen.append(id(msgs))
        return stats

    monkeypatch.setattr(analysis, "_draw_frames", counting_draw)
    monkeypatch.setattr(cli, "run_dist_experiment", checking_run)
    code, _, _ = run_cli(
        ["simulate-dist", "--sizes", "256:158,32:16", "--encoders", "nspe,systematic",
         "--scramble", "both", "--frames", "300", "--out-dir", str(tmp_path / "d")],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert [(args[2].shape, args[3]) for args in draws] == [((300, 158), 0.9), ((300, 16), 0.9)]
    # four configurations encode each size's one array
    assert len(seen) == 8 and len(set(seen[:4])) == len(set(seen[4:])) == 1


@pytest.mark.parametrize("batch", ["128", "1"])
def test_simulate_ber_polar_csv_matches_pinned_bytes(batch, tmp_path, monkeypatch, capsys):
    # data/ber_polar_pinned.csv was written at batch 128 by the butterfly that
    # ran along the last axis; 600 frames leave a short last batch, and batch
    # 1 runs every frame alone through the encoder and SC decoder
    out = tmp_path / "polar.csv"
    code, _, _ = run_cli(
        ["simulate-ber", "--codes", "polar", "--ebn0", "8:0.5:9.5", "--max-frames", "600",
         "--min-errors", "1000000", "--batch", batch, "--workers", "1", "--out", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out.read_bytes() == Path(DATA, "ber_polar_pinned.csv").read_bytes()


def test_simulate_ber_fails_when_a_worker_dies(tmp_path):
    # The sweep runs in a child process under a timeout, so a pool that waits
    # for good on a dead worker fails this test instead of hanging the suite.
    # Its link exits its worker on the short last batch (2100 = 8 * 250 + 100).
    script = tmp_path / "dying.py"
    script.write_text(textwrap.dedent("""
        import os, sys
        from beaconphy import cli
        from beaconphy.analysis import UncodedLink

        class DyingLink(UncodedLink):
            def encode(self, msgs):
                if len(msgs) == 100:
                    os._exit(1)
                return msgs

        if __name__ == "__main__":
            cli.UncodedLink = DyingLink
            sys.exit(cli.main(sys.argv[1:]))
    """))
    out = tmp_path / "ber.csv"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(script), "simulate-ber", "--codes", "uncoded", "--ebn0", "14:1:14",
         "--min-errors", "1000000", "--max-frames", "2100", "--batch", "250",
         "--workers", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "terminated abruptly" in proc.stderr
    assert not out.exists()
