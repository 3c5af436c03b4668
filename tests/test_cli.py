"""Command-line interface tests: pipelines, experiments, reproducibility."""

import concurrent.futures
import dataclasses
import io
import json
import os
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


def test_construct_rejects_bad_length(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "code.json")
    code, _, err = run_cli(["construct", "--N", "12", "--K", "4", "--out", out],
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert "power of two" in err


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


def test_pipeline_length_errors(monkeypatch, capsys):
    code, _, err = run_cli(["encode"], stdin_text="1010",
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and "158" in err
    code, _, err = run_cli(["decode"], stdin_text="10",
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    code, _, err = run_cli(["scramble"], stdin_text="10x0",
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and "'0' and '1'" in err


def test_simulate_dist_outputs_and_rerun(tmp_path, monkeypatch, capsys):
    out1 = str(tmp_path / "a")
    argv = ["simulate-dist", "--sizes", "32:16", "--encoders", "nspe",
            "--scramble", "on", "--frames", "120", "--out-dir", out1]
    code, _, _ = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    csv1 = Path(out1, "dist_nspe_on_32x16.csv").read_bytes()
    summary1 = Path(out1, "summary.csv").read_bytes()
    sidecar = os.path.join(out1, "config.json")
    cfg = json.loads(Path(sidecar).read_text())
    assert cfg["frames"] == 120 and cfg["sizes"] == [[32, 16]]

    # Rerun solely from the sidecar into a fresh directory.  Older sidecars
    # carry a "workers" key, which the rerun ignores.
    cfg["workers"] = 3
    with open(sidecar, "w") as fh:
        json.dump(cfg, fh)
    out2 = str(tmp_path / "b")
    code, _, _ = run_cli(
        ["simulate-dist", "--config", sidecar, "--out-dir", out2],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
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


def test_simulate_dist_rejected_seed_leaves_no_directory(tmp_path, monkeypatch, capsys):
    out = tmp_path / "D"
    code, _, err = run_cli(
        ["simulate-dist", "--master-seed", "-1", "--frames", "5", "--out-dir", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and err.startswith("error: expected non-negative integer")
    assert not out.exists()


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


def test_simulate_dist_rejects_bad_encoder(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["simulate-dist", "--encoders", "magic", "--frames", "5",
         "--out-dir", str(tmp_path / "x")],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and "encoder" in err


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


def test_simulate_ber_rejects_unknown_code(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["simulate-ber", "--codes", "turbo", "--out", str(tmp_path / "x.csv")],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and "unknown code" in err


@pytest.mark.parametrize("code_name", ["rs15_7", "uncoded", "polar"])
def test_simulate_ber_rejects_zero_frame_bits(tmp_path, monkeypatch, capsys, code_name):
    code, _, err = run_cli(
        ["simulate-ber", "--codes", code_name, "--K", "0", "--ebn0", "10:1:10",
         "--max-frames", "10", "--out", str(tmp_path / "x.csv")],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and err.startswith("error: ")


def test_simulate_ber_rejects_negative_master_seed(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["simulate-ber", "--codes", "uncoded", "--ebn0", "10:1:10", "--max-frames", "10",
         "--master-seed", "-1", "--out", str(tmp_path / "x.csv")],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and err.startswith("error: expected non-negative integer")


def test_mftp_output(monkeypatch, capsys):
    code, out, _ = run_cli(["mftp", "--frame-bits", "256"],
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert "frame_time_ms=1.28" in out and "compliant=yes" in out
    code, out, _ = run_cli(["mftp", "--frame-bits", "2048"],
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert "frame_time_ms=10.24" in out and "compliant=NO" in out


@pytest.mark.parametrize("clock", ["nan", "inf", "0"])
def test_mftp_rejects_a_clock_that_is_not_finite_and_positive(monkeypatch, capsys, clock):
    code, out, err = run_cli(["mftp", "--clock-hz", clock], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: clock_hz must be finite and positive\n"


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


def test_missing_or_unwritable_files_exit_2(tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "missing.json")
    for argv in (["simulate-dist", "--config", missing, "--out-dir", str(tmp_path / "d")],
                 ["simulate-ber", "--config", missing, "--out", str(tmp_path / "b.csv")],
                 ["encode", "--spec", missing],
                 ["construct", "--out", str(tmp_path / "nodir" / "c.json")]):
        code, out, err = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2 and out == "" and err.startswith("error: "), argv
    assert sorted(os.listdir(tmp_path)) == []


def test_config_that_is_not_an_object_exits_2(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path / "list.json", [["sizes", [[16, 8]]]])
    out_dir = tmp_path / "d"
    code, out, err = run_cli(["simulate-dist", "--config", cfg, "--out-dir", str(out_dir)],
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == "" and "not a JSON object" in err
    assert not out_dir.exists()


def test_sidecar_ebn0_lacking_a_chosen_code_exits_2(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path / "c.json", {"codes": ["uncoded"], "ebn0": {"polar": [10.0]}})
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(["simulate-ber", "--config", cfg, "--out", str(out)],
                                monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == "" and "'ebn0'" in err and "'uncoded'" in err
    assert not out.exists()


def test_code_description_that_is_not_an_object_exits_2(tmp_path, monkeypatch, capsys):
    spec = _write_config(tmp_path / "spec.json", [])
    with pytest.raises(ValueError, match="JSON object"):
        load_spec(spec)
    code, out, err = run_cli(["encode", "--spec", spec], stdin_text="0" * 8,
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == "" and "JSON object" in err


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


@pytest.mark.parametrize("argv, n_in", [
    (["simulate-dist", "--config", "deep.json", "--out-dir", "d"], 0),
    (["simulate-ber", "--config", "deep.json", "--out", "x.csv"], 0),
    (["encode", "--spec", "deep.json"], 4),
    (["decode", "--spec", "deep.json"], 8),
], ids=["simulate-dist", "simulate-ber", "encode", "decode"])
def test_deeply_nested_json_exits_2_naming_the_file(tmp_path, monkeypatch, capsys, argv, n_in):
    # json's decoder recurses once per level: this once ended in a RecursionError traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000)
    code, out, err = run_cli(argv, stdin_text="0" * n_in, monkeypatch=monkeypatch,
                             capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "deep.json is nested too deeply" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == ["deep.json"]


DEEP_LIST = "[" * 500 + "]" * 500  # about 1,000 characters of JSON, still loadable in-process
LONG_LIST = json.dumps([0.5] * 200_000)  # about 1 MB
_DIST = ["simulate-dist", "--config", "bad.json", "--out-dir", "d"]
_SPEC = '{"n": 3, "N": 8, "K": 4, "eps": 0.5, "info_set": [%s]}'  # an item, checked as an int
ECHO_CASES = {f"{name}-{kind}": (argv, n_in, doc % value)
              for name, argv, n_in, doc in [
                  ("sizes", _DIST, 0, '{"sizes": [[%s]]}'),
                  ("frames", _DIST, 0, '{"frames": %s}'),
                  ("retired-amplitude", ["simulate-ber", "--config", "bad.json", "--out", "x.csv"],
                   0, '{"amplitude": %s}'),
                  ("encode-info_set", ["encode", "--spec", "bad.json"], 4, _SPEC),
                  ("decode-info_set", ["decode", "--spec", "bad.json"], 8, _SPEC)]
              for kind, value in (("deep", DEEP_LIST), ("long", LONG_LIST))}
ECHO_CASES["sizes-long-pair"] = (_DIST, 0, json.dumps({"sizes": [[0] * 200_000]}))
ECHO_CASES["sizes-long-repeat"] = (_DIST, 0, json.dumps({"sizes": [[7] * 100_000] * 2}))


@pytest.mark.parametrize("argv, n_in, doc", list(ECHO_CASES.values()), ids=list(ECHO_CASES))
def test_rejected_json_value_is_echoed_in_short(tmp_path, monkeypatch, capsys, argv, n_in, doc):
    # the error line once held the whole value: about 2,000 characters for a list nested
    # 980 deep, and every byte of a multi-megabyte one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(doc)
    code, out, err = run_cli(argv, stdin_text="0" * n_in, monkeypatch=monkeypatch,
                             capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.endswith("...\n") and len(err) < 160
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == ["bad.json"]


# one JSON value of each type
JSON_VALUES = {"null": None, "true": True, "int": 7, "float": 0.5, "string": "x", "list": [0],
               "object": {"x": 0}}


def json_values_rejected_for(default):
    """(type name, value) of each of JSON_VALUES that a setting or field with this default
    rejects: any of another type, where an int passes for a float and for None."""
    accepted = {type(default)} | ({int} if default is None or isinstance(default, float) else set())
    return [(kind, value) for kind, value in JSON_VALUES.items() if type(value) not in accepted]


MALFORMED_SPEC_CASES = {
    "info_set-int": ("info_set", 5), "n-null": ("n", None), "eps-list": ("eps", [0.5]),
    "n-float": ("n", 3.7), "K-float": ("K", 1.9), "info_set-float": ("info_set", [7.9]),
    "N-bool": ("N", True), "info_set-bool": ("info_set", [3, 5, 6, True]),
    "eps-text": ("eps", "0.5"),
}
MALFORMED_SPEC_CASES.update({f"{key}-as-{kind}": (key, value)
                             for key, example in cli._SPEC_FIELDS.items()
                             for kind, value in json_values_rejected_for(example)})


@pytest.mark.parametrize("key, value", list(MALFORMED_SPEC_CASES.values()),
                         ids=list(MALFORMED_SPEC_CASES))
@pytest.mark.parametrize("command, n_in", [("encode", 4), ("decode", 8)])
def test_malformed_code_description_exits_2(tmp_path, monkeypatch, capsys, command, n_in,
                                            key, value):
    doc = {"n": 3, "N": 8, "K": 4, "eps": 0.5, "info_set": [3, 5, 6, 7]}
    doc[key] = value
    spec = _write_config(tmp_path / "bad.json", doc)
    code, out, err = run_cli([command, "--spec", spec], stdin_text="0" * n_in,
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: code description field {key!r} must be ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == ["bad.json"]


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0, 1, -0.5])
@pytest.mark.parametrize("command, n_in", [("encode", 4), ("decode", 8)])
def test_code_description_eps_outside_0_1_exits_2(tmp_path, monkeypatch, capsys, command, n_in,
                                                  eps):
    doc = {"n": 3, "N": 8, "K": 4, "eps": eps, "info_set": [3, 5, 6, 7]}
    spec = _write_config(tmp_path / "bad.json", doc)
    code, out, err = run_cli([command, "--spec", spec], stdin_text="0" * n_in,
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: design erasure probability must lie in (0, 1)\n"


@pytest.mark.parametrize("n", [10**20, -1])
@pytest.mark.parametrize("command, n_in", [("encode", 4), ("decode", 8)])
def test_code_description_huge_or_negative_n_exits_2(tmp_path, monkeypatch, capsys, command, n_in,
                                                      n):
    # N is checked against n without 1 << n, which a huge n overflows and a negative n rejects
    doc = {"n": n, "N": 8, "K": 4, "eps": 0.5, "info_set": [3, 5, 6, 7]}
    spec = _write_config(tmp_path / "bad.json", doc)
    code, out, err = run_cli([command, "--spec", spec], stdin_text="0" * n_in,
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: N must equal 2**n\n"


@pytest.mark.parametrize("command, n_in", [("encode", 4), ("decode", 8)])
def test_code_description_with_no_info_bit_exits_2(tmp_path, monkeypatch, capsys, command, n_in):
    spec = _write_config(tmp_path / "k0.json", {"n": 3, "N": 8, "K": 0, "eps": 0.5, "info_set": []})
    code, out, err = run_cli([command, "--spec", spec], stdin_text="0" * n_in,
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: K must satisfy 0 < K <= N\n"


@pytest.mark.parametrize("argv", [
    ["encode", "--spec", "huge.json"],
    ["decode", "--spec", "huge.json"],
    ["construct", "--N", str(2**100), "--K", "1", "--out", "code.json"],
    ["simulate-ber", "--codes", "polar", "--N", str(2**100), "--out", "x.csv"],
], ids=lambda argv: argv[0])
def test_length_beyond_numpy_indexing_exits_2_naming_n(tmp_path, monkeypatch, capsys, argv):
    # checked before anything of length N, such as the 2**n-float profile, is built
    monkeypatch.chdir(tmp_path)
    _write_config("huge.json", {"n": 100, "N": 2**100, "K": 1, "eps": 0.5, "info_set": [3]})
    code, out, err = run_cli(argv, stdin_text="0", monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: N must not exceed {np.iinfo(np.intp).max}, got {2**100}\n"
    assert os.listdir(tmp_path) == ["huge.json"]


@pytest.mark.parametrize("flag, value, message", [
    ("--eps", "nan", "design erasure probability must lie in (0, 1)"),
    ("--eps", "1", "design erasure probability must lie in (0, 1)"),
    ("--N", "0", "N must be a power of two"),
    ("--N", "100", "N must be a power of two"),
])
def test_simulate_ber_checks_polar_settings_whatever_the_codes(tmp_path, monkeypatch, capsys,
                                                               flag, value, message):
    # the sidecar records N and eps for every run, and NaN is not JSON
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        ["simulate-ber", "--codes", "uncoded", "--ebn0", "10:1:10", "--max-frames", "10",
         flag, value, "--out", "x.csv"],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("text", ["-19", "-1"])
def test_scramble_rejects_a_negative_mask(monkeypatch, capsys, text):
    code, out, err = run_cli(["scramble", f"--poly={text}"], stdin_text="0101",
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: polynomial mask must be nonnegative\n"


def test_simulate_ber_missing_output_directory_fails_before_the_sweep(
        tmp_path, monkeypatch, capsys):
    out = tmp_path / "nodir" / "x.csv"
    code, stdout, err = run_cli(
        ["simulate-ber", "--codes", "uncoded", "--ebn0", "10:1:10", "--max-frames", "10",
         "--out", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == "" and err.startswith("error: ")
    assert not (tmp_path / "nodir").exists()


# Every setting of both experiments gets each JSON type its default rejects.  The worker count
# never gets an int or null, so no case can start a process.
@pytest.mark.parametrize("command, setting, value", [
    ("simulate-dist", "frames", "ten"),
    ("simulate-dist", "sizes", 5),
    ("simulate-dist", "sizes", [[16, "8"]]),
    ("simulate-ber", "exact_f", 1),
    ("simulate-ber", "workers", "two"),
    ("simulate-dist", "sizes", [[16]]),
] + [pytest.param(command, key, value, id=f"{command}-{key}-as-{kind}")
     for command, table in (("simulate-dist", cli.DIST_SETTINGS), ("simulate-ber", cli.BER_SETTINGS))
     for key, (default, _, _) in table.items()
     for kind, value in json_values_rejected_for(default)])
def test_sidecar_value_of_the_wrong_type_exits_2(tmp_path, monkeypatch, capsys,
                                                  command, setting, value):
    # no output flag, which would override the sidecar's out or out_dir: a run that wrongly went
    # ahead would write into the working directory
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path / "c.json", {setting: value})
    code, out, err = run_cli([command, "--config", "c.json"], monkeypatch=monkeypatch,
                             capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: config setting {setting!r} must be ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == ["c.json"]


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


def test_sidecar_with_an_unknown_key_exits_2(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path / "typo.json", {"sizes": [[16, 8]], "frame": 5})
    out_dir = tmp_path / "d"
    code, out, err = run_cli(["simulate-dist", "--config", cfg, "--out-dir", str(out_dir)],
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: config setting 'frame' is not a simulate-dist setting\n"
    assert not out_dir.exists()


def _ber_run_with_sidecar(tmp_path, monkeypatch, capsys):
    """A short uncoded simulate-ber run: (csv path, its sidecar as a dict)."""
    out = str(tmp_path / "run1.csv")
    code, _, _ = run_cli(["simulate-ber", "--codes", "uncoded", "--ebn0", "11:1:12",
                          "--min-errors", "20", "--max-frames", "600", "--batch", "200",
                          "--out", out], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    return out, json.loads(Path(out + ".config.json").read_text())


@pytest.mark.parametrize("value", [1.0, 1], ids=["float", "int"])
def test_sidecar_with_the_retired_on_level_at_1_reruns_byte_for_byte(
        tmp_path, monkeypatch, capsys, value):
    # sidecars written while the on-level was a setting record "amplitude": 1.0
    out, cfg = _ber_run_with_sidecar(tmp_path, monkeypatch, capsys)
    assert "amplitude" not in cfg
    cfg["amplitude"] = value
    again = str(tmp_path / "run2.csv")
    code, _, err = run_cli(["simulate-ber", "--config", _write_config(tmp_path / "old.json", cfg),
                            "--out", again], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and err == ""
    assert Path(again).read_bytes() == Path(out).read_bytes()
    assert "amplitude" not in json.loads(Path(again + ".config.json").read_text())


@pytest.mark.parametrize("value, shown", [(2.0, "2.0"), (True, "true"), ("1.0", '"1.0"')],
                         ids=["2.0", "true", "text"])
def test_sidecar_with_the_retired_on_level_at_another_value_exits_2(
        tmp_path, monkeypatch, capsys, value, shown):
    _, cfg = _ber_run_with_sidecar(tmp_path, monkeypatch, capsys)
    cfg["amplitude"] = value
    again = tmp_path / "run2.csv"
    code, stdout, err = run_cli(
        ["simulate-ber", "--config", _write_config(tmp_path / "old.json", cfg),
         "--out", str(again)], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: config setting 'amplitude' is retired and must be 1.0, got {shown}\n"
    assert not again.exists() and not os.path.exists(str(again) + ".config.json")


def test_retired_amplitude_flag_is_a_usage_error(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate-ber", "--codes", "uncoded", "--amplitude", "1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --amplitude 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, want", [
    (["simulate-dist", "--encoders", ","], "error: setting 'encoders' is empty\n"),
    (["simulate-dist", "--encoders", ""], "error: setting 'encoders' is empty\n"),
    (["simulate-ber", "--codes", ""], "error: setting 'codes' is empty\n"),
    (["simulate-ber", "--codes", " , "], "error: setting 'codes' is empty\n"),
], ids=["encoders-comma", "encoders-blank", "codes-blank", "codes-comma"])
def test_empty_selection_exits_2_before_any_output(tmp_path, monkeypatch, capsys, argv, want):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == "" and err == want
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, doc, want", [
    ("simulate-dist", {"encoders": []}, "setting 'encoders' is empty"),
    ("simulate-dist", {"sizes": []}, "setting 'sizes' is empty"),
    ("simulate-ber", {"codes": []}, "setting 'codes' is empty"),
    ("simulate-ber", {"codes": ["uncoded"], "ebn0": {"uncoded": []}},
     "config setting 'ebn0' has no sweep for code 'uncoded'"),
], ids=["encoders", "sizes", "codes", "ebn0"])
def test_empty_selection_in_a_sidecar_exits_2(tmp_path, monkeypatch, capsys, command, doc, want):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path / "c.json", doc)
    code, stdout, err = run_cli([command, "--config", cfg], monkeypatch=monkeypatch,
                                capsys=capsys)
    assert code == 2 and stdout == "" and err == f"error: {want}\n"
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("command, flag, text, doc, want", [
    ("simulate-dist", "--encoders", "nspe,systematic,nspe", {"encoders": ["nspe", "nspe"]},
     'setting \'encoders\' repeats "nspe"'),
    ("simulate-dist", "--sizes", "16:8,32:16,16:8", {"sizes": [[16, 8], [32, 16], [16, 8]]},
     "setting 'sizes' repeats [16, 8]"),
    ("simulate-ber", "--codes", "uncoded,uncoded", {"codes": ["uncoded", "uncoded"]},
     'setting \'codes\' repeats "uncoded"'),
], ids=["encoders", "sizes", "codes"])
def test_repeated_selection_exits_2_before_any_output(tmp_path, monkeypatch, capsys,
                                                      command, flag, text, doc, want):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli([command, flag, text], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == "" and err == f"error: {want}\n"
    assert os.listdir(tmp_path) == []
    cfg = _write_config(tmp_path / "c.json", doc)
    code, stdout, err = run_cli([command, "--config", cfg], monkeypatch=monkeypatch,
                                capsys=capsys)
    assert code == 2 and stdout == "" and err == f"error: {want}\n"
    assert os.listdir(tmp_path) == ["c.json"]


def test_sidecar_of_the_other_command_exits_2(tmp_path, monkeypatch, capsys):
    dist_dir = tmp_path / "d"
    argv = ["simulate-dist", "--sizes", "16:8", "--frames", "5", "--out-dir", str(dist_dir)]
    assert run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)[0] == 0
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(
        ["simulate-ber", "--config", str(dist_dir / "config.json"), "--out", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == ""
    assert "simulate-dist" in err and "simulate-ber" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--ebn0", "0:inf:12"],
    ["--ebn0", "0:1:inf"],
    ["--ebn0", "nan:1:12"],
    ["--ebn0=-inf:1:12"],
    ["--ebn0=-4000:1:-4000"],
    ["--ebn0", "4000:1:4000"],
    *(["--ebn0=" + text] for text in OVER_LONG_SWEEPS),
])
def test_simulate_ber_rejects_non_finite_ebn0_or_amplitude(tmp_path, monkeypatch, capsys,
                                                          extra):
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(
        ["simulate-ber", "--codes", "uncoded", "--max-frames", "10", *extra, "--out", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == "" and err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    ("NaN", "Eb/N0 must be finite and within 3000 dB of 0, got nan dB"),
    ("4000.0", "Eb/N0 must be finite and within 3000 dB of 0, got 4000.0 dB"),
], ids=["nan", "4000"])
def test_sidecar_nan_ebn0_exits_2(tmp_path, monkeypatch, capsys, value, message):
    cfg = tmp_path / "c.json"
    # the bad value on the second code is found before the first code's point is simulated
    cfg.write_text('{"codes": ["uncoded", "rs15_7"], '
                   f'"ebn0": {{"uncoded": [10.0], "rs15_7": [{value}]}}, "max_frames": 10}}')
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(["simulate-ber", "--config", str(cfg), "--out", str(out)],
                                monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_ber_rejects_a_worker_count_below_one(tmp_path, monkeypatch, capsys):
    out = tmp_path / "z.csv"
    code, stdout, err = run_cli(
        ["simulate-ber", "--codes", "uncoded", "--workers", "-3", "--out", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == ""
    assert err == "error: min_errors, max_frames, batch and workers must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["3000000000", str(10**20)])
def test_simulate_ber_worker_count_beyond_a_c_int_runs_like_one_worker(tmp_path, monkeypatch,
                                                                      capsys, workers):
    sizes = []

    class Executor:
        """Runs each batch as it is submitted, so no process starts."""

        def __init__(self, processes, **_):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, func, *args):
            future = concurrent.futures.Future()
            future.set_result(func(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
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


def test_simulate_ber_frame_too_large_for_memory_exits_2(tmp_path, monkeypatch, capsys):
    # 2^58 one-byte bits per frame: beyond the 57-bit virtual address space of
    # any 64-bit machine, so the allocation fails and is never granted.
    out = tmp_path / "y.csv"
    code, stdout, err = run_cli(
        ["simulate-ber", "--codes", "uncoded", "--K", str(2**58), "--max-frames", "1",
         "--batch", "1", "--out", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == "" and err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


# Per setting, a flag's text and the sidecar value it stands for; out and out_dir take a path.
ROW_SAMPLES = {
    "sizes": ("16:8,32:20", [[16, 8], [32, 20]]),
    "encoders": ("nspe,systematic", ["nspe", "systematic"]),
    "scramble": ("off", "off"),
    "p1": ("0.25", 0.25),
    "frames": ("7", 7),
    "eps": ("0.375", 0.375),
    "poly": ("1d", 0x1D),
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


@pytest.mark.parametrize("command, flag, text, want", [
    ("simulate-dist", "--frames", "ten", "error: argument --frames: invalid literal for int()"),
    ("simulate-ber", "--eps", "loud",
     "error: argument --eps: could not convert string to float: 'loud'"),
    ("simulate-dist", "--poly", "zz", "error: argument --poly: not a hex value: 'zz'"),
    ("simulate-ber", "--ebn0", "10:1", "error: argument --ebn0: bad sweep '10:1'"),
    ("simulate-dist", "--sizes", "16-8", "error: argument --sizes: bad size '16-8'"),
    ("simulate-dist", "--scramble", "bogus", "error: scramble must be on, off or both"),
])
def test_bad_flag_text_exits_2_naming_the_flag(tmp_path, monkeypatch, capsys,
                                               command, flag, text, want):
    out = tmp_path / "o"
    out_flag = "--out-dir" if command == "simulate-dist" else "--out"
    code, stdout, err = run_cli([command, flag, text, out_flag, str(out)],
                                monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == "" and err.startswith(want)
    assert not out.exists()


@pytest.mark.parametrize("argv, want", [
    (["construct", "--N", "ten"], "error: argument --N: invalid literal for int()"),
    (["scramble", "--poly", "zz"], "error: argument --poly: not a hex value: 'zz'"),
    (["scramble", "--seed", "zz"], "error: argument --seed: not a hex value: 'zz'"),
    (["encode", "--encoder", "bogus"], "error: unknown encoder 'bogus'"),
    (["mftp", "--frame-bits", "many"], "error: argument --frame-bits: invalid literal for int()"),
    (["mftp", "--clock-hz", "x"], "error: argument --clock-hz: could not convert string to float"),
], ids=["construct-N", "scramble-poly", "scramble-seed", "encode-encoder", "mftp-frame-bits",
        "mftp-clock-hz"])
def test_pipeline_bad_flag_text_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                            argv, want):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(argv, stdin_text="0" * 158, monkeypatch=monkeypatch,
                                capsys=capsys)
    assert code == 2 and stdout == "" and err.startswith(want)
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("taken", ["x.csv", "x.csv.config.json"])
def test_simulate_ber_output_that_is_a_directory_fails_before_the_sweep(
        tmp_path, monkeypatch, capsys, taken):
    (tmp_path / taken).mkdir()
    code, stdout, err = run_cli(
        ["simulate-ber", "--codes", "uncoded", "--ebn0", "10:1:10", "--max-frames", "10",
         "--out", str(tmp_path / "x.csv")],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: output {str(tmp_path / taken)!r} is a directory\n"
    assert os.listdir(tmp_path) == [taken] and os.listdir(tmp_path / taken) == []


def test_simulate_dist_out_dir_that_is_a_file_fails_before_the_first_run(
        tmp_path, monkeypatch, capsys):
    out = tmp_path / "d"
    out.write_text("kept\n")
    code, stdout, err = run_cli(
        ["simulate-dist", "--sizes", "16:8", "--frames", "5", "--out-dir", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: output directory {str(out)!r} is not a directory\n"
    assert os.listdir(tmp_path) == ["d"] and out.read_text() == "kept\n"


def test_simulate_ber_bad_polar_size_fails_before_the_first_point(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(
        ["simulate-ber", "--codes", "uncoded,polar", "--N", "100", "--ebn0", "10:1:11",
         "--max-frames", "20000", "--out", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == "" and err == "error: N must be a power of two\n"
    assert not out.exists()


def test_simulate_dist_bad_later_size_leaves_no_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "d"
    code, stdout, err = run_cli(
        ["simulate-dist", "--sizes", "16:8,100:50", "--frames", "50", "--out-dir", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == "" and err == "error: N must be a power of two\n"
    assert not out.exists()


@pytest.mark.parametrize("taken", ["summary.csv", "config.json", "dist_nspe_on_16x8.csv"])
def test_simulate_dist_output_file_that_is_a_directory_fails_before_the_first_run(
        tmp_path, monkeypatch, capsys, taken):
    out = tmp_path / "d"
    (out / taken).mkdir(parents=True)
    code, stdout, err = run_cli(
        ["simulate-dist", "--sizes", "16:8", "--frames", "5", "--out-dir", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: output {str(out / taken)!r} is a directory\n"
    assert os.listdir(out) == [taken] and os.listdir(out / taken) == []


def test_simulate_dist_out_dir_under_a_file_fails_before_the_first_run(
        tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")
    out = blocker / "sub" / "deeper"
    code, stdout, err = run_cli(
        ["simulate-dist", "--sizes", "16:8", "--frames", "5", "--out-dir", str(out)],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: output directory {str(blocker)!r} is not a directory\n"
    assert os.listdir(tmp_path) == ["afile"] and blocker.read_text() == "kept\n"


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
    assert [args[2:5] for args in draws] == [(300, 158, 0.9), (300, 16, 0.9)]
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
