"""Command-line interface tests: pipelines, experiments, reproducibility."""

import io
import json
import os
import sys

import numpy as np
import pytest

from beaconphy import cli
from beaconphy.polar_codec import encode_nspe
from beaconphy.polar_construction import construct, load
from beaconphy.scrambler import ScramblerSpec, keystream


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    """Invoke the entry point; returns (exit_code, stdout, stderr)."""
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


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
    assert load(out) == construct(32, 20)
    assert os.path.exists(out + ".config.json")
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
    csv1 = open(os.path.join(out1, "dist_nspe_on_32x16.csv"), "rb").read()
    summary1 = open(os.path.join(out1, "summary.csv"), "rb").read()
    sidecar = os.path.join(out1, "config.json")
    cfg = json.load(open(sidecar))
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
    csv2 = open(os.path.join(out2, "dist_nspe_on_32x16.csv"), "rb").read()
    summary2 = open(os.path.join(out2, "summary.csv"), "rb").read()
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
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert len(summary) == 5
    for line in summary[1:]:
        enc, scr, n, k, _, frames, lo, hi, mean = line.split(",")
        rows = open(os.path.join(out, f"dist_{enc}_{scr}_{n}x{k}.csv")).read().splitlines()
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
    body1 = open(out1, "rb").read()
    lines = body1.decode().splitlines()
    assert lines[0] == "code,ebn0_db,bits,bit_errors,frames,frame_errors,ber"
    assert all(line.startswith("uncoded,") for line in lines[1:])

    sidecar = out1 + ".config.json"
    out2 = str(tmp_path / "ber2.csv")
    code, _, _ = run_cli(
        ["simulate-ber", "--config", sidecar, "--out", out2, "--workers", "2"],
        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    body2 = open(out2, "rb").read()
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


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch, capsys):
    assert cli._build_parser() is cli._build_parser()
    # a usage error, then a clean call through the same parser
    with pytest.raises(SystemExit) as exc:
        cli.main(["mftp", "--frame-bits", "many"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    code, out, _ = run_cli(["mftp"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and "frame_bits=256 " in out

    # a store_true flag does not stick to the next call
    base = ["simulate-ber", "--codes", "polar", "--N", "16", "--K", "8", "--ebn0", "10:1:10",
            "--max-frames", "4", "--batch", "4", "--workers", "1"]
    exact, plain = str(tmp_path / "exact.csv"), str(tmp_path / "plain.csv")
    assert run_cli(base + ["--exact-f", "--out", exact], capsys=capsys)[0] == 0
    assert run_cli(base + ["--out", plain], capsys=capsys)[0] == 0
    assert json.load(open(exact + ".config.json"))["exact_f"] is True
    assert json.load(open(plain + ".config.json"))["exact_f"] is False
