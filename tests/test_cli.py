"""End-to-end runs of the command line entry point, in process."""

import hashlib
import json
import re
import xml.etree.ElementTree as ET

import pytest

from qmonogamy import nonmarkov_witness_row, random_markov_verify
from qmonogamy.cli import build_parser, main

FLOAT_FIELD = re.compile(r"^-?\d\.\d{11}e[+-]\d{2}$")


def _lines(capsys):
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return out[:-1].split("\n")


def test_sweep_qmmi_default_grid(capsys):
    assert main(["sweep-qmmi"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "lambda,DP1,DP2,DP3,DP4,M4"
    assert len(lines) == 102
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        assert all(FLOAT_FIELD.match(f) for f in fields)


def test_sweep_rows_round_trip_to_library_values(capsys):
    assert main(["sweep-qmmi", "--lambda-min", "0.1", "--lambda-max", "0.1",
                 "--step", "0.01"]) == 0
    fields = [float(f) for f in _lines(capsys)[1].split(",")]
    want = nonmarkov_witness_row(0.1)
    for got, name in zip(fields, ("lambda", "DP1", "DP2", "DP3", "DP4", "M4")):
        assert got == pytest.approx(want[name], abs=1e-10)
    # the low-lambda region: monogamy violated, plain DPIs satisfied
    assert fields[5] < 0
    assert all(v >= 0 for v in fields[1:5])


def test_sweep_mqmmi_header(capsys):
    assert main(["sweep-mqmmi", "--lambda-min", "0.4", "--lambda-max", "0.45",
                 "--step", "0.05"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "lambda,M4_q1,M4_q2,M4_q3"
    assert len(lines) == 3


def test_sweep_dpi_extra_header(capsys):
    assert main(["sweep-dpi-extra", "--lambda-min", "0.3", "--lambda-max", "0.3",
                 "--step", "0.01"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "lambda,DP5_markov,DP5,DP6,DP7"


def test_json_format_structure(capsys):
    assert main(["sweep-qmmi", "--lambda-min", "0.0", "--lambda-max", "0.1",
                 "--step", "0.05", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == ["lambda", "DP1", "DP2", "DP3", "DP4", "M4"]
    assert len(doc["rows"]) == 3
    assert all(len(row) == 6 for row in doc["rows"])
    assert doc["rows"][2][0] == pytest.approx(0.1)


def test_output_files_are_byte_identical_across_runs(tmp_path):
    args = ["sweep-dpi-extra", "--lambda-min", "0.2", "--lambda-max", "0.3",
            "--step", "0.05"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"lambda,DP5_markov")


# sha256 of each sweep's default-grid CSV; a refactor of the witnesses must
# leave these bytes alone
DEFAULT_GRID_CSV_SHA256 = {
    "sweep-qmmi": "0f65b12ab613043ed8735b592541460629ab15cf15fc780e440e5779dd3391f9",
    "sweep-mqmmi": "8f7988b2ae8fdd251f337c0b0bd1fb8461d211f6c4d714950564664cc921bc56",
    "sweep-dpi-extra": "08ea7d8dd845ab533c2846e5ed44eaf408ce9ea72c87cfba4b8845932bda061b",
}


@pytest.mark.parametrize("command", sorted(DEFAULT_GRID_CSV_SHA256))
def test_default_grid_csv_bytes_are_pinned(tmp_path, command):
    out = tmp_path / "sweep.csv"
    assert main([command, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_GRID_CSV_SHA256[command]


@pytest.mark.parametrize("command", sorted(DEFAULT_GRID_CSV_SHA256))
def test_sweeps_take_no_seed(tmp_path, capsys, command):
    # a sweep draws nothing, so --seed is verify's alone; the default bytes
    # stay those pinned above
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    out = tmp_path / "sweep.csv"
    assert main([command, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_GRID_CSV_SHA256[command]


def test_svg_lands_next_to_the_output_file(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-qmmi", "--lambda-min", "0.0", "--lambda-max", "0.3",
                 "--step", "0.1", "--output", str(out), "--svg"]) == 0
    svg = tmp_path / "sweep.svg"
    assert svg.exists()
    text = svg.read_text()
    assert text.lstrip().startswith("<svg")
    assert "polyline" in text
    ET.fromstring(text)  # well-formed XML


def test_svg_of_a_one_point_grid(tmp_path):
    out = tmp_path / "point.csv"
    assert main(["sweep-qmmi", "--lambda-min", "0.5", "--lambda-max", "0.5",
                 "--output", str(out), "--svg"]) == 0
    ET.fromstring((tmp_path / "point.svg").read_text())


def test_svg_requires_an_output_file(capsys):
    assert main(["sweep-qmmi", "--svg"]) == 2
    assert "--output" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_svg_may_not_overwrite_the_output_file(tmp_path, capsys, fmt):
    out = tmp_path / "plot.svg"
    assert main(["sweep-qmmi", "--step", "0.5", "--format", fmt,
                 "--output", str(out), "--svg"]) == 2
    err = capsys.readouterr().err
    assert err.count(str(out)) == 2  # the chart path and the output path
    assert not out.exists()  # refused before anything was computed or written


def test_verify_quick_run_passes(capsys):
    assert main(["verify", "--samples", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["counterexample_seed"] is None
    assert set(doc["witness_minima"]) == {"DP1", "DP2", "DP3", "DP4", "M4"}
    for key in ("ssa_certificate_min", "certificate_max_mismatch",
                "adjoint_identity_max_deviation", "adjoint_unitality_max_deviation",
                "cqmi_monotonicity_min", "mi_monotonicity_min", "cmi_min",
                "classical_cmmi_min"):
        assert key in doc


def test_verify_flags_a_violation(capsys, monkeypatch):
    def fake_survey(steps, samples, seed=0, **_):
        return {"steps": steps, "samples": samples, "seed": seed,
                "witness_minima": {"M4": -0.5},
                "ssa_certificate_min": 0.0,
                "certificate_max_mismatch": 0.0,
                "counterexample_seed": 123}

    monkeypatch.setattr("qmonogamy.cli.random_markov_verify", fake_survey)
    assert main(["verify", "--samples", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["counterexample_seed"] == 123


def test_verify_refuses_a_negative_seed_by_name(capsys):
    assert main(["verify", "--samples", "2", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"


def test_successive_calls_share_one_parser_but_no_parsed_state(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    grid = ["sweep-qmmi", "--lambda-max", "0.2", "--step", "0.1"]
    assert main(grid + ["--output", str(first), "--svg"]) == 0
    assert main(grid + ["--output", str(second)]) == 0
    assert (tmp_path / "first.svg").exists()
    assert not (tmp_path / "second.svg").exists()
    assert first.read_bytes() == second.read_bytes()
    assert build_parser() is build_parser()


def test_verify_emits_json_only(capsys):
    assert main(["verify", "--format", "csv"]) == 2
    assert "JSON" in capsys.readouterr().err


def test_verify_rejects_zero_samples(capsys):
    assert main(["verify", "--samples", "0"]) == 2
    assert "sample" in capsys.readouterr().err


def test_verify_default_dims_leave_the_output_unchanged(tmp_path):
    plain, explicit = tmp_path / "plain.json", tmp_path / "explicit.json"
    assert main(["verify", "--samples", "2", "--output", str(plain)]) == 0
    assert main(["verify", "--samples", "2", "--dims", "2", "2",
                 "--output", str(explicit)]) == 0
    assert plain.read_bytes() == explicit.read_bytes()


def test_verify_reports_its_dims(capsys):
    assert main(["verify", "--samples", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [2, 2]
    assert main(["verify", "--samples", "2", "--dims", "3", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == [3, 2]
    assert list(doc)[:4] == ["steps", "samples", "seed", "dims"]


def test_verify_passes_dims_to_the_survey(capsys, monkeypatch):
    seen = {}
    real = random_markov_verify

    def spy(steps, samples, **kwargs):
        seen.update(kwargs)
        return real(steps, samples, **kwargs)

    monkeypatch.setattr("qmonogamy.cli.random_markov_verify", spy)
    assert main(["verify", "--samples", "2", "--dims", "3", "1"]) == 0
    assert seen["dims"] == (3, 1)
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("steps,dims,reason", [
    ("4", ("1", "2"), "system dimension"), ("4", ("2", "0"), "environment dimensions"),
    ("8", ("2", "65"), "16900 entries"), ("4", ("12", "1"), "20736 entries")])
def test_verify_rejects_bad_dims(capsys, steps, dims, reason):
    assert main(["verify", "--steps", steps, "--samples", "2", "--dims", *dims]) == 2
    assert reason in capsys.readouterr().err


def test_verify_runs_past_the_purified_circuit_size(capsys):
    # R, seven 4-dimensional environments and S would be 65536 amplitudes;
    # no sample holds a matrix larger than 8 x 8
    assert main(["verify", "--steps", "8", "--samples", "2", "--dims", "2", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("step,reason", [("1e-300", "grid points"), ("nan", "finite")])
def test_sweep_rejects_a_degenerate_step(capsys, step, reason):
    assert main(["sweep-qmmi", "--step", step]) == 2
    assert reason in capsys.readouterr().err


def test_unwritable_output_path_is_a_clean_failure(capsys):
    assert main(["sweep-qmmi", "--lambda-min", "0", "--lambda-max", "0",
                 "--output", "/no-such-dir/x.csv"]) == 2
    assert capsys.readouterr().err != ""


def test_bad_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["sweep-everything"])
    assert exc.value.code == 2
