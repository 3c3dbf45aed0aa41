"""Command-line behavior: flags, config files, artifacts, exit codes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blowup.cli import build_parser, emit_csv, emit_svg, main, read_config_file
from blowup.discrete import Grid

# a small grid keeps each CLI invocation well under a second
FAST = ["--z", "10", "--n", "100"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# verdicts and exit codes
# --------------------------------------------------------------------------

def test_local_verdict_exit_zero(tmp_path, capsys):
    code, out, _ = run_cli(
        ["--field", "x^2", *FAST, "--lambda", "1", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "LOCAL"
    assert (tmp_path / "eigenfunction.csv").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "figure.svg").exists()


def test_global_verdict_exit_zero(tmp_path, capsys):
    code, out, _ = run_cli(["--field", "-x", *FAST, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "GLOBAL"


def test_inconclusive_exit_two(tmp_path, capsys):
    # stopping a decaying run mid-collapse leaves the norm ratio between
    # the two thresholds, which must never be coerced to a verdict
    code, out, _ = run_cli(
        ["--field", "-x^2", *FAST, "--max-iters", "40", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert out.splitlines()[0] == "INCONCLUSIVE"


def test_syntax_error_exit_one(tmp_path, capsys):
    code, _, err = run_cli(["--field", "x*(x", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "offset" in err


# sin(x^400) meets an infinity at x = 6, where x^400 overflows, and
# 2^(x^400) overflows from x = 1.25 on
@pytest.mark.parametrize("text, x", [("sin(x^400)", 6.0), ("2^(x^400)", 1.25)])
def test_unsampleable_field_exit_two_with_its_evidence(tmp_path, capsys, text, x):
    code, out, err = run_cli(["--field", text, "--n", "40", "--out", str(tmp_path)], capsys)
    assert (code, out.splitlines()[0], err) == (2, "INCONCLUSIVE", "")
    evidence = json.loads((tmp_path / "report.json").read_text())["evidence"]
    assert [ev["error"] for ev in evidence] == [
        f"{text!r} has no finite real value at x={x!r}"
    ]


@pytest.mark.parametrize("text, reason", [
    ("x*1e400", "number out of range (offset 2)"),
    ("-" * 300 + "x", "expression nested too deeply (offset 0)"),
    ("x" + "+x" * 3000, "expression nested too deeply (offset 0)"),
])
def test_unparsable_field_exit_one(tmp_path, capsys, text, reason):
    code, out, err = run_cli([f"--field={text}", "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (1, "", f"error: {reason}\n")


def test_usage_error_exit_one(capsys):
    code, _, err = run_cli(["--bogus"], capsys)
    assert code == 1
    assert "--bogus" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--field", "x^2", "--init", "foo"], "invalid choice: 'foo'"),
        (["--field", "x^2", "--z"], "argument --z: expected one argument"),
    ],
)
def test_usage_error_names_its_problem(argv, reason, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert reason in err
    assert out == ""


def test_missing_field_exit_one(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "field" in err


def test_invalid_values_exit_one(tmp_path, capsys):
    assert run_cli(["--field", "x^2", "--n", "1"], capsys)[0] == 1
    assert run_cli(["--field", "x^2", "--z", "-3"], capsys)[0] == 1
    assert run_cli(["--field", "x^2", "--lambda", "oops"], capsys)[0] == 1
    assert run_cli(["--field", "x^2", "--emit", "pdf"], capsys)[0] == 1
    assert run_cli(["--field", "x^2", "--max-iters", "0"], capsys)[0] == 1
    for flag, value in (("--lambda", "nan"), ("--lambda", "inf"), ("--z", "inf")):
        code, _, err = run_cli(["--field", "x^2", flag, value], capsys)
        assert code == 1
        assert f"got {value}" in err


def test_negative_seed_is_named_in_the_error(capsys):
    code, out, err = run_cli(
        ["--field", "x^2", "--n", "40", "--init", "random", "--seed", "-1"], capsys
    )
    assert code == 1
    assert "seed" in err and "-1" in err
    assert "wrote" not in out


def test_empty_lists_are_rejected_from_flags_and_files(tmp_path, capsys):
    for key, message in (
        ("emit", "emit list is empty"),
        ("lambda", "argument --lambda: invalid float value: ''"),
    ):
        code, out, err = run_cli(
            ["--field", "x^2", *FAST, f"--{key}", "", "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert message in err
        assert "wrote" not in out
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"field = x^2\n{key} =\n")
        code, _, err = run_cli(["--config", str(cfg)], capsys)
        assert code == 1
        assert message in err


def test_lambda_takes_one_value_from_flags_and_files(tmp_path, capsys):
    code, out, err = run_cli(
        ["--field", "x^2", *FAST, "--lambda", "0.5,1", "--out", str(tmp_path)], capsys
    )
    assert code == 1
    assert "argument --lambda: invalid float value: '0.5,1'" in err
    assert "wrote" not in out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field = x^2\nlambda = 0.5,1\n")
    code, _, err = run_cli(["--config", str(cfg)], capsys)
    assert code == 1
    assert "argument --lambda: invalid float value: '0.5,1'" in err


@pytest.mark.parametrize("flags, lam", [([], 1.0), (["--lambda", "2"], 2.0)])
def test_sweep_is_three_by_three_at_one_lambda(tmp_path, capsys, flags, lam):
    code, _, _ = run_cli(
        ["--field", "x^2", "--z", "10", "--n", "40", "--sweep", *flags,
         "--emit", "json", "--out", str(tmp_path)],
        capsys,
    )
    assert code != 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["plan"]["ns"], report["plan"]["zs"]) == ([20, 40, 80], [10.0, 20.0, 40.0])
    assert report["plan"]["lam"] == lam and report["lam"] == lam
    assert [(ev["n"], ev["z"], ev["lam"]) for ev in report["evidence"]] == [
        (n, z, lam) for n in (20, 40, 80) for z in (10.0, 20.0, 40.0)
    ]


def test_config_sweep_accepts_only_boolean_words(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field = x^2\nsweep = ture\n")
    code, _, err = run_cli(["--config", str(cfg)], capsys)
    assert code == 1
    assert "ture" in err
    cfg.write_text("field = x^2\nz = 10\nn = 100\nsweep = No\n")
    code, _, _ = run_cli(["--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["evidence"]) == 1


# --------------------------------------------------------------------------
# artifacts
# --------------------------------------------------------------------------

def test_csv_shape_and_round_trip(tmp_path, capsys):
    run_cli(["--field", "x^2", *FAST, "--out", str(tmp_path)], capsys)
    lines = (tmp_path / "eigenfunction.csv").read_text().splitlines()
    assert lines[0] == "x,g"
    assert len(lines) == 102  # header + one row per node
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs[0] == 0.0
    assert xs[-1] == 10.0
    # 12 significant digits survive a parse round-trip
    gs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(np.isfinite(gs))


def test_csv_uses_lf_endings(tmp_path, capsys):
    run_cli(["--field", "x^2", *FAST, "--out", str(tmp_path)], capsys)
    raw = (tmp_path / "eigenfunction.csv").read_bytes()
    assert b"\r" not in raw


def test_report_json_contents(tmp_path, capsys):
    run_cli(
        ["--field", "x^2", *FAST, "--lambda", "1", "--out", str(tmp_path)], capsys
    )
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema"] == 1
    assert report["field"] == "x^2"
    assert report["verdict"] == "Local"
    assert report["grid"] == {"z": 10.0, "n": 100}
    assert len(report["evidence"]) == 1
    ev = report["evidence"][0]
    assert set(ev) == {"n", "z", "lam", "norm_ratio", "rel_residual", "label", "error"}
    plan = report["plan"]
    assert plan["theta_local"] == 0.1
    assert plan["theta_global"] == 1e-4
    assert plan["rho_max"] == 0.01
    assert report["cross_validation"]["agreement"] is True
    assert len(report["cross_validation"]["probes"]) == 8


def test_rerun_reproduces_artifacts_bitwise(tmp_path, capsys):
    args = ["--field", "x^2", *FAST, "--lambda", "1"]
    run_cli([*args, "--out", str(tmp_path / "a")], capsys)
    run_cli([*args, "--out", str(tmp_path / "b")], capsys)
    for name in ("eigenfunction.csv", "report.json", "figure.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_emit_subset(tmp_path, capsys):
    run_cli(["--field", "x^2", *FAST, "--emit", "csv", "--out", str(tmp_path)], capsys)
    assert (tmp_path / "eigenfunction.csv").exists()
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "figure.svg").exists()


def test_svg_structure(tmp_path, capsys):
    run_cli(["--field", "x^2", *FAST, "--out", str(tmp_path)], capsys)
    svg = (tmp_path / "figure.svg").read_text()
    assert svg.startswith("<?xml")
    assert "<polyline" in svg
    assert "x^2" in svg
    assert svg.count("<svg") == 1


def test_emit_csv_three_nodes(tmp_path):
    path = tmp_path / "tiny.csv"
    emit_csv(Grid(1.0, 2), [0.0, 0.5, 1.0], str(path))
    assert path.read_text() == "x,g\n0,0\n0.5,0.5\n1,1\n"


def test_emit_svg_constant_profile_is_horizontal(tmp_path):
    path = tmp_path / "flat.svg"
    emit_svg(Grid(4.0, 4), np.full(5, 2.0), "flat", str(path))
    svg = path.read_text()
    points = svg.split('points="')[1].split('"')[0]
    ys = {pair.split(",")[1] for pair in points.split()}
    assert len(ys) == 1


def test_svg_escapes_markup_in_title(tmp_path):
    path = tmp_path / "esc.svg"
    emit_svg(Grid(1.0, 2), [0.0, 1.0, 0.0], "a<b", str(path))
    svg = path.read_text()
    assert "a&lt;b" in svg
    assert "a<b" not in svg


# --------------------------------------------------------------------------
# config file
# --------------------------------------------------------------------------

def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# settings\nfield = x^2\nz = 10\nn = 100\nlambda = 1\n"
    )
    code, out, _ = run_cli(["--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "LOCAL"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["grid"]["n"] == 100


def test_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field = x^2\nn = 50\nz = 10\n")
    run_cli(["--config", str(cfg), "--n", "100", "--out", str(tmp_path)], capsys)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["grid"]["n"] == 100


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field = x^2\ncolour = red\n")
    code, _, err = run_cli(["--config", str(cfg)], capsys)
    assert code == 1
    assert "colour" in err


@pytest.mark.parametrize(
    "line, key", [("fie = x^2", "--fie"), ("config = other.cfg", "'config'")]
)
def test_config_key_must_name_a_flag_exactly(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"field = x^2\n{line}\n")
    code, out, err = run_cli(["--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert key in err
    assert "wrote" not in out


@pytest.mark.parametrize(
    "word, sweep",
    [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("fAlSe", False), ("NO", False),
    ],
)
def test_config_sweep_reads_each_boolean_word_in_any_case(tmp_path, word, sweep):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"field = x^2\nsweep = {word}\n")
    args = build_parser().parse_args(read_config_file(str(cfg)))
    assert args.sweep is sweep


def test_flag_beats_config_for_every_key(tmp_path, capsys):
    # the file sets every key to a value that fails or differs; the flags
    # set every key again, so the run must equal the flags-only run
    flags = [
        "--field", "x^2", "--z", "10", "--n", "40", "--lambda", "1",
        "--sweep=no", "--init", "random", "--seed", "3", "--emit", "json",
        "--max-iters", "20000",
    ]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "field = x*(\nz = -1\nn = 1\nlambda = -1\nsweep = yes\ninit = ones\n"
        f"seed = -1\nemit = csv\nmax-iters = 0\nout = {tmp_path / 'file'}\n"
    )
    assert run_cli([*flags, "--out", str(tmp_path / "ref")], capsys)[0] == 0
    code, _, _ = run_cli(
        ["--config", str(cfg), *flags, "--out", str(tmp_path / "flag")], capsys
    )
    assert code == 0
    assert not (tmp_path / "file").exists()
    assert sorted(p.name for p in (tmp_path / "flag").iterdir()) == ["report.json"]
    assert (tmp_path / "flag" / "report.json").read_bytes() == (
        tmp_path / "ref" / "report.json"
    ).read_bytes()


def test_readme_flag_table_lists_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(--[a-z-]+)", section, flags=re.MULTILINE))
    options = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == options


def test_config_rejects_malformed_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field x^2\n")
    assert run_cli(["--config", str(cfg)], capsys)[0] == 1


def test_missing_config_file_exit_one(tmp_path, capsys):
    code, _, err = run_cli(["--config", str(tmp_path / "nope.cfg")], capsys)
    assert code == 1


# --------------------------------------------------------------------------
# console entry point
# --------------------------------------------------------------------------

def test_module_invocation_with_dash_field(tmp_path):
    # a real process-level run, with a field value that starts with '-'
    proc = subprocess.run(
        [
            sys.executable, "-m", "blowup",
            "--field", "-x", "--z", "10", "--n", "100",
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "GLOBAL"
