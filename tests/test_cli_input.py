"""Bad command-line input exits 2 with a one-line message, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from acpoisson import cli
from acpoisson import strata as st
from acpoisson.errors import BadInput
from acpoisson.flow import MAX_FLOW_STEPS
from acpoisson.model import BUILTIN_MODELS
from acpoisson.strata import MAX_GRID_POINTS, MAX_SAMPLE_POINTS

SRC = Path(__file__).resolve().parents[1] / "src"
FLOW = ["flow", "flat_so3", "--hamiltonian", "y3", "--p0", "0,0,1,0,0", "--dt", "0.01", "--steps", "3"]


def _with(argv, option, value):
    argv = list(argv)
    argv[argv.index(option) + 1] = value
    return argv


def _exit_and_message(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.err.strip().splitlines()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--dt", "-1", "--dt must be a positive number"),
        ("--dt", "nan", "--dt must be a positive number"),
        ("--steps", "-5", "--steps must be non-negative"),
        ("--p0", "nan,0,1,0,0", "--p0 coordinates must be finite"),
        ("--p0", "a,0,1,0,0", "--p0 needs numbers"),
    ],
)
def test_flow_rejects_bad_input(option, value, message, capsys):
    code, lines = _exit_and_message(_with(FLOW, option, value), capsys)
    assert code == 2
    assert len(lines) == 1 and message in lines[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "flat_so3", "--samples", "0"], "sample count must be positive"),
        (["modular", "flat_so3", "--samples", "0"], "sample count must be positive"),
        (["check", "flat_so3", "--tol", "-1"], "--tol must be a non-negative number"),
        (["check", "flat_so3", "--tol", "nan"], "--tol must be a non-negative number"),
        (["strata", "sec5_example", "--grid", "0"], "grid resolution must be positive"),
        (["strata", "sec5_example", "--grid", "11"], f"more than {MAX_GRID_POINTS}"),
    ],
)
def test_sizes_and_tolerances_are_checked(argv, message, capsys, tmp_path):
    if argv[0] == "strata":
        argv = argv + ["--out", str(tmp_path / "s.csv")]
    code, lines = _exit_and_message(argv, capsys)
    assert code == 2
    assert len(lines) == 1 and message in lines[0]
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "options, message",
    [
        (["--sweep", "x"], "--sweep needs comma-separated numbers"),
        (["--sweep", "0,nan"], "epsilon values must be finite"),
        (["--epsilon", "nan"], "epsilon values must be finite"),
        (["--epsilon", "inf"], "epsilon values must be finite"),
    ],
)
def test_gauge_rejects_bad_epsilon_before_writing(options, message, capsys, tmp_path):
    outdir = tmp_path / "out"
    code, lines = _exit_and_message(["gauge", "br3_unimodular", *options, "--outdir", str(outdir)], capsys)
    assert code == 2
    assert len(lines) == 1 and message in lines[0]
    assert not outdir.exists()


def test_gauge_rejects_a_non_finite_model_epsilon(capsys, tmp_path):
    model = tmp_path / "nan_epsilon.ini"
    model.write_text(BUILTIN_MODELS["br3_unimodular"].replace("epsilon = 0.05", "epsilon = nan"))
    outdir = tmp_path / "out"
    code, lines = _exit_and_message(["gauge", str(model), "--epsilon", "0.1", "--outdir", str(outdir)], capsys)
    assert code == 2
    assert len(lines) == 1 and "[gauge] epsilon must be finite" in lines[0]
    assert not outdir.exists()


def test_grid_bound_is_checked_before_allocation():
    # 10^6 points per axis would need 8e30 bytes if it were built
    with pytest.raises(BadInput):
        st.grid_points(10**6, [(-1, 1)] * 5)
    assert st.grid_points(10, [(-1, 1)] * 5).shape == (5, MAX_GRID_POINTS)


@pytest.mark.parametrize("command", ["check", "modular"])
def test_sample_count_is_bounded_before_allocation(command, capsys):
    # 10^9 Halton points would need 40 GB for the coordinates alone
    code, lines = _exit_and_message([command, "flat_so3", "--samples", "1000000000"], capsys)
    assert code == 2
    assert len(lines) == 1 and f"more than {MAX_SAMPLE_POINTS}" in lines[0]
    with pytest.raises(BadInput):
        st.halton_points(MAX_SAMPLE_POINTS + 1, [(-1, 1)] * 5)


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "acpoisson", *_with(FLOW, "--dt", "-1")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr.strip() == "error: --dt must be a positive number, got -1.0"
    proc = subprocess.run(
        [sys.executable, "-m", "acpoisson", "--version"], capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == cli.__version__


def _model(tmp_path, builtin, old, new):
    text = BUILTIN_MODELS[builtin]
    assert old in text
    path = tmp_path / "model.ini"
    path.write_text(text.replace(old, new))
    return str(path)


@pytest.mark.parametrize(
    "kappa",
    [
        "exp(exp(y1*10)) - exp(exp(y1*10))",  # inf - inf: NaN entries
        "exp(exp(y1*10))",  # infinite kappa
    ],
)
def test_strata_of_a_non_finite_bivector_exits_3(kappa, capsys, tmp_path):
    model = _model(tmp_path, "sec5_example", "expr = y1^2 - x1^2 - x2^2", f"expr = {kappa}")
    out = tmp_path / "s.csv"
    code, lines = _exit_and_message(["strata", model, "--grid", "5", "--out", str(out)], capsys)
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("numeric error: the assembled bivector is not finite")
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "modular", "strata"])
def test_a_non_finite_report_exits_3_with_one_line(command, tmp_path):
    # kappa overflows to inf on part of the box, so residuals turn NaN
    model = _model(tmp_path, "sec5_example", "expr = y1^2 - x1^2 - x2^2", "expr = exp(exp(y1*10))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = ["--out", "report.out"]
    proc = subprocess.run(
        [sys.executable, "-m", "acpoisson", command, model, *out],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric error:")
    assert proc.stdout == "" and not (tmp_path / "report.out").exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1e-9"])
@pytest.mark.parametrize("key", ["identity", "oracle", "conservation", "fd"])
def test_bad_model_tolerances_are_rejected(key, value, capsys, tmp_path):
    model = _model(tmp_path, "flat_so3", "[sampling]", f"[tolerances]\n{key} = {value}\n\n[sampling]")
    code, lines = _exit_and_message(["check", model, "--samples", "20"], capsys)
    assert code == 2
    assert len(lines) == 1 and f"[tolerances] {key} must be a finite non-negative number" in lines[0]


def test_negative_model_seed_is_rejected(capsys, tmp_path):
    model = _model(tmp_path, "flat_so3", "seed = 0", "seed = -3")
    code, lines = _exit_and_message(["check", model, "--samples", "20"], capsys)
    assert code == 2
    assert len(lines) == 1 and "[sampling] seed must be non-negative" in lines[0]


def test_unreadable_model_paths_exit_2(capsys, tmp_path):
    directory = tmp_path / "models"
    directory.mkdir()
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes(BUILTIN_MODELS["flat_so3"].replace("flat_so3", "flat_so3 \xe9").encode("latin-1"))
    for path, reason in ((directory, "Is a directory"), (latin1, "can't decode")):
        code, lines = _exit_and_message(["check", str(path)], capsys)
        assert code == 2
        assert len(lines) == 1 and f"cannot read model file '{path}'" in lines[0] and reason in lines[0]


def test_flow_step_count_is_bounded_before_allocation(capsys):
    code, lines = _exit_and_message(_with(FLOW, "--steps", str(MAX_FLOW_STEPS + 1)), capsys)
    assert code == 2
    assert len(lines) == 1 and f"more than {MAX_FLOW_STEPS}" in lines[0]


def test_flow_truncates_at_a_non_finite_rk4_stage(capsys, tmp_path):
    # the first stages are finite, then p + dt/2 * k2 overflows
    argv = ["flow", "flat_so3", "--hamiltonian", "y1", "--p0", "0,0,0.3,0.4,0.5", "--dt", "1e308", "--steps", "3"]
    code, lines = _exit_and_message([*argv, "--csv", str(tmp_path / "f.csv")], capsys)
    assert code == 0 and lines == []
    rows = (tmp_path / "f.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0.0,0.0,0.0,0.3,0.4,0.5,")
