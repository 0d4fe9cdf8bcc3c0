"""Bad command-line input exits 2 with a one-line message, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from acpoisson import cli
from acpoisson import strata as st
from acpoisson.errors import BadInput
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
