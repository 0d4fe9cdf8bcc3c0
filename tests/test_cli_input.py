"""Bad command-line input exits 2 with a one-line message, never a traceback."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from acpoisson import cli
from acpoisson import model as md
from acpoisson import strata as st
from acpoisson.errors import BadInput, EmptyBox
from acpoisson.fields import ExprField
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


@pytest.mark.parametrize(
    "sweep, first, second, name",
    [
        ("0.1,0.1000001", "0.1", "0.1000001", "eps0p1"),
        ("0.1,0.1", "0.1", "0.1", "eps0p1"),
        ("0.05,1e-5,-0.5,0.00001", "1e-05", "1e-05", "eps1em05"),
    ],
)
def test_gauge_refuses_two_epsilons_of_one_variant_name(sweep, first, second, name, capsys, tmp_path):
    # both would write the same .ini and .report.json, the second over the first
    outdir = tmp_path / "out"
    outdir.mkdir()
    code, lines = _exit_and_message(["gauge", "br3_unimodular", "--sweep", sweep, "--outdir", str(outdir)], capsys)
    assert code == 2
    assert lines == [f"error: epsilons {first} and {second} give one variant name, br3_unimodular_{name}"]
    assert list(outdir.iterdir()) == []


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


# beta_1 overflows to inf for y1 > 0.02, so the reports hold non-finite residuals
NON_FINITE_BETA = (
    "[kappa]\nexpr = 1 + y1^2\n\n[beta]\nb1 = exp(exp(exp(100*y1)))\nb2 = y2\nb3 = y3\n\n"
    "[gauge]\nmu1 = y3\nmu2 = 0\nc = 0\nepsilon = 0\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "flat_so3", "--hamiltonian", "y3", "--p0", "0,0,0.5,0.2,0.1", "--dt", "0.01", "--steps", "3",
         "--casimir", "exp(exp(exp(100*y1)))", "--csv", "f.csv", "--out", "f.json"],
        ["modular", "m.ini", "--csv", "m.csv"],
        ["gauge", "m.ini", "--sweep", "0,0.01", "--outdir", "g"],
    ],
    ids=["flow", "modular", "gauge"],
)
def test_a_refused_report_writes_no_file(argv, capsys, tmp_path, monkeypatch):
    # a command evaluates and emits every document before it writes its CSV, models or reports
    monkeypatch.chdir(tmp_path)
    Path("m.ini").write_text(NON_FINITE_BETA)
    code, lines = _exit_and_message(argv, capsys)
    assert code == 3
    assert lines == ["numeric error: the report holds a non-finite number, which JSON cannot carry"]
    assert [p.name for p in tmp_path.iterdir()] == ["m.ini"]


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


def test_a_certificate_with_no_coupling_points_reports_empty_blocks(tmp_path):
    # kappa = 0 everywhere leaves the coupling-domain blocks of the certificate check no points
    text = BUILTIN_MODELS["flat_so3"]
    model = tmp_path / "model.ini"
    model.write_text(text.replace("expr = 1 - y1^2 - y2^2 - y3^2", "expr = 0").replace("h = 0", "h = 0\nK = 1"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "acpoisson", "modular", str(model), "--certificate", "--samples", "50"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    blocks = {b["check"]: b for b in json.loads(proc.stdout)["checks"]}
    for check in ("theta-exactness", "h-casimir", "kappa-factorization"):
        assert blocks[check]["n_samples"] == 0 and blocks[check]["worst_point"] is None
    assert blocks["global-volume-divergence"]["n_samples"] == 50


DEEP = " + ".join(["y1*y2"] * 1500)  # parses in a loop, but its tree is 1500 levels deep
NESTED = "(" * 900 + "y1" + ")" * 900  # the parser recurses on each parenthesis


def _run_in(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "acpoisson", *argv], capture_output=True, text=True, env=env, cwd=tmp_path,
    )


def _assert_one_line_exit_2(proc, message):
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "hamiltonian, message",
    [
        ("é*y1", "unexpected character 'é' at line 1, column 1"),
        ("٣*y1", "unexpected character '٣' at line 1, column 1"),  # not read as 3.0 * y1
        ("1٣*y1", "unexpected character '٣' at line 1, column 2"),
        (DEEP, "nested too deeply"),
        (NESTED, "nested too deeply"),
    ],
    ids=["latin-letter", "arabic-digit", "arabic-digit-after-ascii", "deep-sum", "nested-parentheses"],
)
def test_flow_exits_2_on_an_expression_it_cannot_read(hamiltonian, message, tmp_path):
    argv = ["flow", "flat_so3", "--hamiltonian", hamiltonian, "--p0", "0,0,0.1,0,0", "--dt", "0.1", "--steps", "1"]
    _assert_one_line_exit_2(_run_in(tmp_path, argv), message)


@pytest.mark.parametrize(
    "kappa, message",
    [
        ("é*y1", "[kappa] expr: unexpected character 'é' at line 1, column 1"),
        (DEEP, "nested too deeply"),
        (NESTED, "[kappa] expr: an expression is nested too deeply for the recursion limit"),
    ],
    ids=["latin-letter", "deep-sum", "nested-parentheses"],
)
def test_check_exits_2_on_a_model_expression_it_cannot_read(kappa, message, tmp_path):
    model = _model(tmp_path, "flat_so3", "expr = 1 - y1^2 - y2^2 - y3^2", f"expr = {kappa}")
    _assert_one_line_exit_2(_run_in(tmp_path, ["check", model, "--samples", "20"]), message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "flat_so3", "--samples", "20", "--out", "missing/x.json"], "No such file or directory: 'missing/x.json'"),
        (["strata", "flat_so3", "--grid", "2", "--out", "missing/x.csv"], "No such file or directory: 'missing/x.csv'"),
        (["gauge", "br3_unimodular", "--epsilon", "0.1", "--outdir", "taken"], "File exists: 'taken'"),
    ],
    ids=["check", "strata", "gauge"],
)
def test_an_output_that_cannot_be_written_exits_2(argv, message, tmp_path):
    (tmp_path / "taken").write_text("a file, not a directory\n")
    _assert_one_line_exit_2(_run_in(tmp_path, argv), message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (_with(FLOW, "--p0", "0,0,1"), "--p0 needs five comma-separated coordinates"),
        (["modular", "sec5_example", "--certificate"], "model file is missing required section [certificate]"),
        (["gauge", "sec5_example", "--epsilon", "0.1"], "model file is missing required section [gauge]"),
        (["gauge", "br3_unimodular"], "give --epsilon or --sweep"),
    ],
)
def test_every_exit_2_message_is_one_error_line(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _exit_and_message(argv, capsys) == (2, [f"error: {message}"])
    assert list(tmp_path.iterdir()) == []


CUTOFF_MODEL = "[model]\nname = cut\n\n[kappa]\nexpr = {}\n\n[beta]\nb1 = 0\nb2 = 0\nb3 = 0\n"


def _subprocess_cli(argv, cwd, python_flags=()):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, *python_flags, "-m", "acpoisson", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd)


def test_a_cutoff_nudge_is_counted_in_the_report_not_printed(tmp_path):
    # the 3-point grid puts x1 = 0, the cutoff's branch point t = x1 + 1 = 1, on the sample
    model = tmp_path / "cut.ini"
    model.write_text(CUTOFF_MODEL.format("cutoff(x1 + 1)"))
    proc = _subprocess_cli(["strata", str(model), "--grid", "3", "--out", "s.csv"], tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["meta"]["cutoff_nudges"] >= 1


def test_the_cutoff_nudge_count_does_not_depend_on_warning_filters(tmp_path):
    model = tmp_path / "cut.ini"
    model.write_text(CUTOFF_MODEL.format("cutoff(x1 + 1)"))
    argv = ["strata", str(model), "--grid", "3", "--out", "s.csv"]
    plain = _subprocess_cli(argv, tmp_path)
    for flag in ("ignore::RuntimeWarning", "error"):
        filtered = _subprocess_cli(argv, tmp_path, python_flags=["-W", flag])
        assert (filtered.returncode, filtered.stdout, filtered.stderr) == (0, plain.stdout, "")


def test_other_warnings_are_shown_when_a_command_crashes(monkeypatch):
    def crash(args):
        warnings.warn("held until the command ends", UserWarning)
        raise ValueError("unexpected")

    monkeypatch.setattr(cli, "cmd_check", crash)
    with pytest.warns(UserWarning, match="held until"), pytest.raises(ValueError):
        cli.main(["check", "flat_so3"])


def test_a_cutoff_nudge_before_a_domain_error_leaves_one_stderr_line(tmp_path):
    model = tmp_path / "cut.ini"
    model.write_text(CUTOFF_MODEL.format("cutoff(x1 + 1) / x1"))
    proc = _subprocess_cli(["strata", str(model), "--grid", "3", "--out", "s.csv"], tmp_path)
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    assert line.startswith("numeric error: division by zero")


def test_a_report_without_cutoff_nudges_has_no_count(tmp_path, capsys):
    assert cli.main(["check", "flat_so3", "--samples", "20"]) == 0
    assert "cutoff_nudges" not in capsys.readouterr().out


def test_a_nudge_before_a_command_is_not_counted_in_its_report(capsys):
    ExprField("cutoff(y1)").at(np.array([0, 0, 1.0, 0, 0]), 0)  # a nudge in library use
    assert cli.main(["check", "flat_so3", "--samples", "20"]) == 0
    assert "cutoff_nudges" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        [],
        ["bogus"],
        ["check", "flat_so3", "--samples", "x"],
        ["flow", "flat_so3", "--hamiltonian", "-y1*y2", "--p0", "0,0,1,0,0", "--dt", "0.01", "--steps", "3"],
    ],
)
def test_a_usage_error_is_one_error_line_and_exit_2(argv, tmp_path):
    proc = _subprocess_cli(argv, tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")


def test_a_value_that_starts_with_a_dash_is_named_in_the_option_equals_form(tmp_path):
    argv = ["flow", "flat_so3", "--hamiltonian", "-y1*y2", "--p0", "0,0,1,0,0", "--dt", "0.01", "--steps", "3"]
    proc = _subprocess_cli(argv, tmp_path)
    assert "--hamiltonian=" in proc.stderr
    argv[2:4] = ["--hamiltonian=-y1*y2"]
    proc = _subprocess_cli(argv, tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""


@pytest.mark.parametrize("seed", [st.MAX_SEED + 1, 9223372036854775800, 99999999999999999999999])
def test_a_model_seed_past_the_bound_exits_2(seed, tmp_path):
    # past 2**62 the Halton indices seed + 1 .. seed + n leave int64: an overflow traceback, or all
    # points on the box corner
    model = _model(tmp_path, "flat_so3", "seed = 0", f"seed = {seed}")
    _assert_one_line_exit_2(_run_in(tmp_path, ["check", model, "--samples", "10"]), "[sampling] seed must be at most 2**62")
    with pytest.raises(BadInput, match="outside 0 .. 2\\*\\*62"):
        st.halton_points(10, [(-1, 1)] * 5, seed=seed)


def test_a_model_seed_at_the_bound_gives_distinct_points(tmp_path):
    model = _model(tmp_path, "flat_so3", "seed = 0", f"seed = {st.MAX_SEED}")
    proc = _run_in(tmp_path, ["check", model, "--samples", "10"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["checks"][0]["n_samples"] == 10
    points = st.halton_points(10, [(-1, 1)] * 5, seed=st.MAX_SEED)
    assert len({tuple(p) for p in points.T}) == 10


@pytest.mark.parametrize("command, generator", [("check", "halton"), ("strata", "grid"), ("modular", "halton"), ("modular", "grid")])
def test_a_box_wider_than_the_largest_float_exits_2(command, generator, tmp_path):
    # hi - lo = 2e308 is infinite, so no point of the box is finite
    box = [(-1e308, 1e308)] + [(-1, 1)] * 4
    model = _model(tmp_path, "flat_so3", "box = -1:1,", "box = -1e308:1e308,")
    Path(model).write_text(Path(model).read_text().replace("generator = halton", f"generator = {generator}"))
    _assert_one_line_exit_2(_run_in(tmp_path, [command, model, "--out", "out"]), "is wider than the largest float")
    assert not (tmp_path / "out").exists()
    with pytest.raises(EmptyBox, match="wider than the largest float"):
        st.halton_points(200, box) if generator == "halton" else st.grid_points(3, box)


@pytest.mark.parametrize("name", ["../escape", "{}/escape", "br3 unimodular", "1st", ""])
def test_a_model_name_that_is_not_an_identifier_exits_2_and_writes_nothing(name, tmp_path):
    # the name is the stem of the files gauge writes: a path in it wrote outside --outdir
    name = name.format(tmp_path)
    model = _model(tmp_path, "br3_unimodular", "name = br3_unimodular", f"name = {name}")
    proc = _run_in(tmp_path, ["gauge", model, "--epsilon", "0.01", "--outdir", "out"])
    _assert_one_line_exit_2(proc, "[model] name must be an identifier")
    assert [p.name for p in tmp_path.iterdir()] == ["model.ini"]


def test_gauge_variant_names_are_identifiers_that_reload(tmp_path, capsys):
    proc = _run_in(tmp_path, ["gauge", "br3_unimodular", "--sweep", "1e20,-0.05,1e-05", "--outdir", "out"])
    assert proc.returncode in (0, 1) and proc.stderr == ""
    written = [entry["model_file"] for entry in json.loads(proc.stdout)["sweep"]]
    stems = ["br3_unimodular_eps1e20", "br3_unimodular_epsm0p05", "br3_unimodular_eps1em05"]
    assert written == [os.path.join("out", f"{stem}.ini") for stem in stems]
    for path in written:
        assert cli.main(["check", str(tmp_path / path), "--samples", "20"]) in (0, 1)
        assert capsys.readouterr().err == ""


def test_builtin_and_variant_names_are_unchanged():
    for name in BUILTIN_MODELS:
        model = md.resolve(name)
        assert model.name == name
        if model.gauge is not None:
            for eps in (0.05, -0.05, 0.1, 1e-05, 0.0, -1.5):
                old = f"{name}_eps{eps:g}".replace("-", "m").replace(".", "p")
                assert model.with_gauge_epsilon(eps).name == old
