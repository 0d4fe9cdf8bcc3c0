"""The CLI's reports on the built-in models, byte for byte against stored goldens.

Each case runs ``cli.main`` in-process from a temporary directory.  Its stdout
(a JSON report, the strata summary or the selftest lines) is compared with
``golden/<case>.out`` whole; each CSV it writes is compared by SHA-256 with
``golden/csv_sha256.json``.  The goldens were captured from the code before
fields became interned nodes, so any change to a verdict, a residual or a
digit of a report shows up here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from acpoisson import cli
from acpoisson import model as md

GOLDEN = Path(__file__).parent / "golden"
MODELS = sorted(md.BUILTIN_MODELS)
FLOW = [
    "flow", "flat_so3", "--hamiltonian", "y1^2/2 + y2^2/3 + y3^2/4 + 0.1*x1*y1",
    "--p0", "0.1,0.2,0.3,0.4,0.5", "--dt", "0.01", "--steps", "40",
    "--casimir", "y1^2+y2^2+y3^2", "--csv", "out.csv",
]

# case -> (argv, exit code)
CASES = {
    **{f"check_{m}": (["check", m, "--samples", "500"], 0) for m in MODELS},
    **{f"strata_{m}": (["strata", m, "--grid", "3", "--out", "out.csv"], 0) for m in MODELS},
    "modular_br3_unimodular": (["modular", "br3_unimodular", "--certificate", "--csv", "out.csv"], 0),
    "flow_flat_so3": (FLOW, 0),
    # kappa is a cutoff of squares, so this flow runs the cutoff rule line
    "flow_br3_unimodular": (["flow", "br3_unimodular", *FLOW[2:]], 0),
    "selftest": (["selftest"], 0),
}


def run_case(argv, workdir, capsys, monkeypatch):
    """Exit code, stdout and the SHA-256 of the CSV (or None) of one CLI run."""
    monkeypatch.chdir(workdir)
    code = cli.main(argv)
    out = capsys.readouterr().out
    csv = Path(workdir) / "out.csv"
    digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None
    return code, out, digest


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path, capsys, monkeypatch):
    argv, expected_code = CASES[case]
    code, out, digest = run_case(argv, tmp_path, capsys, monkeypatch)
    assert code == expected_code
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    digests = json.loads((GOLDEN / "csv_sha256.json").read_text(encoding="utf-8"))
    assert digest == digests.get(case)


# model -> SHA-256 of the stdout of `check <model> --samples 10000`, the
# benchmark's size, captured before the group walk read a sample's held jets
CHECK_10K_SHA256 = {
    "br3_unimodular": "18d6936626e535db8c84bec9c5f0e32867f3843985f2d5613485fe5541050e54",
    "flat_pair_flatness": "e6693f91036343ccc62f289ce3d5e7ec2003e5295712e1f26ae219890c0e5270",
    "flat_so3": "0eb1f2ef825ea5c6466b140db053301ff6dc1edbb3626dea91d35e22e78c983a",
    "sec5_example": "cb6885e655eee645c4710d6b6dbb9698e86b2300c79d308e32392f4e4dd9715e",
}


@pytest.mark.parametrize("model", MODELS)
def test_check_at_the_benchmark_size_matches_golden(model, tmp_path, capsys, monkeypatch):
    code, out, digest = run_case(["check", model, "--samples", "10000"], tmp_path, capsys, monkeypatch)
    assert code == 0 and digest is None
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_10K_SHA256[model]
