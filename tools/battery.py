"""Run the CLI battery and print one line per run, for byte-identity checks.

Each run is ``python -m acpoisson <argv>`` in a fresh working directory with
``PYTHONHASHSEED=0``.  A line reads::

    <exit code> <stdout SHA-256> <stderr SHA-256> <SHA-256 of the files the run wrote, or -> <argv>

where the files are hashed by name and content, in name order (the CSV, or
the models and reports ``gauge`` writes).  Run the battery on two checkouts
and diff the outputs: identical lines mean identical results::

    python3 tools/battery.py > after.txt
    python3 tools/battery.py --src ../parent/src > before.txt
    diff before.txt after.txt

The runs are: ``check`` at the model's sample count and at 10^4 samples,
``modular`` with and without ``--certificate``, ``strata --grid 5``, a
``flow`` and a ``gauge --sweep`` on each built-in model, ``selftest``, and a
grid ``check`` of ``br3_unimodular`` at 7 points per axis on [-1, 1]^5, whose
grid points meet the cutoff's branch point.  Four more runs cover the cutoff
nudges and the error contract: a ``flow`` of ``br3_unimodular`` whose compiled
right-hand side nudges points off the branch point, a ``strata --grid 3`` of a
model with ``kappa = cutoff(x1 + 1) / x1`` that nudges and then stops on a
division by zero (exit 3, one stderr line), a usage error and an unknown
model (both exit 2, one stderr line).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = ("br3_unimodular", "flat_pair_flatness", "flat_so3", "sec5_example")
FLOW = [
    "--hamiltonian", "y1^2/2 + y2^2/3 + y3^2/4 + 0.1*x1*y1", "--p0", "0.1,0.2,0.3,0.4,0.5",
    "--dt", "0.01", "--steps", "40", "--casimir", "y1^2+y2^2+y3^2", "--volume-factor", "1 + 0.1*y1^2",
]
GRID_MODEL = "grid7.ini"
CUTOFF_MODEL = "cut.ini"
CUTOFF_TEXT = "[model]\nname = cut\n\n[kappa]\nexpr = cutoff(x1 + 1) / x1\n\n[beta]\nb1 = 0\nb2 = 0\nb3 = 0\n"


def runs():
    """The battery: one argv per run."""
    for m in MODELS:
        yield ["check", m]
        yield ["check", m, "--samples", "10000"]
        yield ["modular", m, "--csv", "out.csv"]
        yield ["modular", m, "--certificate", "--csv", "out.csv"]
        yield ["strata", m, "--grid", "5", "--out", "out.csv"]
        yield ["flow", m, *FLOW, "--csv", "out.csv"]
        yield ["gauge", m, "--sweep", "0,0.05", "--outdir", "g"]
    yield ["selftest"]
    yield ["check", GRID_MODEL]
    yield ["flow", "br3_unimodular", "--hamiltonian", "y3", "--p0", "0.1,0.2,1,0,0", "--dt", "0.01", "--steps", "5",
           "--casimir", "y1^2 + y2^2 + y3^2"]
    yield ["strata", CUTOFF_MODEL, "--grid", "3", "--out", "out.csv"]
    yield ["check", "flat_so3", "--samples"]
    yield ["check", "no_such_model"]


def _grid_model(src, workdir):
    """Save ``br3_unimodular`` sampled on the 7-point grid of [-1, 1]^5 as GRID_MODEL."""
    code = (
        "import sys; from acpoisson import model as md\n"
        "m = md.resolve('br3_unimodular')\n"
        "m.sampling.update(generator='grid', resolution=7, box=[(-1.0, 1.0)] * 5)\n"
        "md.save(m, sys.argv[1])\n"
    )
    subprocess.run([sys.executable, "-c", code, GRID_MODEL], cwd=workdir, env=_env(src), check=True)


def _env(src):
    return {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(src)}


def _files_digest(workdir):
    digest, found = hashlib.sha256(), False
    for path in sorted(p for p in Path(workdir).rglob("*") if p.is_file() and p.name not in (GRID_MODEL, CUTOFF_MODEL)):
        found = True
        digest.update(str(path.relative_to(workdir)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest() if found else "-"


def run(src, argv):
    """One battery line for ``argv``."""
    with tempfile.TemporaryDirectory() as workdir:
        if GRID_MODEL in argv:
            _grid_model(src, workdir)
        if CUTOFF_MODEL in argv:
            Path(workdir, CUTOFF_MODEL).write_text(CUTOFF_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "acpoisson", *argv], cwd=workdir, env=_env(src), capture_output=True
        )
        out, err = (hashlib.sha256(stream).hexdigest() for stream in (proc.stdout, proc.stderr))
        return f"{proc.returncode} {out} {err} {_files_digest(workdir)} {' '.join(argv)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    default = Path(__file__).resolve().parents[1] / "src"
    parser.add_argument("--src", type=Path, default=default, help="the source tree to run (default: %(default)s)")
    args = parser.parse_args(argv)
    for cmd in runs():
        print(run(args.src.resolve(), cmd), flush=True)


if __name__ == "__main__":
    main()
