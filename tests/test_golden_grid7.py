"""`strata --grid 7` on the built-in models, byte for byte, at the benchmark's size.

The 7^5 = 16 807-point grid is the one the ``verify_batch`` benchmark runs on
``sec5_example``.  Each case runs ``cli.main`` in-process; its stdout and the
SHA-256 of its CSV were captured from the row-by-row writer that the columnar
one replaced.
"""

import hashlib

import pytest

from acpoisson import cli

# model -> (stdout, SHA-256 of the CSV)
EXPECTED = {
    "br3_unimodular": (
        """\
{
  "counts": {
    "rank2_horizontal": 49,
    "rank2_vertical": 15484,
    "rank4": 1274
  },
  "csv": "out.csv",
  "model": "br3_unimodular",
  "rank_disagreements": 0,
  "tool_version": "0.1.0"
}
""",
        "79af91dea71a76b8c4f85b5b50f684462771468742bd30c6fbb9975daa1796e2",
    ),
    "flat_pair_flatness": (
        """\
{
  "counts": {
    "rank2_horizontal": 49,
    "rank4": 16758
  },
  "csv": "out.csv",
  "model": "flat_pair_flatness",
  "rank_disagreements": 0,
  "tool_version": "0.1.0"
}
""",
        "b7d36b2e890ee874bab280fc9317d94ba95466c7cc28c907e533379607a8fdc9",
    ),
    "flat_so3": (
        """\
{
  "counts": {
    "rank2_horizontal": 49,
    "rank4": 16758
  },
  "csv": "out.csv",
  "model": "flat_so3",
  "rank_disagreements": 0,
  "tool_version": "0.1.0"
}
""",
        "26f60c6108c627ff0a644ed76f10a5cde5a09fa564ae63ef655cf9de596e2499",
    ),
    "sec5_example": (
        """\
{
  "counts": {
    "rank0": 49,
    "rank2_horizontal": 2352,
    "rank2_vertical": 1176,
    "rank4": 13230
  },
  "csv": "out.csv",
  "model": "sec5_example",
  "rank_disagreements": 0,
  "tool_version": "0.1.0"
}
""",
        "e955db15aa2c52137caa2220e4d33170dc337f61591b66f96a8d0caade64b439",
    ),
}


@pytest.mark.filterwarnings("ignore:cutoff evaluated")
@pytest.mark.parametrize("model", sorted(EXPECTED))
def test_strata_grid7_matches_the_row_writer(model, tmp_path, capsys, monkeypatch):
    stdout, digest = EXPECTED[model]
    monkeypatch.chdir(tmp_path)
    assert cli.main(["strata", model, "--grid", "7", "--out", "out.csv"]) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest
