"""``modular --certificate`` on a model whose certificate has no factor K, byte for byte.

Only the coupling-domain criterion runs on ``flat_so3`` (``h = 0`` and no
``K``), so this case pins that path, which the global-certificate golden of
``br3_unimodular`` does not reach.  The report is compared with
``golden/modular_flat_so3_certificate.out`` whole, and the CSV by SHA-256.
"""

import hashlib
from pathlib import Path

from acpoisson import cli

GOLDEN = Path(__file__).parent / "golden" / "modular_flat_so3_certificate.out"
CSV_SHA256 = "33c76ff8b93936823ff0724ab90a4f982c3424539a3bb27469101c20385e7b80"


def test_coupling_only_certificate_matches_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["modular", "flat_so3", "--certificate", "--csv", "out.csv"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == CSV_SHA256
