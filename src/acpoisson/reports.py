"""Verification report containers, JSON-friendly and deterministic."""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

import numpy as np


@dataclass
class CheckBlock:
    check_id: str
    max_residual: float
    mean_residual: float
    tol: float
    passed: bool
    worst_point: list | None = None
    n_samples: int = 0
    note: str = ""

    def to_dict(self):
        return {
            "check": self.check_id,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "tol": self.tol,
            "verdict": "pass" if self.passed else "fail",
            "worst_point": self.worst_point,
            "n_samples": self.n_samples,
            "note": self.note,
        }


@dataclass
class VerificationReport:
    name: str
    blocks: list = field(default_factory=list)
    disagreements: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, block: CheckBlock):
        self.blocks.append(block)
        return block

    @property
    def passed(self):
        return all(b.passed for b in self.blocks) and not self.disagreements

    def block(self, check_id):
        for b in self.blocks:
            if b.check_id == check_id:
                return b
        raise KeyError(check_id)

    def to_dict(self):
        return {
            "name": self.name,
            "verdict": "pass" if self.passed else "fail",
            "checks": [b.to_dict() for b in self.blocks],
            "disagreements": self.disagreements,
            **({"meta": self.meta} if self.meta else {}),
        }


def residual_block(check_id, residuals, points, tol, note="") -> CheckBlock:
    """Summarize a per-point residual array into a check block."""
    residuals = np.atleast_1d(np.asarray(residuals, dtype=float))
    pts = np.asarray(points)
    worst_point = None
    if residuals.size and pts.ndim == 2 and pts.shape[1] == residuals.size:
        worst_point = pts[:, int(np.argmax(residuals))].tolist()
    return CheckBlock(
        check_id=check_id,
        max_residual=float(residuals.max()) if residuals.size else 0.0,
        mean_residual=float(residuals.mean()) if residuals.size else 0.0,
        tol=float(tol),
        passed=bool(residuals.size == 0 or residuals.max() <= tol),
        worst_point=worst_point,
        n_samples=int(residuals.size),
        note=note,
    )


_BARE = re.compile(r'[^,"\r\n]+\Z')  # a cell csv.writer leaves unquoted


def _cells(column):
    """A column's CSV cells (floats as ``repr``, ints as ``str``), and whether all are bare."""
    array = np.asarray(column)
    if array.dtype.kind == "f":
        # repr once per distinct bit pattern (-0.0 stays apart from 0.0), scattered back
        bits, inverse = np.unique(np.asarray(array, np.float64).view(np.int64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        return text[inverse].tolist(), True
    if array.dtype.kind in "iu":
        return list(map(str, array.tolist())), True
    cells = list(column)  # not array.tolist(): a numpy str array drops trailing NULs
    return cells, all(type(v) is str for v in cells) and all(map(_BARE.match, set(cells)))


def write_csv(path, header, columns):
    """Write equal-length float, int or label columns as CSV under ``header``: the
    bytes ``csv.writer`` writes when fed ``repr(float(v))`` for each float cell."""
    parts = [_cells(c) for c in columns]
    cells = [c for c, _ in parts]
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in cells]}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if not all(bare for _, bare in parts):
            writer.writerows(zip(*cells))
        elif cells and cells[0]:  # nothing to quote: join all rows at once
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
