"""Verification report containers, JSON-friendly and deterministic.

Every report block is a per-point residual on a named sample, stated as a
:class:`Block` table entry; :func:`run_table` turns each into a
:class:`CheckBlock` through :func:`residual_block`.  The one block built
outside a table is ``triple.equivalence_check``'s ``jacobiator``: its verdict
reads a tolerance scaled at each point by 1 + jet magnitudes, which the
reported ``tol`` does not show.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .strata import SampleSet


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
    informational: bool = False  # reported, but not part of the report's verdict

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
        return all(b.passed or b.informational for b in self.blocks) and not self.disagreements

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


def residual_block(check_id, residuals, points, tol, note="", informational=False) -> CheckBlock:
    """Summarize a residual array with one entry per point of ``points`` (5, n) into a check block."""
    residuals = np.asarray(residuals, dtype=float)
    pts = np.asarray(points)
    if residuals.shape != pts.shape[1:2]:
        raise ValueError(f"{check_id}: residuals of shape {residuals.shape} for points of shape {pts.shape}")
    pts, residuals = pts.reshape(len(pts), -1), residuals.reshape(-1)  # one point (5,) counts as (5, 1)
    if not residuals.size:
        return CheckBlock(check_id, 0.0, 0.0, float(tol), True, None, 0, note, informational)
    worst = int(np.argmax(residuals))  # the first NaN, if there is one
    top = float(residuals[worst])
    mean = float(residuals.mean())
    return CheckBlock(check_id, top, mean, float(tol), top <= tol, pts[:, worst].tolist(), residuals.size, note, informational)


class Block(NamedTuple):
    """One entry of a block table: a per-point residual (or a dict of them, one block
    ``check_id-key`` each) on a named subset of a sample."""

    check_id: str
    subset: SampleSet
    residual: Callable  # SampleSet -> one residual per point, or a dict of them
    tol: float
    note: str = ""
    informational: bool = False  # reported, but not part of the verdict


def run_table(report: VerificationReport, table) -> VerificationReport:
    """Evaluate each block's residual on its subset, in table order, into the report."""
    for b in table:
        r = b.residual(b.subset)
        parts = {f"{b.check_id}-{k}": v for k, v in r.items()} if isinstance(r, dict) else {b.check_id: r}
        for check_id, res in parts.items():
            report.add(residual_block(check_id, res, b.subset.points, b.tol, b.note, b.informational))
    return report


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
