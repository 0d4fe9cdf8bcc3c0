"""Verification report containers, JSON-friendly and deterministic.

Every report block is a per-point residual on a named sample, stated as a
:class:`Block` table entry; :func:`run_table` turns each into a
:class:`CheckBlock` through :func:`residual_block`, or through the entry's own
``enter`` (``triple.equivalence_check``'s pair, whose ``jacobiator`` verdict
reads a tolerance scaled at each point by 1 + jet magnitudes, which the
reported ``tol`` does not show).  A table runs chunk by chunk
(:func:`chunked`), so its working set is bounded by CHUNK points, whatever the
sample's size.  :func:`write_csv` writes the float, int and label columns of
the CSV outputs, unquoted, since every header name and label is bare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import AcPoissonError

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
    # SampleSet -> one residual per point, or a dict of them; or the residuals
    # themselves, when they were computed on the whole subset before the table
    residual: Callable | np.ndarray
    tol: float
    note: str = ""
    informational: bool = False  # reported, but not part of the verdict
    enter: Callable | None = None  # (report, block, residual) -> None, in place of residual_block


# The points of a chunk: a table, the strata columns and a CSV are worked in
# runs of at most this many consecutive points.  Chosen from the curve of
# peak memory and wall time against the chunk size in README's performance notes.
CHUNK = 2500


def chunked(fn, samples):
    """``fn(share)`` run chunk by chunk over ``samples``, its results joined.

    Chunk k of a sample is its points k * CHUNK .. (k + 1) * CHUNK - 1.  Step k
    runs ``fn`` once, and there ``share(s)``, for ``s`` one of ``samples``, is
    chunk k of ``s``: a ``SampleSet.piece`` of it, which starts with views of
    the jets ``s`` holds, made once per step, so every read of ``s`` in the
    step shares its jets; or None where ``s`` has no points left.  A sample of
    at most CHUNK points is its own chunk 0.  The pieces of a step and their
    jets go before the next step starts.  ``fn`` returns an array with one
    entry per point along its last axis, or a list or dict of them (None for a
    share it did not read), and each is joined over the steps.

    With one step, or when a step raises an error, ``fn`` runs once, with
    ``share(s)`` the sample ``s`` itself: run whole, the samples raise the
    error they meet first, which need not be that of the first chunk that fails.
    """
    sizes = [s.points.shape[1] if s.points.ndim == 2 else 0 for s in samples]
    steps = -(-max(sizes, default=0) // CHUNK)
    if steps > 1:
        try:
            return _join([fn(_Step(k)) for k in range(steps)])
        except AcPoissonError:
            pass
    return fn(_whole)


def _whole(s):
    return s


class _Step:
    """``share`` for step ``k`` of :func:`chunked`."""

    __slots__ = ("k", "shares")

    def __init__(self, k):
        self.k, self.shares = k, {}

    def __call__(self, s):
        if s not in self.shares:
            start, n = self.k * CHUNK, s.points.shape[1]
            if n <= CHUNK:
                self.shares[s] = s if not start else None
            else:
                self.shares[s] = s.piece(start, start + CHUNK) if start < n else None
        return self.shares[s]


def _join(parts):
    """Per-step results joined: arrays along their last axis, lists and dicts entry by entry;
    None parts skipped.  An entry's parts are let go once joined, so the joined results and
    the parts not yet joined are never held twice."""
    parts = [p for p in parts if p is not None]
    first = parts[0]
    if not isinstance(first, (list, dict)):
        return np.concatenate(parts, axis=-1)
    keys = list(first) if isinstance(first, dict) else range(len(first))
    joined = {}
    for k in keys:
        joined[k] = _join([p[k] for p in parts])
        for p in parts:
            p[k] = None
    return joined if isinstance(first, dict) else list(joined.values())


def run_table(report: VerificationReport, table) -> VerificationReport:
    """Evaluate each block's residual on its subset into the report, in table order.

    The residuals run chunk by chunk (:func:`chunked`): step k runs every
    block on chunk k of its subset, so the blocks of one subset share that
    chunk's jets, and each block's per-point residuals are joined before they
    are summarized, so ``max``, ``mean``, the worst point and ``n_samples`` are
    those of the whole subset.
    """
    runs = [b for b in table if callable(b.residual)]

    def residuals(share):
        out = []
        for b in runs:
            s = share(b.subset)
            out.append(None if s is None else b.residual(s))
        return out

    joined = iter(chunked(residuals, [b.subset for b in runs]))
    for b in table:
        r = next(joined) if callable(b.residual) else b.residual
        if b.enter is not None:
            b.enter(report, b, r)
            continue
        parts = {f"{b.check_id}-{k}": v for k, v in r.items()} if isinstance(r, dict) else {b.check_id: r}
        for check_id, res in parts.items():
            report.add(residual_block(check_id, res, b.subset.points, b.tol, b.note, b.informational))
    return report


def _cells(column):
    """A column's CSV cells: floats as ``repr``, ints and labels as ``str``."""
    array = np.asarray(column)
    if array.dtype.kind == "f":
        # repr once per distinct bit pattern (-0.0 stays apart from 0.0), scattered back
        bits, inverse = np.unique(np.asarray(array, np.float64).view(np.int64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        return text[inverse].tolist()
    return list(map(str, array.tolist()))


def write_csv(path, header, columns):
    """Write equal-length float, int or label columns as CSV under ``header``, each
    line ended by CRLF, CHUNK rows at a time.  No cell is quoted: the header names
    and labels hold no comma, quote or line break, so these are the bytes
    ``csv.writer`` writes when fed ``repr(float(v))`` for each float cell."""
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, lengths[0] if columns else 0, CHUNK):
            cells = [_cells(c[i : i + CHUNK]) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
