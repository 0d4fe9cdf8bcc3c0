"""Rank stratification and deterministic chart sampling.

Halton sampling uses the radical-inverse sequences in bases 2, 3, 5, 7, 11
(one base per chart variable) with an index offset acting as the seed, so a
given (box, n, seed) always reproduces the same points.  A sample is also the
evaluation context of the command that drew it (:class:`SampleSet`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import triple as tr
from .errors import BadInput, DomainError, EmptyBox
from .lowering import evaluate

HALTON_BASES = (2, 3, 5, 7, 11)
# largest tensor grid (points in all), checked before the grid is built
MAX_GRID_POINTS = 10**5
# largest Halton sample, checked before it is built: `check` peaks at about
# 30 MB plus 2 KB per point, so this many points need about 1 GB
MAX_SAMPLE_POINTS = 5 * 10**5
# largest Halton seed: the point indices seed + 1 .. seed + n stay inside int64
MAX_SEED = 2**62
LABELS = ("rank0", "rank2_vertical", "rank2_horizontal", "rank4", "near_boundary")
_NEAR = LABELS.index("near_boundary")


def _radical_inverse(indices, base):
    out = np.zeros(indices.shape, dtype=float)
    f = 1.0 / base
    i = indices.astype(np.int64)
    # one pass per base-`base` digit of the largest index, counted in integers
    top = int(i.max()) if i.size else 0
    while top > 0:
        i, digit = np.divmod(i, base)
        out += f * digit
        f /= base
        top //= base
    return out


def halton_points(n, box, seed=0):
    """n Halton points in the box (list of 5 (lo, hi) pairs), at most MAX_SAMPLE_POINTS."""
    _validate_box(box)
    if n <= 0:
        raise EmptyBox("sample count must be positive")
    if n > MAX_SAMPLE_POINTS:
        raise BadInput(f"sample count {n} is more than {MAX_SAMPLE_POINTS}")
    if not 0 <= seed <= MAX_SEED:
        raise BadInput(f"seed {seed} is outside 0 .. 2**62")
    idx = np.arange(seed + 1, seed + n + 1)
    pts = np.zeros((5, n))
    for k, base in enumerate(HALTON_BASES):
        lo, hi = box[k]
        pts[k] = lo + (hi - lo) * _radical_inverse(idx, base)
    return pts


def grid_points(resolution, box):
    """Tensor grid with `resolution` points per axis, at most MAX_GRID_POINTS in all."""
    _validate_box(box)
    if resolution <= 0:
        raise EmptyBox("grid resolution must be positive")
    if resolution**5 > MAX_GRID_POINTS:
        raise BadInput(
            f"grid resolution {resolution} gives {resolution**5} points, more than {MAX_GRID_POINTS}"
        )
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh])


def _validate_box(box):
    if len(box) != 5:
        raise EmptyBox("a sampling box needs 5 intervals")
    for lo, hi in box:
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
            raise EmptyBox(f"invalid interval [{lo}, {hi}]")
        if not np.isfinite(hi - lo):
            raise EmptyBox(f"interval [{lo}, {hi}] is wider than the largest float")


@dataclass(eq=False)
class SampleSet:
    """Sample points with their provenance: the evaluation context of one command.

    A sample made by a mask or slice of another keeps that ``parent`` and the
    ``reason`` it was taken.  ``jets`` evaluates fields on the points through
    ``lowering.evaluate`` and keeps their jets, keyed by field identity, for
    as long as the sample lives, so every block of a command that reads the
    same field on the same sample shares one evaluation.  A kernel given the
    sample, not its points, passes it on to ``lowering.evaluate``, whose walk
    takes each held jet as a leaf: a field the sample holds is not combined
    again below any derived field, unless a ``cutoff`` lies below it, whose
    nudges are counted per evaluation.  Nothing else refers to the held jets,
    so they go with the sample, without waiting for the cyclic collector.
    """

    points: np.ndarray  # (5, n), or (5,) for one point
    generator: str
    box: list | None = None
    seed: int = 0
    resolution: int | None = None
    parent: SampleSet | None = None
    reason: str | None = None
    _jets: dict = field(default_factory=dict, init=False, repr=False)

    def subset(self, keep, reason) -> SampleSet:
        """The points a boolean mask or a slice keeps; the sample itself when it keeps them all."""
        if not isinstance(keep, slice) and np.all(keep):
            return self
        points = self.points[:, keep]
        if points.shape == self.points.shape:
            return self
        return SampleSet(points, self.generator, self.box, self.seed, self.resolution, self, reason)

    def jets(self, fields, order=0):
        """The jets of ``fields`` on the points, as ``lowering.evaluate`` gives them.

        Fields not yet held at ``order`` are evaluated in one walk over the
        group, which reads the jets already held, and their jets are kept
        read-only.  A jet held at a higher order serves a lower one: its value
        is the same.
        """
        held = self._jets
        missing = [f for f in dict.fromkeys(fields) if f not in held or held[f].order < order]
        for f, jet in zip(missing, evaluate(missing, self, order)):
            for array in (jet.value, jet.grad, jet.hess):
                if array is not None:
                    array.flags.writeable = False
            held[f] = jet
        return [held[f] for f in fields]


def as_sample(p) -> SampleSet:
    """``p`` itself when it is a sample, else a sample of the bare points ``p``."""
    return p if isinstance(p, SampleSet) else SampleSet(np.asarray(p, dtype=float), "points")


def sample_box(box, generator="halton", n=None, resolution=None, seed=0) -> SampleSet:
    if generator == "halton":
        pts = halton_points(200 if n is None else n, box, seed)
        return SampleSet(pts, "halton", list(box), seed=seed)
    if generator == "grid":
        resolution = 3 if resolution is None else resolution
        return SampleSet(grid_points(resolution, box), "grid", list(box), resolution=resolution)
    raise ValueError(f"unknown generator '{generator}'")


def matrix_rank(mats):
    """Rank of stacked 5-row matrices via singular values.

    ``mats`` has shape (..., 5, m): antisymmetric 5x5 bivectors, whose rank is
    even, or joined ``[A | B]`` pairs of shape (..., 5, 10).  The cut is
    relative to the largest singular value of each matrix, at 1e-9 of it (a
    zero matrix has rank 0).
    """
    svals = np.linalg.svd(mats, compute_uv=False)
    top = svals[..., :1]
    cut = 1e-9 * np.where(top > 0, top, 1.0)
    return np.sum(svals > cut, axis=-1)


# for each deleted index i, the four remaining indices p < q < r < s
_P, _Q, _R, _S = np.array([[k for k in range(5) if k != i] for i in range(5)]).T


def bivector_rank(mats):
    """Rank of stacked antisymmetric 5x5 matrices, shape (..., 5, 5), in closed form.

    Such a matrix has singular values s1, s1, s2, s2, 0 (Cartan: rank 2k where
    M^k != 0 and M^(k+1) = 0).  Its five principal 4x4 Pfaffians, the
    coefficients of M^M/2, have norm |pf| = s1 s2, and its squared Frobenius
    norm is 2 (s1^2 + s2^2).  The rank is 4 where s2 > 1e-9 s1, the cut of
    `matrix_rank`, that is where |pf| > 1e-9 (s1^2 + s2^2): at the cut the
    two sides differ only by a relative (s2 / s1)^2 = 1e-18, below rounding.
    A zero matrix has rank 0.  Each matrix is first scaled by its largest
    entry, so no product of entries overflows or underflows.  A non-finite
    entry raises :class:`~acpoisson.errors.DomainError`.
    """
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        bad = finite.size - np.count_nonzero(finite)
        raise DomainError(f"the assembled bivector is not finite at {bad} of {finite.size} points")
    entries = np.moveaxis(mats, (-2, -1), (0, 1))  # m[p, q] is one entry across the stack
    scale = np.max(np.abs(entries), axis=(0, 1))
    m = entries / np.where(scale > 0, scale, 1.0)
    pf = m[_P, _Q] * m[_R, _S] - m[_P, _R] * m[_Q, _S] + m[_P, _S] * m[_Q, _R]
    rank4 = np.sqrt(np.sum(pf * pf, axis=0)) > 0.5e-9 * np.sum(m * m, axis=(0, 1))
    return np.where(scale > 0, 2 + 2 * rank4, 0)


def pi_matrix_values(triple: tr.PoissonTriple, p):
    """Assembled bivector as stacked antisymmetric matrices, shape (n, 5, 5), at points or a sample."""
    from .calculus import matrix_values

    vals = matrix_values(triple.pi_matrix(), p, order=0)
    return np.moveaxis(vals, (0, 1), (-2, -1))


_EXPECTED_RANK = np.array([0, 2, 2, 4, -1])  # the matrix rank each label code predicts
CSV_HEADER = ("x1", "x2", "y1", "y2", "y3", "kappa", "beta_norm", "rank", "label", "ic1", "ic2", "ic3")


def strata_columns(triple: tr.PoissonTriple, samples: SampleSet):
    """Rank strata of a sample as columns, with no per-point Python object.

    Returns ``(columns, counts, flagged)``: one array per CSV_HEADER field, the
    number of points of each label present, and the indices of the points
    whose formula label disagrees with the rank of the assembled matrix; away
    from the tolerance bands ``flagged`` must stay empty.
    """
    pts = samples.points
    ic = tr.ic_residuals(triple, samples)
    kv = np.atleast_1d(triple.kappa_values(samples))
    bn = np.atleast_1d(triple.beta.norm_values(samples))
    kappa_tol = triple.kappa_tol(samples)
    rank = bivector_rank(pi_matrix_values(triple, samples))
    coupled = np.abs(kv) > kappa_tol
    code = 2 * coupled + (bn > 1e-9)  # indices into LABELS
    code[coupled & (np.abs(kv) <= 10 * kappa_tol)] = _NEAR
    labels = np.array(LABELS, dtype=object)[code]
    columns = [*pts, kv, bn, rank, labels, ic["ic1"], ic["ic2"].max(axis=(0, 1)), ic["ic3"].max(axis=0)]
    found, sizes = np.unique(code, return_counts=True)
    counts = {LABELS[c]: k for c, k in zip(found.tolist(), sizes.tolist())}
    return columns, counts, np.flatnonzero((code != _NEAR) & (_EXPECTED_RANK[code] != rank))

