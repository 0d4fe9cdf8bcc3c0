"""Rank stratification and deterministic chart sampling.

Two generators draw points in a box: :func:`halton_points` uses the
radical-inverse sequences in bases 2, 3, 5, 7, 11 (one base per chart
variable) with an index offset acting as the seed, so a given (box, n, seed)
always reproduces the same points, and :func:`grid_points` lays a tensor
grid.  A model picks its generator (``ModelFile.samples``) and ``strata``
always takes a grid.  A sample is also the evaluation context of the command
that drew it (:class:`SampleSet`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import triple as tr
from .errors import BadInput, DomainError, EmptyBox
from .jets import Jet
from .lowering import evaluate
from .reports import chunked

HALTON_BASES = (2, 3, 5, 7, 11)
# largest tensor grid (points in all), checked before the grid is built
MAX_GRID_POINTS = 10**5
# largest Halton sample, checked before it is built: `check` peaks at about
# 32 MB plus 0.27 KB per point (its tables run chunk by chunk), so this many
# points need about 170 MB
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
    """Sample points: the evaluation context of one command.

    A sample made by a mask or slice of another keeps that ``parent`` and the
    ``reason`` it was taken.  ``jets`` evaluates fields on the points through
    ``lowering.evaluate`` and keeps their jets, keyed by field identity, for
    as long as the sample lives, so every block of a command that reads the
    same field on the same sample shares one evaluation.  A kernel given the
    sample, not its points, passes it on to ``lowering.evaluate``, whose walk
    takes each held jet as a leaf: a field the sample holds is not combined
    again below any derived field, unless a ``cutoff`` lies below it, whose
    nudges are counted per evaluation.  A ``piece`` of consecutive points
    starts with views of the held jets, so what the sample holds is not
    evaluated again on it.  Nothing else refers to the held jets, and a piece
    refers to its sample but not the other way, so they go with the sample,
    without waiting for the cyclic collector.
    """

    points: np.ndarray  # (5, n), or (5,) for one point
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
        return SampleSet(points, self, reason)

    def piece(self, start, stop) -> SampleSet:
        """Points ``start`` .. ``stop`` - 1, holding views of the jets this sample holds (no copy)."""
        piece = SampleSet(self.points[:, start:stop], self, "chunk")
        for f, jet in self._jets.items():
            piece._jets[f] = Jet(*(a if a is None else a[..., start:stop] for a in (jet.value, jet.grad, jet.hess)))
        return piece

    def jets(self, fields, order=0):
        """The jets of ``fields`` on the points, as ``lowering.evaluate`` gives them.

        Fields not yet held at ``order`` are evaluated in one walk over the
        group, which reads the jets already held, chunk by chunk
        (``reports.chunked``), and their jets are joined and kept read-only.  A
        jet held at a higher order serves a lower one: its value is the same.
        """
        held = self._jets
        missing = [f for f in dict.fromkeys(fields) if f not in held or held[f].order < order]
        if missing:
            walk = chunked(lambda share: [_arrays(jet) for jet in evaluate(missing, share(self), order)], [self])
            for f, arrays in zip(missing, walk):
                for array in arrays:
                    array.flags.writeable = False
                held[f] = Jet(*arrays)
        return [held[f] for f in fields]


def _arrays(jet):
    """A jet's value, and its gradient and Hessian where it has them."""
    return [a for a in (jet.value, jet.grad, jet.hess) if a is not None]


def as_sample(p) -> SampleSet:
    """``p`` itself when it is a sample, else a sample of the bare points ``p``."""
    return p if isinstance(p, SampleSet) else SampleSet(np.asarray(p, dtype=float))


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

    vals = matrix_values(triple.pi_matrix(), p)
    return np.moveaxis(vals, (0, 1), (-2, -1))


_EXPECTED_RANK = np.array([0, 2, 2, 4, -1])  # the matrix rank each label code predicts
CSV_HEADER = ("x1", "x2", "y1", "y2", "y3", "kappa", "beta_norm", "rank", "label", "ic1", "ic2", "ic3")


def strata_columns(triple: tr.PoissonTriple, samples: SampleSet):
    """Rank strata of a sample as columns, with no per-point Python object.

    Returns ``(columns, counts, flagged)``: one array per CSV_HEADER field, the
    number of points of each label present, and the indices of the points
    whose formula label disagrees with the rank of the assembled matrix; away
    from the tolerance bands ``flagged`` must stay empty.  The columns are
    computed chunk by chunk (``reports.chunked``); the kappa tolerance, scaled
    by the largest |kappa| of the whole sample, is set before the first chunk,
    from the 1-jets of kappa that ``ic_residuals`` reads in every chunk.
    """
    samples.jets([triple.kappa], 1)
    kappa_tol = triple.kappa_tol(samples)

    def columns(share):
        s = share(samples)
        ic = tr.ic_residuals(triple, s)
        kv = np.atleast_1d(triple.kappa_values(s))
        bn = np.atleast_1d(triple.beta.norm_values(s))
        rank = bivector_rank(pi_matrix_values(triple, s))
        return [kv, bn, rank, ic["ic1"], ic["ic2"].max(axis=(0, 1)), ic["ic3"].max(axis=0)]

    kv, bn, rank, *ic = chunked(columns, [samples])
    coupled = np.abs(kv) > kappa_tol
    code = 2 * coupled + (bn > 1e-9)  # indices into LABELS
    code[coupled & (np.abs(kv) <= 10 * kappa_tol)] = _NEAR
    labels = np.array(LABELS, dtype=object)[code]
    columns = [*samples.points, kv, bn, rank, labels, *ic]
    found, sizes = np.unique(code, return_counts=True)
    counts = {LABELS[c]: k for c, k in zip(found.tolist(), sizes.tolist())}
    return columns, counts, np.flatnonzero((code != _NEAR) & (_EXPECTED_RANK[code] != rank))
