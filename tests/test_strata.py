import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from acpoisson import connection as cn
from acpoisson import fuzz
from acpoisson import gauge as ga
from acpoisson import model as md
from acpoisson import strata as st
from acpoisson import triple as tr
from acpoisson.errors import DomainError, EmptyBox
from acpoisson.fields import ConstField, ExprField
from acpoisson.reports import write_csv

UNIT_BOX = [(0, 1)] * 5


def test_grid_sampling():
    points = st.grid_points(2, UNIT_BOX)
    assert points.shape == (5, 32)
    assert set(np.unique(points)) == {0.0, 1.0}


def _radical_inverse_digit_loop(indices, base):
    """The reference generator: one digit per pass while any index is left."""
    out = np.zeros(indices.shape, dtype=float)
    f = 1.0 / base
    i = indices.astype(np.int64).copy()
    while np.any(i > 0):
        out += f * (i % base)
        i //= base
        f /= base
    return out


@pytest.mark.parametrize(
    "n, seed",
    [(1, 0), (1, 2**40), (7, 3), (100, 999999), (600, 0), (1000, 2**40), (10**4, 12345), (5 * 10**5, 0)],
)
def test_halton_points_match_the_digit_loop_bit_for_bit(n, seed):
    box = [(-1.0, 1.0)] * 2 + [(-1.2, 1.2)] * 3
    idx = np.arange(seed + 1, seed + n + 1)
    expected = np.stack(
        [lo + (hi - lo) * _radical_inverse_digit_loop(idx, base) for (lo, hi), base in zip(box, st.HALTON_BASES)]
    )
    assert st.halton_points(n, box, seed).tobytes() == expected.tobytes()


def test_halton_deterministic():
    a = st.halton_points(100, UNIT_BOX)
    b = st.halton_points(100, UNIT_BOX)
    assert np.array_equal(a, b)
    c = st.halton_points(100, UNIT_BOX, seed=5)
    assert not np.array_equal(a, c)
    assert a.shape == (5, 100)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_degenerate_interval():
    box = [(0, 1), (2, 2), (0, 1), (0, 1), (0, 1)]
    assert np.all(st.halton_points(20, box)[1] == 2.0)


def test_empty_box_errors():
    with pytest.raises(EmptyBox):
        st.halton_points(10, [(1, 0)] + [(0, 1)] * 4)
    with pytest.raises(EmptyBox):
        st.halton_points(0, UNIT_BOX)
    with pytest.raises(EmptyBox):
        st.halton_points(10, [(0, 1)] * 4)


def test_matrix_rank_basic():
    zero = np.zeros((5, 5))
    assert st.matrix_rank(zero) == 0
    m = np.zeros((5, 5))
    m[0, 1], m[1, 0] = 1.0, -1.0
    assert st.matrix_rank(m) == 2
    batch = np.stack([zero, m])
    assert np.array_equal(st.matrix_rank(batch), [0, 2])


def test_matrix_rank_sec5_point(sec5):
    p = np.array([[0.0], [0.0], [1.0], [0.0], [0.0]])
    mats = st.pi_matrix_values(sec5, p)
    assert st.matrix_rank(mats)[0] == 4


def test_rank_always_even(rng, sec5, wide_pts):
    ranks = st.matrix_rank(st.pi_matrix_values(sec5, wide_pts))
    assert np.all(ranks % 2 == 0)


def _point_row(triple, p):
    """The `strata_columns` row of the one point p, keyed by CSV_HEADER."""
    columns, _, _ = st.strata_columns(triple, st.as_sample(np.reshape(np.asarray(p, float), (5, 1))))
    return {key: column[0] for key, column in zip(st.CSV_HEADER, columns)}


def test_classify_examples(sec5):
    assert _point_row(sec5, [1, 0, 1, 0, 0])["label"] == "rank2_vertical"
    assert _point_row(sec5, [0, 0, 0, 0, 0])["label"] == "rank0"
    assert _point_row(sec5, [0, 0, 1, 0, 0])["label"] == "rank4"
    s = _point_row(sec5, [0, 0, 1, 0, 0])
    assert s["rank"] == 4 and s["kappa"] == 1.0


def test_classify_deformed_cutoff_family(pts):
    base = tr.PoissonTriple(
        cn.Connection.flat(),
        ExprField("cutoff(y1^2+y2^2+y3^2)"),
        tr.VerticalOneForm(["y1", "y2", "y3"]),
    )
    G = ga.GaugeData(mu=(ExprField("y3"), ConstField(0.0)), c=ConstField(0.0))
    T = ga.family(base, G, 0.05, probe=pts)
    assert _point_row(T, [0.3, 0.2, 1.2, 0.5, 0])["label"] == "rank2_vertical"
    assert _point_row(T, [0.3, 0.2, 0.5, 0, 0])["label"] == "rank4"
    assert _point_row(T, [0.3, 0.2, 0, 0, 0])["label"] == "rank2_horizontal"


def test_strata_report_flat_horizontal(pts):
    T = tr.PoissonTriple(cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm.zero())
    samples = st.SampleSet(pts)
    _, counts, flagged = st.strata_columns(T, samples)
    assert counts == {"rank2_horizontal": pts.shape[1]}
    assert flagged.size == 0


def test_strata_report_sec5_mixture(sec5):
    samples = st.SampleSet(st.grid_points(3, [(-2, 2)] * 5))
    columns, counts, flagged = st.strata_columns(sec5, samples)
    assert flagged.size == 0
    labels = set(counts)
    assert {"rank4", "rank2_vertical"} <= labels
    # one column per CSV schema field, one entry per point
    assert len(columns) == len(st.CSV_HEADER)
    assert all(len(column) == samples.points.shape[1] for column in columns)


def test_formula_label_matches_svd_rank_campaign(rng):
    for k in range(10):
        T = fuzz.random_flat_casimir_triple(rng)
        samples = st.SampleSet(st.halton_points(80, [(-1, 1)] * 5, seed=k))
        _, _, flagged = st.strata_columns(T, samples)
        assert flagged.size == 0


def test_coupling_indicator_matches_horizontal_rank(rng, sec5, wide_pts):
    mask = sec5.coupling_mask(wide_pts)
    kv = np.abs(sec5.kappa_values(wide_pts))
    tol = sec5.kappa_tol(wide_pts)
    horizontal_rank = 2 * (kv > tol)
    assert np.array_equal(mask, horizontal_rank == 2)


def test_csv_roundtrip(tmp_path, sec5):
    samples = st.SampleSet(st.grid_points(2, [(-2, 2)] * 5))
    columns, _, _ = st.strata_columns(sec5, samples)
    path = tmp_path / "strata.csv"
    write_csv(path, st.CSV_HEADER, columns)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,y1,y2,y3,kappa,beta_norm,rank,label,ic1,ic2,ic3"
    assert len(path.read_text().splitlines()) == 33


@pytest.mark.parametrize("name", sorted(md.BUILTIN_MODELS))
def test_joint_rank_of_a_matrix_with_itself_is_its_rank(name):
    # gauge.characteristic_compare passes joined (..., 5, 10) [A | B] matrices
    model = md.resolve(name)
    triple = model.effective_triple()
    pts = model.samples(40).points
    pts = pts[:, triple.domain_mask(pts)][:, :8]
    a = st.pi_matrix_values(triple, pts)
    joint = np.concatenate([a, a], axis=-1)
    assert joint.shape == (pts.shape[1], 5, 10)
    assert st.matrix_rank(joint).tolist() == st.matrix_rank(a).tolist()
    assert set(st.matrix_rank(a).tolist()) <= {0, 2, 4}


def _antisymmetric(seed, rank, s2_over_s1, scale):
    """scale * Q^T diag(s1 J, s2 J, 0) Q for a random orthogonal Q, made exactly antisymmetric."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    s1 = rng.uniform(1.0, 10.0) if rank else 0.0
    s2 = s2_over_s1 * s1 if rank == 4 else 0.0
    d = np.zeros((5, 5))
    d[0, 1], d[2, 3] = s1, s2
    a = scale * (q.T @ (d - d.T) @ q)
    return (a - a.T) / 2


# log10(s2 / s1): anywhere from 1e-12 to 1, or within about 2 % of the cut, but
# never within 1e-3 (relative) of it, where rounding may decide either way
log_ratios = hs.one_of(hs.floats(-12.0, 0.0), hs.floats(-9.01, -8.99)).filter(
    lambda e: abs(10 ** (e + 9) - 1) >= 1e-3
)
matrices = hs.builds(
    _antisymmetric,
    seed=hs.integers(0, 2**32 - 1),
    rank=hs.sampled_from([0, 2, 4]),
    s2_over_s1=log_ratios.map(lambda e: 10**e),
    scale=hs.floats(-150.0, 150.0).map(lambda e: 10**e),
)


@settings(max_examples=200, deadline=None)
@given(mats=hs.lists(matrices, min_size=1, max_size=6))
def test_bivector_rank_matches_the_svd_rank(mats):
    stack = np.stack(mats)
    expected = st.matrix_rank(stack)
    assert st.bivector_rank(stack).tolist() == expected.tolist()
    assert [int(st.bivector_rank(m)) for m in mats] == expected.tolist()


def test_generated_matrices_have_the_rank_asked_for():
    # on either side of the 1e-9 cut of both rank functions
    assert st.matrix_rank(_antisymmetric(1, 0, 0.5, 1.0)) == 0
    assert st.matrix_rank(_antisymmetric(1, 2, 0.5, 1e-150)) == 2
    assert st.matrix_rank(_antisymmetric(1, 4, 1.01e-9, 1e150)) == 4
    assert st.matrix_rank(_antisymmetric(1, 4, 0.99e-9, 1e150)) == 2
    assert st.bivector_rank(_antisymmetric(1, 4, 1.01e-9, 1e150)) == 4
    assert st.bivector_rank(_antisymmetric(1, 4, 0.99e-9, 1e-150)) == 2


@pytest.mark.parametrize("name", sorted(md.BUILTIN_MODELS))
def test_bivector_rank_matches_the_svd_rank_on_the_builtin_grids(name):
    model = md.resolve(name)
    samples = st.SampleSet(st.grid_points(5, model.sampling["box"]))
    mats = st.pi_matrix_values(model.effective_triple(), samples.points)
    assert mats.shape == (5**5, 5, 5)
    assert st.bivector_rank(mats).tolist() == st.matrix_rank(mats).tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bivector_rank_rejects_non_finite_matrices(bad):
    mats = np.zeros((3, 5, 5))
    mats[1, 0, 4], mats[1, 4, 0] = bad, -bad
    with pytest.raises(DomainError, match="not finite at 1 of 3 points"):
        st.bivector_rank(mats)


def test_strata_never_calls_the_svd(monkeypatch, sec5):
    def no_svd(*args, **kwargs):
        raise AssertionError("strata called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    samples = st.SampleSet(st.grid_points(4, [(-2, 2)] * 5))
    _, _, flagged = st.strata_columns(sec5, samples)
    assert flagged.size == 0
    assert _point_row(sec5, [0, 0, 1, 0, 0])["rank"] == 4
