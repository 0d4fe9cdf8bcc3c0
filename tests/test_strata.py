import numpy as np
import pytest

from acpoisson import connection as cn
from acpoisson import fuzz
from acpoisson import gauge as ga
from acpoisson import model as md
from acpoisson import strata as st
from acpoisson import triple as tr
from acpoisson.errors import EmptyBox
from acpoisson.fields import ConstField, ExprField

UNIT_BOX = [(0, 1)] * 5


def test_grid_sampling():
    s = st.sample_box(UNIT_BOX, generator="grid", resolution=2)
    assert s.points.shape == (5, 32)
    assert set(np.unique(s.points)) == {0.0, 1.0}


def test_halton_deterministic():
    a = st.sample_box(UNIT_BOX, generator="halton", n=100)
    b = st.sample_box(UNIT_BOX, generator="halton", n=100)
    assert np.array_equal(a.points, b.points)
    c = st.sample_box(UNIT_BOX, generator="halton", n=100, seed=5)
    assert not np.array_equal(a.points, c.points)
    assert a.points.shape == (5, 100)
    assert a.points.min() >= 0.0 and a.points.max() <= 1.0


def test_degenerate_interval():
    box = [(0, 1), (2, 2), (0, 1), (0, 1), (0, 1)]
    s = st.sample_box(box, generator="halton", n=20)
    assert np.all(s.points[1] == 2.0)


def test_empty_box_errors():
    with pytest.raises(EmptyBox):
        st.sample_box([(1, 0)] + [(0, 1)] * 4, n=10)
    with pytest.raises(EmptyBox):
        st.halton_points(0, UNIT_BOX)
    with pytest.raises(EmptyBox):
        st.sample_box([(0, 1)] * 4, n=10)


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


def test_classify_examples(sec5):
    assert st.classify_point(sec5, [1, 0, 1, 0, 0]).label == "rank2_vertical"
    assert st.classify_point(sec5, [0, 0, 0, 0, 0]).label == "rank0"
    assert st.classify_point(sec5, [0, 0, 1, 0, 0]).label == "rank4"
    s = st.classify_point(sec5, [0, 0, 1, 0, 0])
    assert s.rank == 4 and s.kappa == 1.0


def test_classify_deformed_cutoff_family(pts):
    base = tr.PoissonTriple(
        cn.Connection.flat(),
        ExprField("cutoff(y1^2+y2^2+y3^2)"),
        tr.VerticalOneForm(["y1", "y2", "y3"]),
    )
    G = ga.GaugeData(mu=(ExprField("y3"), ConstField(0.0)), c=ConstField(0.0))
    T = ga.family(base, G, 0.05, probe=pts)
    assert st.classify_point(T, [0.3, 0.2, 1.2, 0.5, 0]).label == "rank2_vertical"
    assert st.classify_point(T, [0.3, 0.2, 0.5, 0, 0]).label == "rank4"
    assert st.classify_point(T, [0.3, 0.2, 0, 0, 0]).label == "rank2_horizontal"


def test_strata_report_flat_horizontal(pts):
    T = tr.PoissonTriple(cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm.zero())
    samples = st.SampleSet(pts, "halton", [(-1, 1)] * 5)
    result = st.strata_report(T, samples)
    assert result["counts"] == {"rank2_horizontal": pts.shape[1]}
    assert not result["rank_disagreements"]


def test_strata_report_sec5_mixture(sec5):
    samples = st.sample_box([(-2, 2)] * 5, generator="grid", resolution=3)
    result = st.strata_report(sec5, samples)
    assert not result["rank_disagreements"]
    labels = set(result["counts"])
    assert {"rank4", "rank2_vertical"} <= labels
    # rows carry the CSV schema fields
    row = result["rows"][0]
    assert set(row) == {"point", "kappa", "beta_norm", "rank", "label", "ic1", "ic2", "ic3"}


def test_formula_label_matches_svd_rank_campaign(rng):
    for k in range(10):
        T = fuzz.random_flat_casimir_triple(rng)
        samples = st.SampleSet(st.halton_points(80, [(-1, 1)] * 5, seed=k), "halton", [(-1, 1)] * 5)
        result = st.strata_report(T, samples)
        assert not result["rank_disagreements"]


def test_coupling_indicator_matches_horizontal_rank(rng, sec5, wide_pts):
    mask = sec5.coupling_mask(wide_pts)
    kv = np.abs(sec5.kappa_values(wide_pts))
    tol = sec5.kappa_tol(wide_pts)
    horizontal_rank = 2 * (kv > tol)
    assert np.array_equal(mask, horizontal_rank == 2)


def test_csv_roundtrip(tmp_path, sec5):
    samples = st.sample_box([(-2, 2)] * 5, generator="grid", resolution=2)
    result = st.strata_report(sec5, samples)
    path = tmp_path / "strata.csv"
    st.rows_to_csv(result["rows"], path)
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
