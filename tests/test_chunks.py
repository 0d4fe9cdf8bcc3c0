"""Block tables, strata columns and CSVs run chunk by chunk, with the bytes of one chunk.

``reports.chunked`` cuts a command's sample into runs of at most
``reports.CHUNK`` consecutive points.  Whatever the chunk size, every residual
array, every report (``meta.cutoff_nudges`` included) and every CSV must be
the same bytes, and a numeric error must name the subexpression the whole
sample meets first.  A chunk size of n, the sample's size, is the whole
sample as one chunk.
"""

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from acpoisson import cli, reports
from acpoisson import model as md
from acpoisson import strata as st
from acpoisson import triple as tr
from acpoisson.errors import DomainError

MODELS = sorted(md.BUILTIN_MODELS)
GRID = "\n[sampling]\nbox = -1:1, -1:1, -1:1, -1:1, -1:1\ngenerator = grid\nresolution = {}\n"
POLES = "1/x1 + 1/(x1 + 1)"  # poles at x1 = 0 and at x1 = -1, the first grid points


def _record(monkeypatch):
    """Every residual array a report block summarizes, and the verdict scales, as bytes."""
    seen = []
    block, enter = reports.residual_block, tr.enter_equivalence

    def residual_block(check_id, residuals, *args, **kwargs):
        seen.append((check_id, np.asarray(residuals).tobytes()))
        return block(check_id, residuals, *args, **kwargs)

    def enter_equivalence(report, b, arrays):
        seen.append(("verdict-scale", arrays["scale"].tobytes()))
        return enter(report, b, arrays)

    for module in (reports, tr):
        monkeypatch.setattr(module, "residual_block", residual_block)
    monkeypatch.setattr(tr, "enter_equivalence", enter_equivalence)
    return seen


def _run(argv, chunk, monkeypatch, capsys, tmp_path):
    """exit code, stdout, stderr, the residual arrays and the bytes of out.csv, at chunk size ``chunk``."""
    with monkeypatch.context() as patch:
        patch.setattr(reports, "CHUNK", chunk)
        seen = _record(patch)
        code = cli.main(argv)
    out, err = capsys.readouterr()
    csv = tmp_path / "out.csv"
    data = csv.read_bytes() if csv.exists() else None
    if data is not None:
        csv.unlink()
    return code, out, err, seen, data


def _commands(name, n):
    model = md.resolve(name)
    modular = ["modular", name, "--samples", str(n), "--csv", "out.csv"]
    if model.certificate is not None:
        modular.append("--certificate")
    return [["check", name, "--samples", str(n)], modular]


@pytest.mark.parametrize("name", MODELS)
def test_chunk_sizes_give_the_same_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    n = 150  # more than the first 60, 100 and 200 points some blocks read, in several chunks
    for argv in _commands(name, n):
        whole = _run(argv, n, monkeypatch, capsys, tmp_path)
        assert whole[0] in (0, 1) and whole[3]
        for chunk in (2, 7, reports.CHUNK):
            assert _run(argv, chunk, monkeypatch, capsys, tmp_path) == whole, (argv, chunk)


@pytest.mark.parametrize("name", MODELS)
def test_the_chosen_chunk_size_gives_the_bytes_of_one_chunk(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    n = reports.CHUNK + 500
    for argv in _commands(name, n):
        assert _run(argv, reports.CHUNK, monkeypatch, capsys, tmp_path) == _run(argv, n, monkeypatch, capsys, tmp_path)


@pytest.mark.parametrize("name", MODELS)
def test_strata_columns_and_csv_are_the_same_bytes(name, tmp_path, capsys, monkeypatch):
    """On the 3-point grid of [-1, 1]^5, where br3_unimodular's cutoff is nudged."""
    monkeypatch.chdir(tmp_path)
    model = md.resolve(name)
    model.sampling.update(generator="grid", resolution=3, box=[(-1.0, 1.0)] * 5)
    md.save(model, tmp_path / "grid.ini")
    triple = model.effective_triple()
    argv = ["strata", "grid.ini", "--grid", "3", "--out", "out.csv"]
    whole = _run(argv, 3**5, monkeypatch, capsys, tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(reports, "CHUNK", 3**5)
        columns, counts, flagged = st.strata_columns(triple, model.samples())
    for chunk in (2, 7, reports.CHUNK):
        assert _run(argv, chunk, monkeypatch, capsys, tmp_path) == whole
        with monkeypatch.context() as patch:
            patch.setattr(reports, "CHUNK", chunk)
            got = st.strata_columns(triple, model.samples())
        assert [c.dtype for c in got[0]] == [c.dtype for c in columns]
        assert [c.tolist() if c.dtype == object else c.tobytes() for c in got[0]] == [
            c.tolist() if c.dtype == object else c.tobytes() for c in columns
        ]
        assert got[1] == counts and got[2].tobytes() == flagged.tobytes()
    if name == "br3_unimodular":
        assert json.loads(whole[1])["meta"]["cutoff_nudges"] > 0


def test_csv_rows_are_written_chunk_by_chunk_with_the_same_bytes(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    columns = [rng.choice([0.0, -0.0, 0.5, np.nan], 23), np.arange(23), np.array(st.LABELS * 5, dtype=object)[:23]]
    texts = []
    for chunk in (2, 7, 23, reports.CHUNK):
        monkeypatch.setattr(reports, "CHUNK", chunk)
        reports.write_csv(tmp_path / "c.csv", ["a", "b", "c"], columns)
        texts.append((tmp_path / "c.csv").read_bytes())
    assert len(set(texts)) == 1 and texts[0].count(b"\r\n") == 24


@pytest.mark.parametrize("where", ["kappa", "beta"])
def test_a_numeric_error_names_what_the_whole_sample_meets_first(where, tmp_path, capsys, monkeypatch):
    """Two poles on the 7-point grid of [-1, 1]^5: at x1 = -1, in the first chunk, and at x1 = 0.
    The whole sample meets the pole at x1 = 0 first, so that is the one named.  kappa is read on
    the whole sample, by the cuts; beta is read chunk by chunk, and its first chunk fails at the
    other pole, so that run is made again as one chunk."""
    monkeypatch.chdir(tmp_path)
    kappa, beta = (POLES, "y1") if where == "kappa" else ("1", POLES)
    text = f"[model]\nname = poles\n\n[kappa]\nexpr = {kappa}\n\n[beta]\nb1 = {beta}\nb2 = 0\nb3 = 0\n"
    (tmp_path / "poles.ini").write_text(text + GRID.format(7))
    runs = []
    for chunk in (reports.CHUNK, 7**5):
        code, out, err, _, _ = _run(["check", "poles.ini"], chunk, monkeypatch, capsys, tmp_path)
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        runs.append(err)
    assert runs[0] == runs[1] == "numeric error: division by zero in '1.0 / x1'\n"


def test_a_failing_step_is_run_again_as_one_chunk(monkeypatch):
    """The error raised is the one the whole sample raises, not that of the first step to fail."""
    monkeypatch.setattr(reports, "CHUNK", 4)
    sample = st.SampleSet(st.halton_points(10, [(-1, 1)] * 5))
    seen = []

    def fn(share):
        s = share(sample)
        seen.append(s.points.shape[1])
        if s.points.shape[1] < 10:
            raise DomainError(f"step of {s.points.shape[1]} points")
        raise DomainError("the whole sample")

    with pytest.raises(DomainError, match="the whole sample"):
        reports.chunked(fn, [sample])
    assert seen == [4, 10]


def test_a_chunk_holds_views_of_the_sample_jets():
    triple = md.resolve("flat_so3").effective_triple()
    sample = st.SampleSet(st.halton_points(10, [(-1, 1)] * 5))
    (held,) = sample.jets([triple.kappa], 1)
    piece = sample.piece(3, 7)
    assert piece.parent is sample and piece.points.base is sample.points
    (jet,) = piece.jets([triple.kappa], 1)
    assert jet.value.base is held.value and jet.grad.base is held.grad
    assert jet.value.tobytes() == held.value[3:7].tobytes() and not jet.value.flags.writeable


def test_a_large_sample_reads_its_jets_chunk_by_chunk(monkeypatch):
    triple = md.resolve("sec5_example").effective_triple()
    points = st.halton_points(11, [(-1, 1)] * 5)
    whole = st.SampleSet(points).jets([triple.kappa, *triple.beta.comps], 1)
    monkeypatch.setattr(reports, "CHUNK", 3)
    got = st.SampleSet(points).jets([triple.kappa, *triple.beta.comps], 1)
    assert [(j.value.tobytes(), j.grad.tobytes()) for j in got] == [(j.value.tobytes(), j.grad.tobytes()) for j in whole]


def test_each_step_shares_a_chunk_across_blocks_and_drops_it_before_the_next(monkeypatch):
    """Step k runs every block on chunk k of its subset; the blocks of one subset read one piece,
    a subset of at most CHUNK points is read whole, and no piece outlives its step."""
    monkeypatch.setattr(reports, "CHUNK", 4)
    sample = st.SampleSet(st.halton_points(10, [(-1, 1)] * 5))
    odd = sample.subset(np.arange(10) % 2 == 1, "odd")
    first = sample.subset(slice(3), "first 3 points")
    calls, refs = [], []

    def residual(s):
        live = {id(x) for x in (ref() for ref in refs) if x is not None}
        whole = s in (sample, odd, first)
        calls.append((s.points.shape[1], "whole" if whole else s.parent.reason or "sample", len(live), id(s) in live))
        if not whole:
            refs.append(weakref.ref(s))
        return s.points[0]

    subsets = (("a", sample), ("b", odd), ("c", sample), ("d", odd), ("e", first))
    table = [reports.Block(k, s, residual, 1.0) for k, s in subsets]
    gc.disable()  # what goes must go without the cyclic collector
    try:
        report = reports.run_table(reports.VerificationReport("t"), table)
    finally:
        gc.enable()
    assert [b.n_samples for b in report.blocks] == [10, 5, 10, 5, 3]
    assert [b.max_residual for b in report.blocks] == [s.points[0].max() for _, s in subsets]
    assert calls == [
        (4, "sample", 0, False), (4, "odd", 1, False), (4, "sample", 2, True), (4, "odd", 2, True), (3, "whole", 2, False),
        (4, "sample", 0, False), (1, "odd", 1, False), (4, "sample", 2, True), (1, "odd", 2, True),
        (2, "sample", 0, False), (2, "sample", 1, True),
    ]
    assert all(ref() is None for ref in refs)


def test_check_peak_memory_is_bounded_by_the_chunk():
    """``run_check`` holds at most a chunk's jets: 68.9 MB at 4 * 10^4 points when the table ran whole."""
    model = md.resolve("flat_pair_flatness")
    model.effective_triple()  # the parse and graph caches are not the table's working set
    gc.collect()
    tracemalloc.start()
    try:
        report = cli.run_check(model, n=40000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.blocks[0].n_samples == 40000
    assert peak <= 16 * 2**20, peak / 2**20
