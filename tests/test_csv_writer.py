"""`reports.write_csv` against the per-row reference it replaced.

The reference is ``csv.writer`` fed one row at a time, each float cell as
``repr(float(v))`` and each int or label cell as ``.tolist()`` gives it.  The
columnar writer formats each distinct float bit pattern once and joins the
rows itself; on the cells it writes, labels with no comma, quote or line
break (every label the package writes is one of ``strata.LABELS``), both
must give the same bytes.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acpoisson.reports import write_csv
from acpoisson.strata import LABELS

SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308,
    0.1 + 0.2, 1 / 3, -123456789.01234567, 1e16, 1e-7,
]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
BARE_LABELS = st.one_of(st.sampled_from(LABELS), st.text(st.characters(blacklist_characters=',"\r\n'), min_size=1))


def reference_csv(path, header, columns):
    """The old per-row writer: ``repr(float(v))`` per float cell."""
    cells = [[repr(float(v)) for v in c] if c.dtype.kind == "f" else c.tolist() for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(cells[0]) if cells else 0):
            writer.writerow([col[k] for col in cells])


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "label"]), min_size=1, max_size=6))
    columns = []
    for kind in kinds:
        # a small pool makes exact repeats common, and half the float pools
        # hold both signed zeros
        cells = {"float": FLOATS, "int": st.integers(-(2**63), 2**63 - 1), "label": BARE_LABELS}[kind]
        pool = draw(st.lists(cells, min_size=1, max_size=4))
        if kind == "float":
            pool += draw(st.sampled_from([[], [0.0, -0.0]]))
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        dtype = {"float": np.float64, "int": np.int64, "label": object}[kind]
        columns.append(np.array(values, dtype=dtype))
    header = [f"c{k}" for k in range(len(columns))]
    return header, columns


def outcome(write, path, header, columns):
    """The bytes ``write`` leaves, or the characters UTF-8 cannot encode (a lone surrogate)."""
    try:
        write(path, header, columns)
    except UnicodeEncodeError as exc:
        return UnicodeEncodeError, exc.object[exc.start:exc.end]
    return path.read_bytes()


def assert_same_bytes(tmp_path, header, columns):
    new = outcome(write_csv, tmp_path / "new.csv", header, columns)
    assert new == outcome(reference_csv, tmp_path / "old.csv", header, columns)


MIXED = (
    ["x", "label", "rank"],
    [
        np.array([0.0, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1 + 0.2]),
        np.array(["rank4", "rank0"] * 4, dtype=object),
        np.arange(8),
    ],
)


@settings(max_examples=100, deadline=None)
@given(tables())
@example(MIXED)
@example((["c0", "c1"], [np.array([0.0]), np.array(["\ud800"], dtype=object)]))
def test_bare_columns_match_the_row_writer(tmp_path_factory, table):
    assert_same_bytes(tmp_path_factory.mktemp("csv"), *table)


def test_signed_zeros_keep_their_sign(tmp_path):
    write_csv(tmp_path / "z.csv", ["z"], [np.array([0.0, -0.0, -0.0, 0.0])])
    assert (tmp_path / "z.csv").read_bytes() == b"z\r\n0.0\r\n-0.0\r\n-0.0\r\n0.0\r\n"


def test_columns_of_different_length_are_refused(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
