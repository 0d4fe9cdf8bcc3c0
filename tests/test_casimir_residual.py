"""One statement of the vertical Casimir residual max_a |(d_(0,1)c x beta)_a|.

``triple.vertical_casimir_residual`` serves every caller, and the callers that
need only this residual build no horizontal derivative field.
"""

import numpy as np
import pytest

from acpoisson import calculus as ca
from acpoisson import model as md
from acpoisson import modular as mo
from acpoisson import triple as tr
from acpoisson.fields import ExprField

MODELS = sorted(md.BUILTIN_MODELS)


def _written_out(beta, c, points):
    """The residual on the unmemoized jets of ``Field.at``."""
    dc = c.at(points, 1).grad[2:]
    bv = np.stack([b.at(points, 0).value for b in beta.comps])
    return np.max(np.abs(np.cross(dc, bv, axis=0)), axis=0)


@pytest.mark.parametrize("name", MODELS)
def test_every_caller_gets_the_same_bytes(name):
    model = md.resolve(name)
    triple = model.effective_triple()
    points = model.samples(200).points
    for c in (triple.kappa, ExprField("y1^2 + y2^2 + y3^2"), ExprField("x1*y2 - sin(y3)")):
        got = tr.vertical_casimir_residual(triple.beta, c, points)
        assert got.tobytes() == _written_out(triple.beta, c, points).tobytes()
    got = tr.vertical_casimir_residual(triple.beta, triple.kappa, points)
    assert tr.c5_residual(triple, points).tobytes() == got.tobytes()


def _horizontal_derivatives(monkeypatch):
    """The (i, field) of every ``calculus.hor_apply`` call from here on."""
    built = []
    hor_apply = ca.hor_apply

    def spy(conn, i, f, *rest):
        built.append((i, f))
        return hor_apply(conn, i, f, *rest)

    monkeypatch.setattr(ca, "hor_apply", spy)
    return built


def test_certificate_casimir_blocks_build_no_horizontal_field(monkeypatch):
    model = md.resolve("br3_unimodular")
    triple = model.effective_triple()
    sample = model.samples(200)
    # h and K are not a certificate of br3; they only make the fields each block reads recognisable
    cert = mo.UnimodularityCertificate(h=ExprField("0.5*x1*y2 + 0.25*y3"), K=ExprField("2 + y1^2"))
    built = _horizontal_derivatives(monkeypatch)
    report = mo.unimod_global_check(triple, cert, sample)
    # theta-exactness reads hor_1 h and hor_2 h; the h-casimir and K-casimir blocks read none
    assert [i for i, f in built if f is cert.h] == [1, 2]
    assert not [f for _, f in built if f is cert.K]
    zero_set = sample.subset(~triple.coupling_mask(sample), "kappa zero set")
    coupled = sample.subset(triple.coupling_mask(sample), "coupling")
    assert zero_set.points.shape[1] and coupled.points.shape[1]
    for check, c, points in (("h-casimir", cert.h, coupled.points), ("K-casimir-on-zero-set", cert.K, zero_set.points)):
        block = report.block(check)
        assert block.n_samples == points.shape[1]
        assert block.max_residual == float(np.max(_written_out(triple.beta, c, points)))
