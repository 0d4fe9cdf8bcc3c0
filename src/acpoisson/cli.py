"""Command-line driver: model verification campaigns and report emission.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 bad input,
3 a numeric domain error stopped evaluation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from . import calculus as ca
from . import connection as cn
from . import flow as fl
from . import gauge as ga
from . import model as md
from . import modular as mo
from . import strata as st
from . import triple as tr
from .calculus import FieldElement
from .errors import (
    AcPoissonError,
    BadInput,
    DomainError,
    ModelError,
    OrderBudgetExceeded,
    ZeroVolumeFactor,
)
from .fields import ExprField
from .lowering import evaluate
from .reports import VerificationReport, residual_block, write_csv

EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_NUMERIC = 0, 1, 2, 3


def _document(model: md.ModelFile, report: VerificationReport):
    doc = report.to_dict()
    doc["model"] = model.name
    doc["tool_version"] = __version__
    doc["tolerances"] = dict(model.tolerances)
    s = model.sampling
    doc["sampling"] = {
        "box": [list(iv) for iv in s["box"]],
        "generator": s["generator"],
        "n": s["n"],
        "seed": s["seed"],
    }
    return doc


def _emit(doc, out):
    """Write a report as JSON; one with a non-finite number is refused before anything is written."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DomainError("the report holds a non-finite number, which JSON cannot carry") from None
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def run_check(model: md.ModelFile, n=None, tol=None) -> VerificationReport:
    """The full residual suite for the triple a model file denotes."""
    identity_tol = tol if tol is not None else model.tolerance("identity")
    triple = model.effective_triple()
    # every block reads the triple's inputs through this one sample and its subsets
    sample = model.samples(n=n)
    sample = sample.subset(triple.domain_mask(sample.points), "domain")
    pts = sample.points

    report = tr.equivalence_check(triple, sample, tol=identity_tol)
    report.name = "check"

    # almost-coupling: the mixed component of the re-bigraded tensor
    mov = ca.coord_to_moving_bivector(triple.pi_coord(), triple.conn)
    mixed = np.zeros(pts.shape[1])
    for jet in evaluate(mov.project(1, 1).coeffs.values(), pts):
        mixed = np.maximum(mixed, np.abs(jet.value))
    report.add(residual_block("almost-coupling", np.atleast_1d(mixed), pts, identity_tol))

    first200 = sample.subset(slice(200), "first 200 points")
    sub = first200.points
    tiny = sample.subset(slice(60), "first 60 points").points

    test_forms = {
        "fiber-volume": FieldElement.form({((), (1, 2, 3)): 1.0}),
        "beta": triple.beta.as_form(),
        "kappa-dx1": FieldElement.form({((1,), ()): triple.kappa}),
    }
    worst = np.zeros(tiny.shape[1])
    for form in test_forms.values():
        worst = np.maximum(worst, np.max(np.stack(ca.cochain_residuals(triple.conn, form, tiny)), axis=0))
    report.add(residual_block("cochain-identities", worst, tiny, identity_tol))

    f4 = np.maximum(*cn.f4_residuals(triple.conn, sub))
    report.add(residual_block("volume-structure-identities", np.atleast_1d(f4), sub, identity_tol))

    th = (cn.theta(triple.conn).at(sub) - cn.theta_from_volume(triple.conn, sub)).norm()
    rh = (cn.rho(triple.conn).at(sub) - cn.rho_from_volume(triple.conn, sub)).norm()
    report.add(
        residual_block("theta-rho-dual-formulas", np.atleast_1d(max(th, rh)), sub, identity_tol)
    )

    curv = cn.curvature(triple.conn, sub)
    rc = np.stack([j.value for j in first200.jets(cn.rho_components(triple.conn))])
    report.add(
        residual_block(
            "curvature-commutator-agreement", np.max(np.abs(curv - rc), axis=0), sub, identity_tol
        )
    )

    coupled = sample.subset(triple.coupling_mask(sample), "coupling")
    cpts = coupled.points
    if cpts.shape[1]:
        report.add(residual_block("structure-preserving-connection", tr.poisson_connection_residual(triple, coupled), cpts, identity_tol))
        report.add(residual_block("horizontal-beta-compatibility", tr.c2_residual(triple, coupled), cpts, identity_tol))
        report.add(residual_block("curvature-kappa-compatibility", tr.c3_residual(triple, coupled), cpts, identity_tol))
        report.add(residual_block("horizontal-cocycle", tr.cocycle_residual(triple, coupled), cpts, identity_tol))
        report.add(residual_block("curvature-identity", tr.curvature_identity_residual(triple, coupled), cpts, identity_tol))
        report.add(residual_block("coupling-form-identity", tr.coupling_form_residual(triple, coupled), cpts, 1e-10))
    kv = np.abs(triple.kappa_values(sample))
    band = kv <= 1e-6 * (1.0 + np.max(kv))
    if np.any(band):
        boundary = sample.subset(band, "kappa zero band")
        report.add(
            residual_block("boundary-first-variation", tr.c5_residual(triple, boundary), boundary.points, identity_tol)
        )
    return report


def cmd_check(args):
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise BadInput(f"--tol must be a non-negative number, got {args.tol}")
    model = md.resolve(args.model)
    report = run_check(model, n=args.samples, tol=args.tol)
    doc = _document(model, report)
    _emit(doc, args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_strata(args):
    model = md.resolve(args.model)
    triple = model.effective_triple()
    box = model.sampling["box"]
    samples = st.sample_box(box, generator="grid", resolution=args.grid)
    columns, counts, flagged = st.strata_columns(triple, samples)
    write_csv(args.out, st.CSV_HEADER, columns)
    summary = {
        "model": model.name,
        "tool_version": __version__,
        "counts": counts,
        "rank_disagreements": flagged.size,
        "csv": args.out,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if not flagged.size else EXIT_FAIL


def cmd_modular(args):
    model = md.resolve(args.model)
    triple = model.effective_triple()
    # every block reads the triple's inputs through this one sample and its subsets
    sample = model.samples(n=args.samples)
    sample = sample.subset(triple.domain_mask(sample.points), "domain")
    pts = sample.points
    report = VerificationReport(name="modular")
    report.add(
        residual_block(
            "bigraded-vs-direct", mo.bigraded_vs_direct_residual(triple, sample), pts, model.tolerance("oracle")
        )
    )
    a = ExprField("2 + sin(x1)")
    report.add(
        residual_block("renormalization-rule", mo.renormalization_check(triple, a, sample), pts, 1e-10)
    )
    closed = mo.closedness_check(triple, sample)
    for key, vals in closed.items():
        report.add(residual_block(f"closedness-{key}", vals, pts, model.tolerance("identity"), note="informational for non-closed beta"))
    # the modular field must be an infinitesimal symmetry of the structure
    lz = pts[:, : min(pts.shape[1], 100)]
    Z = mo.modular_direct_fields(triple)
    report.add(
        residual_block(
            "modular-field-symmetry",
            ca.lie_derivative_norm(Z, triple.pi_matrix(), lz),
            lz,
            1e-8,
        )
    )
    cert = model.certificate_data()
    if args.certificate:
        if cert is None:
            print("model carries no [certificate] section", file=sys.stderr)
            return EXIT_INPUT
        # the global check runs the coupling check first and keeps its blocks
        unimod = mo.unimod_coupling_check if cert.K is None else mo.unimod_global_check
        sub = unimod(triple, cert, sample, tol=model.tolerance("identity"), div_tol=model.tolerance("conservation"))
        for b in sub.blocks:
            report.add(b)
    if args.csv:
        header = ["x1", "x2", "y1", "y2", "y3", "Z_x1", "Z_x2", "Z_y1", "Z_y2", "Z_y3"]
        write_csv(args.csv, header, [*pts, *mo.modular_direct(triple, None, sample)])
    doc = _document(model, report)
    _emit(doc, args.out)
    # closedness blocks are informational: beta need not be closed
    hard = [b for b in report.blocks if not b.check_id.startswith("closedness-")]
    return EXIT_OK if all(b.passed for b in hard) else EXIT_FAIL


def cmd_gauge(args):
    import os

    eps_values = [args.epsilon] if args.epsilon is not None else []
    if args.sweep:
        try:
            eps_values += [float(tok) for tok in args.sweep.split(",") if tok.strip()]
        except ValueError:
            raise BadInput(f"--sweep needs comma-separated numbers, got {args.sweep!r}") from None
    if not all(math.isfinite(eps) for eps in eps_values):
        raise BadInput(f"epsilon values must be finite, got {eps_values}")
    model = md.resolve(args.model)
    if model.gauge is None:
        print("model has no [gauge] section to sweep", file=sys.stderr)
        return EXIT_INPUT
    if not eps_values:
        print("give --epsilon or --sweep", file=sys.stderr)
        return EXIT_INPUT
    os.makedirs(args.outdir, exist_ok=True)
    overall = EXIT_OK
    summary = []
    for eps in eps_values:
        variant = model.with_gauge_epsilon(eps)
        path = os.path.join(args.outdir, f"{variant.name}.ini")
        md.save(variant, path)
        report = run_check(variant)
        rpath = os.path.join(args.outdir, f"{variant.name}.report.json")
        _emit(_document(variant, report), rpath)
        summary.append({"epsilon": eps, "model_file": path, "report": rpath, "verdict": "pass" if report.passed else "fail"})
        if not report.passed:
            overall = EXIT_FAIL
    print(json.dumps({"model": model.name, "sweep": summary}, indent=2, sort_keys=True))
    return overall


def cmd_flow(args):
    try:
        p0 = [float(tok) for tok in args.p0.split(",")]
    except ValueError:
        raise BadInput(f"--p0 needs numbers, got {args.p0!r}") from None
    if len(p0) != 5:
        print("--p0 needs five comma-separated coordinates", file=sys.stderr)
        return EXIT_INPUT
    if not all(math.isfinite(v) for v in p0):
        raise BadInput(f"--p0 coordinates must be finite, got {args.p0!r}")
    if not (math.isfinite(args.dt) and args.dt > 0):
        raise BadInput(f"--dt must be a positive number, got {args.dt}")
    if args.steps < 0:
        raise BadInput(f"--steps must be non-negative, got {args.steps}")
    model = md.resolve(args.model)
    triple = model.effective_triple()
    traj = fl.integrate(triple, ExprField(args.hamiltonian), p0, args.dt, args.steps)
    casimirs = [ExprField(c) for c in (args.casimir or [])]
    volume = ExprField(args.volume_factor) if args.volume_factor else None
    report = fl.conservation_report(
        triple,
        traj,
        casimirs=casimirs,
        volume_factor=volume,
        f_tol=model.tolerance("conservation"),
        casimir_tol=model.tolerance("conservation"),
        div_tol=model.tolerance("conservation"),
    )
    if args.csv:
        fl.trajectory_to_csv(traj, casimirs, args.csv)
    _emit(_document(model, report), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_selftest(args):
    from . import fuzz

    failures = []

    def item(name, ok, detail=""):
        print(f"[{'pass' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    for name in sorted(md.BUILTIN_MODELS):
        model = md.resolve(name)
        report = run_check(model, n=min(model.sampling["n"], 400))
        worst = max((b.max_residual for b in report.blocks), default=0.0)
        item(f"check {name}", report.passed, f"worst residual {worst:.2e}")

    model = md.resolve("br3_unimodular")
    triple = model.effective_triple()
    pts = model.samples(n=400).points
    rep = mo.unimod_global_check(triple, model.certificate_data(), pts)
    item("br3 unimodularity certificate", rep.passed)

    rng = np.random.default_rng(20240811)
    box = [(-1, 1)] * 2 + [(-1.2, 1.2)] * 3
    agree = True
    for k in range(20):
        T = fuzz.random_flat_casimir_triple(rng)
        sample = st.halton_points(100, box, seed=37 * k)
        rep = tr.equivalence_check(T, sample)
        agree &= rep.passed
    item("flat-Casimir equivalence fuzz (20 triples)", agree)

    both_fail = True
    for k in range(20):
        T = fuzz.random_flat_casimir_triple(rng, nonvanishing=True)
        bad = fuzz.curvature_perturbed(rng, T)
        sample = st.halton_points(100, box, seed=11 * k)
        rep = tr.equivalence_check(bad, sample)
        both_fail &= not rep.disagreements and rep.meta["both_fail_fraction"] == 1.0
    item("perturbed-triple verdict agreement (20 triples)", both_fail)

    worst = 0.0
    for k in range(10):
        conn = fuzz.random_connection(rng)
        sample = st.halton_points(20, box, seed=5 * k)
        form = FieldElement.form({((1,), ()): ExprField(fuzz.random_poly_expr(rng))})
        worst = max(worst, max(ca.cochain_residuals(conn, form, sample)))
        worst = max(worst, max(cn.f4_residuals(conn, sample)))
    item("random-connection identity campaign", worst <= 1e-9, f"worst {worst:.2e}")

    closure = True
    for k in range(10):
        T = fuzz.random_flat_casimir_triple(rng)
        G = fuzz.random_gauge(rng)
        sample = st.halton_points(100, box, seed=3 * k)
        Tg = ga.family(T, G, G.epsilon, probe=sample)
        inside = Tg.domain_mask(sample)
        closure &= tr.equivalence_check(Tg, sample[:, inside]).passed
    item("gauge closure fuzz (10 transforms)", closure)

    ok = True
    sample = st.halton_points(20, box)
    for k in range(5):
        T = fuzz.random_flat_casimir_triple(rng)
        A = T.kappa_values(sample)
        xi = cn.ConnectionShift(
            [[fuzz.random_poly_expr(rng, scale=0.5) for _ in range(3)] for _ in range(2)]
        )
        shifted = cn.shift(T.conn, xi)
        mov = ca.coord_to_moving_bivector(T.pi_coord(), shifted)
        A2 = evaluate([mov.coeffs[((1, 2), ())]], sample)[0].value
        ok &= bool(np.array_equal(np.asarray(A), np.asarray(A2)))
    item("horizontal-rank invariance under connection shifts", ok)

    print(("selftest passed" if not failures else f"selftest FAILED: {failures}"))
    return EXIT_OK if not failures else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="acpoisson",
        description="verification toolkit for fibered-chart Poisson structures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="run the residual verification suite")
    p.add_argument("model")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("strata", help="rank stratification over a grid, CSV output")
    p.add_argument("model")
    p.add_argument("--grid", type=int, default=5, help="points per axis")
    p.add_argument("--out", default="strata.csv")
    p.set_defaults(func=cmd_strata)

    p = subs.add_parser("modular", help="modular-field diagnostics and certificates")
    p.add_argument("model")
    p.add_argument("--certificate", action="store_true", help="verify the [certificate] block")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--csv", default=None, help="write modular field samples here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_modular)

    p = subs.add_parser("gauge", help="apply/sweep the gauge block; write models + reports")
    p.add_argument("model")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--sweep", default=None, help="comma-separated epsilon list")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_gauge)

    p = subs.add_parser("flow", help="integrate a Hamiltonian field, report conservation")
    p.add_argument("model")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--p0", required=True, help="x1,x2,y1,y2,y3")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--casimir", action="append", default=None)
    p.add_argument("--volume-factor", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_flow)

    p = subs.add_parser("selftest", help="built-in examples plus fuzz campaigns")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    # argparse exits 2 on usage errors, matching the input-error contract
    args = parser.parse_args(argv)
    try:
        # overflow and NaN surface as verdicts or as a DomainError, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ModelError, OrderBudgetExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (DomainError, ZeroVolumeFactor) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except AcPoissonError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
