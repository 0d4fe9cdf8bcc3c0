"""Command-line driver: model verification campaigns and report emission.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 bad input (also an
expression too deep to evaluate or an output that cannot be written),
3 a numeric domain error stopped evaluation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial

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
    NESTED_TOO_DEEPLY,
    AcPoissonError,
    BadInput,
    DomainError,
    MissingSection,
    ZeroVolumeFactor,
)
from .fields import ExprField
from .jets import take_nudges
from .lowering import evaluate
from .reports import Block, VerificationReport, residual_block, run_table, write_csv  # noqa: F401 (residual_block re-exported)

EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_NUMERIC = 0, 1, 2, 3


def _document(model: md.ModelFile, report: VerificationReport):
    doc = report.to_dict()
    doc["model"] = model.name
    doc["tool_version"] = __version__
    doc["tolerances"] = dict(model.tolerances)
    s = model.sampling
    # a grid reads only its resolution, a Halton sample only its count and seed
    read = ("resolution",) if s["generator"] == "grid" else ("n", "seed")
    doc["sampling"] = {"box": [list(iv) for iv in s["box"]], "generator": s["generator"], **{k: s[k] for k in read}}
    return doc


def _emit(doc):
    """A document as JSON text, refused with :class:`DomainError` if it holds a non-finite number;
    a command emits every document before it writes any file.  The cutoff nudges since the
    command started or since its last document are counted in ``meta.cutoff_nudges``."""
    nudges = take_nudges()
    if nudges:
        doc = {**doc, "meta": {**doc.get("meta", {}), "cutoff_nudges": nudges}}
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DomainError("the report holds a non-finite number, which JSON cannot carry") from None


def _write(out, text):
    """Write emitted JSON text to the file ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _domain_sample(model, triple, n):
    """The command's one sample, cut to the triple's domain: every block reads its points or a subset."""
    sample = model.samples(n=n)
    return sample.subset(triple.domain_mask(sample), "domain")


def run_check(model: md.ModelFile, n=None, tol=None) -> VerificationReport:
    """The full residual suite for the triple a model file denotes."""
    identity_tol = tol if tol is not None else model.tolerance("identity")
    triple = model.effective_triple()
    conn = triple.conn
    sample = _domain_sample(model, triple, n)
    report = tr.equivalence_check(triple, sample, tol=identity_tol)
    report.name = "check"

    first60 = sample.subset(slice(60), "first 60 points")
    first200 = sample.subset(slice(200), "first 200 points")
    coupled = sample.subset(triple.coupling_mask(sample), "coupling")
    kv = np.abs(triple.kappa_values(sample))
    band = sample.subset(kv <= 1e-6 * (1.0 + np.max(kv)), "kappa zero band")

    def almost_coupling(s):
        # the mixed component of the re-bigraded tensor
        return tr.mixed_residual(ca.coord_to_moving_bivector(triple.pi_coord(), conn), s)

    def cochain_identities(s):
        test_forms = [
            FieldElement.form({((), (1, 2, 3)): 1.0}),  # the fiber volume
            triple.beta.as_form(),
            FieldElement.form({((1,), ()): triple.kappa}),
        ]
        forms = [r for form in test_forms for r in ca.cochain_residual_forms(conn, form)]
        return tr.coefficient_max(ca.evaluate_elements(forms, s), s.points)

    def volume_structure(s):
        return tr.coefficient_max(ca.evaluate_elements(cn.f4_residual_forms(conn), s), s.points)

    def dual_formulas(s):
        theta = cn.theta(conn).at(s) - cn.theta_from_volume(conn, s)
        return tr.coefficient_max([theta, cn.rho(conn).at(s) - cn.rho_from_volume(conn, s)], s.points)

    def curvature_commutator(s):
        rho = np.stack([j.value for j in s.jets(cn.rho_components(conn))])
        return np.max(np.abs(cn.curvature(conn, s) - rho), axis=0)

    table = [
        Block("almost-coupling", sample, almost_coupling, identity_tol),
        Block("cochain-identities", first60, cochain_identities, identity_tol),
        Block("volume-structure-identities", first200, volume_structure, identity_tol),
        Block("theta-rho-dual-formulas", first200, dual_formulas, identity_tol),
        Block("curvature-commutator-agreement", first200, curvature_commutator, identity_tol),
    ]
    if coupled.points.shape[1]:
        table += [
            Block("structure-preserving-connection", coupled, partial(tr.poisson_connection_residual, triple), identity_tol),
            Block("horizontal-beta-compatibility", coupled, partial(tr.c2_residual, triple), identity_tol),
            Block("curvature-kappa-compatibility", coupled, partial(tr.c3_residual, triple), identity_tol),
            Block("horizontal-cocycle", coupled, partial(tr.cocycle_residual, triple), identity_tol),
            Block("curvature-identity", coupled, partial(tr.curvature_identity_residual, triple), identity_tol),
            Block("coupling-form-identity", coupled, partial(tr.coupling_form_residual, triple), 1e-10),
        ]
    if band.points.shape[1]:
        table.append(Block("boundary-first-variation", band, partial(tr.c5_residual, triple), identity_tol))
    return run_table(report, table)


def cmd_check(args):
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise BadInput(f"--tol must be a non-negative number, got {args.tol}")
    model = md.resolve(args.model)
    report = run_check(model, n=args.samples, tol=args.tol)
    _write(args.out, _emit(_document(model, report)))
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_strata(args):
    model = md.resolve(args.model)
    triple = model.effective_triple()
    samples = st.SampleSet(st.grid_points(args.grid, model.sampling["box"]))
    columns, counts, flagged = st.strata_columns(triple, samples)
    summary = {
        "model": model.name,
        "tool_version": __version__,
        "counts": counts,
        "rank_disagreements": flagged.size,
        "csv": args.out,
    }
    text = _emit(summary)
    write_csv(args.out, st.CSV_HEADER, columns)
    print(text)
    return EXIT_OK if not flagged.size else EXIT_FAIL


def cmd_modular(args):
    model = md.resolve(args.model)
    cert = model.certificate_data()
    if args.certificate and cert is None:
        raise MissingSection("certificate")
    triple = model.effective_triple()
    sample = _domain_sample(model, triple, args.samples)
    identity_tol = model.tolerance("identity")

    def symmetry(s):
        # the modular field must be an infinitesimal symmetry of the structure
        Z = mo.modular_direct_fields(triple)
        return tr.component_max(ca.lie_derivative_bivector(Z, triple.pi_matrix(), s).values())

    table = [
        Block("bigraded-vs-direct", sample, partial(mo.bigraded_vs_direct_residual, triple), model.tolerance("oracle")),
        Block("renormalization-rule", sample, partial(mo.renormalization_check, triple, ExprField("2 + sin(x1)")), 1e-10),
        # beta need not be closed, so its three blocks are reported but do not decide the verdict
        Block("closedness", sample, partial(mo.closedness_check, triple), identity_tol, "informational for non-closed beta", True),
        Block("modular-field-symmetry", sample.subset(slice(100), "first 100 points"), symmetry, 1e-8),
    ]
    report = run_table(VerificationReport(name="modular"), table)
    if args.certificate:
        # built after the table above has run: the coupling cut then reads kappa's held 1-jets
        run_table(report, mo.certificate_table(triple, cert, sample, identity_tol, model.tolerance("conservation")))
    columns = [*sample.points, *mo.modular_direct(triple, None, sample)] if args.csv else None
    text = _emit(_document(model, report))
    if args.csv:
        write_csv(args.csv, ["x1", "x2", "y1", "y2", "y3", "Z_x1", "Z_x2", "Z_y1", "Z_y2", "Z_y3"], columns)
    _write(args.out, text)
    return EXIT_OK if report.passed else EXIT_FAIL


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
        raise MissingSection("gauge")
    if not eps_values:
        raise BadInput("give --epsilon or --sweep")
    variants = [model.with_gauge_epsilon(eps) for eps in eps_values]
    names = {}
    for eps, variant in zip(eps_values, variants):
        # a variant's files are named after it: two epsilons of one name would overwrite each other
        if variant.name in names:
            raise BadInput(f"epsilons {names[variant.name]!r} and {eps!r} give one variant name, {variant.name}")
        names[variant.name] = eps
    summary, texts = [], []
    for eps, variant in zip(eps_values, variants):
        report = run_check(variant)
        texts.append(_emit(_document(variant, report)))  # each report counts its own nudges
        stem = os.path.join(args.outdir, variant.name)
        summary.append({"epsilon": eps, "model_file": stem + ".ini", "report": stem + ".report.json",
                        "verdict": "pass" if report.passed else "fail"})
    text = _emit({"model": model.name, "sweep": summary})
    os.makedirs(args.outdir, exist_ok=True)
    for variant, entry, report_text in zip(variants, summary, texts):
        md.save(variant, entry["model_file"])
        _write(entry["report"], report_text)
    print(text)
    return EXIT_OK if all(s["verdict"] == "pass" for s in summary) else EXIT_FAIL


def cmd_flow(args):
    try:
        p0 = [float(tok) for tok in args.p0.split(",")]
    except ValueError:
        raise BadInput(f"--p0 needs numbers, got {args.p0!r}") from None
    if len(p0) != 5:
        raise BadInput("--p0 needs five comma-separated coordinates")
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
    tol = model.tolerance("conservation")
    report = fl.conservation_report(triple, traj, casimirs, volume, f_tol=tol, casimir_tol=tol, div_tol=tol)
    text = _emit(_document(model, report))
    if args.csv:
        fl.trajectory_to_csv(traj, casimirs, args.csv)  # evaluates nothing: the report holds its jets
    _write(args.out, text)
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

    nudges = take_nudges()
    if nudges:
        print(f"cutoff nudges: {nudges}")
    print(("selftest passed" if not failures else f"selftest FAILED: {failures}"))
    return EXIT_OK if not failures else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage error is one ``error:`` line on stderr and exit 2."""

    def error(self, message):
        if message.endswith("expected one argument"):  # "argument --opt: expected one argument"
            message += f" (write a value that starts with '-' as {message.split()[1].rstrip(':')}=VALUE)"
        self.exit(EXIT_INPUT, f"error: {self.prog}: {message}\n")


@cache
def build_parser():
    """The command-line parser, built once per process: ``main`` only reads it."""
    parser = _Parser(
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

    p = subs.add_parser("strata", help="rank stratification over a grid, CSV output")
    p.add_argument("model")
    p.add_argument("--grid", type=int, default=5, help="points per axis")
    p.add_argument("--out", default="strata.csv")

    p = subs.add_parser("modular", help="modular-field diagnostics and certificates")
    p.add_argument("model")
    p.add_argument("--certificate", action="store_true", help="verify the [certificate] block")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--csv", default=None, help="write modular field samples here")
    p.add_argument("--out", default=None)

    p = subs.add_parser("gauge", help="apply/sweep the gauge block; write models + reports")
    p.add_argument("model")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--sweep", default=None, help="comma-separated epsilon list")
    p.add_argument("--outdir", default=".")

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

    subs.add_parser("selftest", help="built-in examples plus fuzz campaigns")
    return parser


def main(argv=None):
    # a usage error exits 2, matching the input-error contract
    args = build_parser().parse_args(argv)
    take_nudges()  # a command's reports count only its own nudges
    # an error ends in one stderr line and its exit code
    try:
        # overflow and NaN surface as verdicts or as a DomainError, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return globals()[f"cmd_{args.command}"](args)  # looked up per run: the parser is built once
    except (DomainError, ZeroVolumeFactor) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except AcPoissonError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print(f"error: {NESTED_TOO_DEEPLY}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
