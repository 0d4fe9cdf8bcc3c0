"""The three benchmark workloads: set-up, one timed operation, and its checks.

Each workload is one fixed unit of work so that the median latency is never
taken over a mix of operation kinds:

* ``flow_rk4``: single-point RK4 flows with the step-halving rerun and a
  conservation report on two models, plus one 64-point batch flow.  Field
  graph evaluation at n = 1 and n = 64 does nearly all the work.
* ``verify_batch``: one in-process CLI round of ``check`` on the four
  built-ins at 10^4 samples, ``modular --certificate`` and ``strata``.
  Vectorised jet arithmetic at n ~ 10^4 does most of the work.
* ``fuzz_campaign``: one seeded selftest-style round on fresh random triples,
  each evaluated a few times at small n, so parsing, differentiation and
  graph construction carry a real share of the time.

``run(k)`` performs operation ``k``; ``check(result)`` raises
:class:`CheckFailed` on a wrong result and returns the operation's report
bytes.  Operations ``0 .. warmup_ops - 1`` are the warm-up pass, which belongs
to the set-up; a traced run traces ``traced_ops`` operations.

For ``flow_rk4`` and ``verify_batch`` every operation is the same computation,
so each report must equal the warm-up pass byte for byte.  ``fuzz_campaign``
draws fresh triples for every ``k``: its cost depends on the random expression
shapes, so only a median over many rounds stays steady across seeds.  Each of
its reports is compared with an untimed replay of the same round instead,
because a warm-up of the same round before the timed one would let a cache
hide its cost.

acpoisson is imported lazily, inside ``setup``, because the set-up time
starts at ``import acpoisson``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

FLOW_MODELS = ("flat_so3", "br3_unimodular")
FLOW_CASIMIR = "y1^2 + y2^2 + y3^2"  # the fiber Casimir of both flow models
FLOW_DT = 0.01
FLOW_STEPS = 5
FLOW_BATCH = 64
VERIFY_SAMPLES = 10000
STRATA_GRID = 7
HALTON_OFFSETS = 10**6
FUZZ_BOX = [(-1.0, 1.0)] * 2 + [(-1.2, 1.2)] * 3
FUZZ_TOL = 1e-9
# fuzz rounds differ in cost with their random shapes; a warm-up pass of several
# rounds keeps the set-up time from hanging on the shapes of one
FUZZ_WARMUP_ROUNDS = 8


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _report_bytes(*reports):
    return json.dumps([r.to_dict() for r in reports], sort_keys=True).encode()


class FlowRK4:
    """Seeded polynomial Hamiltonian flows on flat_so3 and br3_unimodular."""

    name = "flow_rk4"
    fresh_inputs = False
    warmup_ops = 1
    traced_ops = 2

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        from acpoisson import fuzz, model as md

        rng = np.random.default_rng([self.seed, 1])

        def poly(terms):
            # degree-1 terms and "0 +" in front, with "+ -c" written "- c",
            # give every seed the same expression shape and so the same cost
            return ("0 + " + fuzz.random_poly_expr(rng, degree=1, terms=terms)).replace("+ -", "- ")

        self.hamiltonian = f"{poly(3)} + ({poly(2)})*({poly(2)})"
        # |y| <= 0.87 stays on its Casimir sphere, inside the cutoff support
        self.p0 = rng.uniform(-0.5, 0.5, 5)
        self.p0s = rng.uniform(-0.5, 0.5, (5, FLOW_BATCH))
        self.models = {name: md.resolve(name) for name in FLOW_MODELS}
        self.triples = {name: m.effective_triple() for name, m in self.models.items()}
        self.tols = {name: m.tolerance("conservation") for name, m in self.models.items()}

    def run(self, k):
        from acpoisson import flow as fl
        from acpoisson.fields import ExprField

        out = []
        for name in FLOW_MODELS:
            triple = self.triples[name]
            F = ExprField(self.hamiltonian)
            traj = fl.integrate(triple, F, self.p0, FLOW_DT, FLOW_STEPS)
            report = fl.conservation_report(
                triple, traj, casimirs=[ExprField(FLOW_CASIMIR)],
                f_tol=self.tols[name], casimir_tol=self.tols[name],
            )
            out.append((name, traj, report))
        name = FLOW_MODELS[-1]
        states = fl.integrate_batch(self.triples[name], ExprField(self.hamiltonian), self.p0s, FLOW_DT, FLOW_STEPS)
        return out, (name, states)

    def check(self, result):
        from acpoisson.fields import ExprField

        flows, (batch_model, states) = result
        blob = []
        for name, traj, report in flows:
            tol = self.tols[name]
            require(not traj.truncated, f"{name}: trajectory truncated")
            require(traj.n_steps == FLOW_STEPS, f"{name}: {traj.n_steps} steps")
            require(traj.halving_error is not None and traj.halving_error <= tol,
                    f"{name}: step-halving error {traj.halving_error}")
            for block in report.blocks:
                require(block.passed, f"{name}: {block.check_id} {block.max_residual:.3e}")
            require(report.passed, f"{name}: conservation report failed")
            blob.append(_report_bytes(report) + traj.states.tobytes())
        tol = self.tols[batch_model]
        require(states.shape == (5, FLOW_BATCH, FLOW_STEPS + 1), f"batch shape {states.shape}")
        require(bool(np.all(np.isfinite(states))), "batch flow left the finite range")
        require(bool(np.array_equal(states[:, :, 0], self.p0s)), "batch flow moved its start points")
        for expr in (self.hamiltonian, FLOW_CASIMIR):
            f = ExprField(expr)
            drift = np.abs(f.at(states[:, :, -1], 0).value - f.at(states[:, :, 0], 0).value)
            require(float(np.max(drift)) <= tol, f"batch drift of {expr!r}: {np.max(drift):.3e}")
        blob.append(states.tobytes())
        return b"".join(blob)


class VerifyBatch:
    """One CLI round: check x4 built-ins, modular certificate, strata grid."""

    name = "verify_batch"
    fresh_inputs = False
    warmup_ops = 1
    traced_ops = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        from acpoisson import model as md

        paths = {}
        for name in sorted(md.BUILTIN_MODELS):
            m = md.resolve(name)
            m.sampling["seed"] = self.seed % HALTON_OFFSETS  # Halton index offset
            paths[name] = os.path.join(self.workdir, f"{name}.ini")
            md.save(m, paths[name])
        self.strata_csv = os.path.join(self.workdir, "strata.csv")
        self.rounds = [["check", paths[name], "--samples", str(VERIFY_SAMPLES)] for name in sorted(paths)]
        self.rounds.append(["modular", paths["br3_unimodular"], "--certificate"])
        self.rounds.append(["strata", paths["sec5_example"], "--grid", str(STRATA_GRID), "--out", self.strata_csv])

    def run(self, k):
        from acpoisson import cli

        out = []
        for argv in self.rounds:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            out.append((argv, code, buf.getvalue()))
        return out

    def check(self, result):
        blob = []
        for argv, code, text in result:
            what = " ".join([argv[0], os.path.basename(argv[1])])
            require(code == 0, f"{what}: exit code {code}")
            doc = json.loads(text)
            if argv[0] == "strata":
                require(doc["rank_disagreements"] == 0, f"{what}: rank disagreements")
                require(sum(doc["counts"].values()) == STRATA_GRID**5, f"{what}: counts {doc['counts']}")
                with open(self.strata_csv, "rb") as fh:
                    blob.append(fh.read())
            else:
                require(not doc["disagreements"], f"{what}: the two verdict routes disagree")
                # closedness blocks are informational, as in the CLI's own exit code
                hard = [b for b in doc["checks"] if not b["check"].startswith("closedness-")]
                require(len(hard) > 0, f"{what}: no checks ran")
                for b in hard:
                    require(b["verdict"] == "pass", f"{what}: {b['check']} {b['max_residual']:.3e}")
                if argv[0] == "check":
                    n = doc["checks"][0]["n_samples"]
                    require(n >= VERIFY_SAMPLES // 2, f"{what}: only {n} samples checked")
            blob.append(text.encode())
        return b"".join(blob)


class FuzzCampaign:
    """One selftest-style round on fresh seeded random triples."""

    name = "fuzz_campaign"
    fresh_inputs = True
    warmup_ops = FUZZ_WARMUP_ROUNDS
    traced_ops = 24

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        import acpoisson  # noqa: F401  (the round builds everything itself)

    def run(self, k):
        from acpoisson import calculus as ca, connection as cn, fuzz, gauge as ga, strata as st, triple as tr
        from acpoisson.calculus import FieldElement
        from acpoisson.fields import ExprField

        rng = np.random.default_rng([self.seed, k])
        seeds = rng.integers(0, 10**6, size=4)

        flat = fuzz.random_flat_casimir_triple(rng)
        flat_rep = tr.equivalence_check(flat, st.halton_points(100, FUZZ_BOX, seed=int(seeds[0])))

        base = fuzz.random_flat_casimir_triple(rng, nonvanishing=True)
        bad = fuzz.curvature_perturbed(rng, base)
        bad_rep = tr.equivalence_check(bad, st.halton_points(100, FUZZ_BOX, seed=int(seeds[1])))

        T = fuzz.random_flat_casimir_triple(rng)
        G = fuzz.random_gauge(rng)
        sample = st.halton_points(100, FUZZ_BOX, seed=int(seeds[2]))
        Tg = ga.family(T, G, G.epsilon, probe=sample)
        gauge_rep = tr.equivalence_check(Tg, sample[:, Tg.domain_mask(sample)])

        conn = fuzz.random_connection(rng)
        sample = st.halton_points(20, FUZZ_BOX, seed=int(seeds[3]))
        form = FieldElement.form({((1,), ()): ExprField(fuzz.random_poly_expr(rng))})
        residuals = [*ca.cochain_residuals(conn, form, sample), *cn.f4_residuals(conn, sample)]
        return flat_rep, bad_rep, gauge_rep, residuals

    def check(self, result):
        flat_rep, bad_rep, gauge_rep, residuals = result
        require(flat_rep.passed, "flat-Casimir triple failed its equivalence check")
        require(not bad_rep.disagreements, "perturbed triple: the two verdicts disagree")
        require(bad_rep.meta.get("both_fail_fraction") == 1.0,
                f"perturbed triple: both-fail fraction {bad_rep.meta.get('both_fail_fraction')}")
        require(gauge_rep.passed, "gauge family is not closed")
        worst = max(residuals)
        require(worst <= FUZZ_TOL, f"random-connection identities: worst {worst:.3e}")
        return _report_bytes(flat_rep, bad_rep, gauge_rep) + repr([float(r) for r in residuals]).encode()


WORKLOADS = {w.name: w for w in (FlowRK4, VerifyBatch, FuzzCampaign)}
