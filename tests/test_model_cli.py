import json
from collections import defaultdict

import numpy as np
import pytest

from acpoisson import cli
from acpoisson import expr as ex
from acpoisson import model as md
from acpoisson.errors import BadInterval, MissingSection, ModelParseError


def test_builtin_roundtrip_identical_ast():
    for name in md.BUILTIN_MODELS:
        m = md.resolve(name)
        again = md.loads(md.dumps(m))
        assert ex.parse(again.kappa) == ex.parse(m.kappa)
        for a, b in zip(again.beta, m.beta):
            assert ex.parse(a) == ex.parse(b)
        for ra, rb in zip(again.gamma, m.gamma):
            for a, b in zip(ra, rb):
                assert ex.parse(a) == ex.parse(b)
        assert again.sampling == m.sampling


def test_save_load_save_idempotent(tmp_path):
    m = md.resolve("sec5_example")
    text1 = md.dumps(m)
    text2 = md.dumps(md.loads(text1))
    assert text1 == text2


def test_missing_kappa_section():
    with pytest.raises(MissingSection):
        md.loads("[model]\nname = x\n\n[beta]\nb1 = 0\nb2 = 0\nb3 = 0\n")


def test_parse_error_carries_line():
    text = "[kappa]\nexpr = y1 +\n\n[beta]\nb1 = 0\nb2 = 0\nb3 = 0\n"
    with pytest.raises(ModelParseError) as err:
        md.loads(text)
    assert "line 2" in str(err.value)


def test_bad_interval():
    text = (
        "[kappa]\nexpr = 1\n\n[beta]\nb1 = 0\nb2 = 0\nb3 = 0\n\n"
        "[sampling]\nbox = 1:0, 0:1, 0:1, 0:1, 0:1\n"
    )
    with pytest.raises(BadInterval):
        md.loads(text)


def test_unknown_model():
    with pytest.raises(ModelParseError):
        md.resolve("no_such_model_anywhere")


def test_effective_triple_applies_gauge():
    m = md.resolve("br3_unimodular")
    base = m.base_triple()
    eff = m.effective_triple()
    pts = m.samples(n=50).points
    assert np.max(np.abs(base.conn.gamma_values(pts))) == 0.0
    assert np.max(np.abs(eff.conn.gamma_values(pts))) > 0.0


def test_cli_check_pass_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["check", "sec5_example", "--samples", "200", "--out", str(out1)]) == 0
    assert cli.main(["check", "sec5_example", "--samples", "200", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["verdict"] == "pass"
    assert doc["model"] == "sec5_example"
    assert {c["check"] for c in doc["checks"]} >= {
        "integrability",
        "jacobiator",
        "cochain-identities",
        "theta-rho-dual-formulas",
    }


def test_cli_check_fails_on_broken_model(tmp_path):
    text = md.BUILTIN_MODELS["flat_so3"].replace("expr = 1 - y1^2 - y2^2 - y3^2", "expr = y1 + x1")
    path = tmp_path / "broken_ic3.ini"
    path.write_text(text)
    out = tmp_path / "r.json"
    assert cli.main(["check", str(path), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    failing = [c for c in doc["checks"] if c["verdict"] == "fail"]
    assert failing and all(c["worst_point"] is not None for c in failing if c["n_samples"])


def test_cli_input_error_exit_code(capsys):
    assert cli.main(["check", "definitely_missing_model"]) == 2


def test_cli_numeric_error_exit_code(tmp_path):
    text = (
        "[model]\nname = domain_error\n\n[kappa]\nexpr = ln(y1)\n\n"
        "[beta]\nb1 = 0\nb2 = 0\nb3 = 0\n\n[sampling]\nbox = -1:1, -1:1, -1:1, -1:1, -1:1\n"
    )
    path = tmp_path / "m.ini"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 3


def test_cli_strata_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert cli.main(["strata", "sec5_example", "--grid", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,y1,y2,y3,kappa,beta_norm,rank,label,ic1,ic2,ic3"
    assert len(lines) == 3**5 + 1


def test_cli_modular_with_certificate(tmp_path, capsys):
    out = tmp_path / "m.json"
    csv_out = tmp_path / "m.csv"
    code = cli.main(
        ["modular", "br3_unimodular", "--certificate", "--samples", "300", "--csv", str(csv_out), "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    ids = {c["check"] for c in doc["checks"]}
    assert {"bigraded-vs-direct", "theta-exactness", "kappa-factorization"} <= ids
    assert csv_out.read_text().splitlines()[0].startswith("x1,x2,y1,y2,y3,Z_x1")


def test_cli_gauge_sweep_roundtrip(tmp_path, capsys):
    code = cli.main(
        ["gauge", "br3_unimodular", "--sweep", "0.01,0.05", "--outdir", str(tmp_path)]
    )
    assert code == 0
    produced = sorted(p.name for p in tmp_path.glob("*.ini"))
    assert len(produced) == 2
    for p in tmp_path.glob("*.ini"):
        again = md.load(p)  # sweep outputs reload as valid models
        assert again.gauge is not None
        report = json.loads((tmp_path / f"{again.name}.report.json").read_text())
        assert report["verdict"] == "pass"


def test_cli_flow_command(tmp_path, capsys):
    out = tmp_path / "f.json"
    csv_out = tmp_path / "f.csv"
    code = cli.main(
        [
            "flow", "flat_so3",
            "--hamiltonian", "y3",
            "--p0", "0,0,1,0,0",
            "--dt", "0.001",
            "--steps", "500",
            "--casimir", "y1^2 + y2^2 + y3^2",
            "--csv", str(csv_out),
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    assert csv_out.read_text().splitlines()[0] == "t,x1,x2,y1,y2,y3,F,casimir_1"


def test_gauge_model_epsilon_variant():
    m = md.resolve("br3_unimodular")
    v = m.with_gauge_epsilon(0.01)
    assert v.gauge["epsilon"] == 0.01
    assert v.name != m.name
    text = md.dumps(v)
    assert md.loads(text).gauge["epsilon"] == 0.01


def test_tolerance_overrides_flow_into_check(tmp_path):
    # a loose identity tolerance turns a failing verdict into a pass
    text = md.BUILTIN_MODELS["flat_so3"].replace(
        "expr = 1 - y1^2 - y2^2 - y3^2", "expr = 1 + 0.000001*y1"
    )
    strict = tmp_path / "strict.ini"
    strict.write_text(text)
    assert cli.main(["check", str(strict), "--out", str(tmp_path / "a.json")]) == 1
    loose = tmp_path / "loose.ini"
    loose.write_text(text + "\n[tolerances]\nidentity = 0.1\n")
    assert cli.main(["check", str(loose), "--out", str(tmp_path / "b.json")]) == 0
    # the command-line override wins as well
    assert cli.main(["check", str(strict), "--tol", "0.1", "--out", str(tmp_path / "c.json")]) == 0


def test_model_text_tolerates_comments_and_blank_lines():
    text = (
        "# a comment\n\n[kappa]\nexpr = 1   \n\n; another comment\n"
        "[beta]\nb1 = y1\nb2 = y2\nb3 = y3\n"
    )
    m = md.loads(text)
    assert m.kappa == "1" and m.beta == ["y1", "y2", "y3"]


USER_MODEL = """\
[model]
name = conformal_fiber_family

[kappa]
expr = tanh(y1*y2 + y3^2) * (1 + x1^2) + 2

[beta]
b1 = (1 + y3^2)*y2
b2 = (1 + y3^2)*y1
b3 = (1 + y3^2)*2*y3

[gauge]
mu1 = 0.3*y1*y3
mu2 = 0.2*x2*y2
c = x1*x2
epsilon = 0.05

[sampling]
box = -1:1, -1:1, -1:1, -1:1, -1:1
generator = halton
n = 400
seed = 3
"""


def test_user_written_nonpolynomial_model(tmp_path):
    # beta = g dC with C = y1 y2 + y3^2 and a fiberwise-Casimir factor:
    # the base triple and its gauge deformation both satisfy every check
    path = tmp_path / "user.ini"
    path.write_text(USER_MODEL)
    out = tmp_path / "user.json"
    assert cli.main(["check", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    # the deformation is materially active: the connection moved
    m = md.load(path)
    eff = m.effective_triple()
    pts = m.samples(n=40).points
    assert np.max(np.abs(eff.conn.gamma_values(pts))) > 1e-3
    # and sweeping epsilon through the CLI reproduces passing members
    assert cli.main(["gauge", str(path), "--sweep", "0.02,0.08", "--outdir", str(tmp_path)]) == 0


@pytest.mark.parametrize("name", sorted(md.BUILTIN_MODELS))
def test_almost_coupling_block_covers_every_sample(name):
    model = md.resolve(name)
    triple = model.effective_triple()
    pts = model.samples().points
    n = int(np.count_nonzero(triple.domain_mask(pts)))
    block = cli.run_check(model).block("almost-coupling")
    assert block.n_samples == n
    assert block.worst_point is not None


def test_readme_model_file_example_loads():
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```\n(\[model\]\n.*?)```", readme, re.S)
    model = md.loads(block)
    assert model.name == "sec5_example"
    assert model.gauge is not None and model.certificate_data() is not None
    assert model.sampling["generator"] == "halton"


MINIMAL = "[model]\nname = m\n\n[kappa]\nexpr = 1 + y1^2\n\n[beta]\nb1 = y1\nb2 = 0\nb3 = 0\n"


@pytest.mark.parametrize(
    "extra, line, message",
    [
        ("[beta]\nb1 = y1\n", None, "duplicate section [beta]"),
        ("[sampling]\nn = 10\nn = 20\n", 14, "[sampling] duplicate key 'n'"),
        ("[gauge]\nmu1 = y3\neps = 0.1\n", 14, "[gauge] unknown key 'eps' (want mu1, mu2, c, epsilon)"),
        ("[sampling]\ngenerater = grid\n", 13, "[sampling] unknown key 'generater'"),
        ("[certificate]\nkappa = 1\n", 13, "[certificate] unknown key 'kappa'"),
        ("[tolerances]\nidentity = 1e-9\nIdentity = 1e-8\n", 14, "[tolerances] duplicate key 'identity'"),
        ("[kapa]\nexpr = 1\n", 12, "unknown section [kapa]"),
    ],
)
def test_parser_refuses_duplicate_and_unknown_keys_and_sections(extra, line, message):
    with pytest.raises(ModelParseError) as err:
        md.loads(MINIMAL + "\n" + extra)
    if line is not None:
        assert err.value.line == line
    assert message in str(err.value)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("b1 = y1\n", "b1 = y1\nb1 = 0\n", "line 9: [beta] duplicate key 'b1'"),
        ("b3 = 0\n", "b3 = 0\nb4 = 0\n", "line 11: [beta] unknown key 'b4' (want b1, b2, b3)"),
        ("name = m\n", "name = m\nversion = 2\n", "line 3: [model] unknown key 'version' (want name)"),
        ("[kappa]", "[kapa]", "line 4: unknown section [kapa]"),
    ],
)
def test_cli_exits_2_on_a_refused_model_line(old, new, message, tmp_path, capsys):
    path = tmp_path / "m.ini"
    path.write_text(MINIMAL.replace(old, new))
    assert cli.main(["check", str(path), "--samples", "10"]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {message}")


def test_a_kappa0_without_K_is_refused(tmp_path, capsys):
    # only the global criterion kappa = e^h kappa0 K reads kappa0
    with pytest.raises(ModelParseError, match=r"\[certificate\] kappa0 needs K"):
        md.loads(MINIMAL + "\n[certificate]\nh = 0\nkappa0 = 1 + y1^2\n")
    path = tmp_path / "m.ini"
    path.write_text(MINIMAL + "\n[certificate]\nkappa0 = 1 + y1^2\n")
    assert cli.main(["modular", str(path), "--samples", "10", "--certificate"]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("error: [certificate] kappa0 needs K")


@pytest.mark.parametrize("command", ["check", "modular"])
def test_a_sample_count_for_a_grid_model_is_refused(command, tmp_path, capsys):
    model = md.resolve("flat_so3")
    model.sampling.update(generator="grid", resolution=3)
    path = tmp_path / "grid.ini"
    md.save(model, path)
    assert cli.main([command, str(path), "--samples", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (err,) = captured.err.splitlines()
    assert err.startswith("error: ") and "[sampling] resolution" in err


def test_two_main_calls_share_one_parser(monkeypatch, capsys):
    parsers = []
    parse_args = cli._Parser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", spy)
    assert cli.main(["check", "definitely_missing_model"]) == 2
    assert cli.main(["strata", "definitely_missing_model"]) == 2
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_every_key_the_writer_emits_reads_back(tmp_path):
    # dumps writes every section and key a gauge sweep member carries
    model = md.resolve("br3_unimodular").with_gauge_epsilon(0.1)
    model.tolerances["fd"] = 1e-4
    assert md.dumps(md.loads(md.dumps(model))) == md.dumps(model)


# the subset each block names, by the command that reports it
CHECK_SUBSETS = {
    "integrability": "domain",
    "jacobiator": "domain",
    "almost-coupling": "domain",
    "cochain-identities": "first 60",
    "volume-structure-identities": "first 200",
    "theta-rho-dual-formulas": "first 200",
    "curvature-commutator-agreement": "first 200",
    **{
        check: "coupling"
        for check in (
            "structure-preserving-connection",
            "horizontal-beta-compatibility",
            "curvature-kappa-compatibility",
            "horizontal-cocycle",
            "curvature-identity",
            "coupling-form-identity",
        )
    },
    "boundary-first-variation": "kappa zero band",
}
MODULAR_SUBSETS = {
    "bigraded-vs-direct": "domain",
    "renormalization-rule": "domain",
    "closedness-dbeta": "domain",
    "closedness-theta_casimir": "domain",
    "closedness-dtheta": "domain",
    "modular-field-symmetry": "first 100",
    "theta-exactness": "coupling",
    "h-casimir": "coupling",
    "invariant-volume-divergence": "coupling",
    "kappa-factorization": "coupling",
    "K-casimir-on-zero-set": "kappa zero set",
    "global-volume-divergence": "domain",
}


def _subset_sizes(model, n=None):
    """Point counts of the subsets a command's blocks name, from the masks themselves."""
    triple = model.effective_triple()
    pts = model.samples(n=n).points
    pts = pts[:, triple.domain_mask(pts)]
    n = pts.shape[1]
    kv = np.abs(triple.kappa_values(pts))
    coupled = int(np.count_nonzero(triple.coupling_mask(pts)))
    return {
        "domain": n,
        "first 60": min(n, 60),
        "first 100": min(n, 100),
        "first 200": min(n, 200),
        "coupling": coupled,
        "kappa zero set": n - coupled,
        "kappa zero band": int(np.count_nonzero(kv <= 1e-6 * (1.0 + kv.max()))),
    }


@pytest.mark.parametrize("name", sorted(md.BUILTIN_MODELS))
def test_every_block_reports_the_points_of_the_subset_it_names(name, tmp_path):
    model = md.resolve(name)
    certificate = model.certificate is not None
    flow = [
        "flow", name, "--hamiltonian", "y1^2/2 + y2^2/3 + 0.1*x1*y1", "--p0", "0.1,0.2,0.3,0.4,0.5",
        "--dt", "0.01", "--steps", "40", "--casimir", "y1^2 + y2^2 + y3^2", "--volume-factor", "1",
    ]
    runs = [
        (["check", name, "--samples", "500"], CHECK_SUBSETS, _subset_sizes(model, 500), (0,)),
        (["modular", name, *(["--certificate"] if certificate else [])], MODULAR_SUBSETS, _subset_sizes(model), (0,)),
        # every flow block reads the trajectory's n_steps + 1 = 41 states; a drift may fail on a non-Casimir
        (flow, defaultdict(lambda: "trajectory"), {"trajectory": 41}, (0, 1)),
    ]
    for argv, subsets, sizes, codes in runs:
        out = tmp_path / f"{argv[0]}.json"
        assert cli.main([*argv, "--out", str(out)]) in codes
        report = json.loads(out.read_text())
        assert not report.get("meta", {}).get("truncated")
        for block in report["checks"]:
            assert block["n_samples"] == sizes[subsets[block["check"]]], (argv[0], block["check"])
            # a worst point is reported whenever there was a point to evaluate
            assert (block["worst_point"] is None) == (block["n_samples"] == 0), (argv[0], block["check"])
