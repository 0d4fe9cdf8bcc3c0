"""Model files: a small INI-style format describing a triple and its checks.

Sections:

    [model]       name = <identifier>
    [connection]  g1_1 .. g2_3   (expressions; section optional, default 0)
    [kappa]       expr = <expression>                  (required)
    [beta]        b1, b2, b3 = <expressions>           (required)
    [gauge]       mu1, mu2, c = <expressions>; epsilon = <real>   (optional)
    [certificate] h = <expr>; K = <expr>; kappa0 = <expr>         (optional)
    [sampling]    box = lo:hi, ... (5 intervals); generator = halton|grid;
                  n = <int>; seed = <int> (0 .. 2**62); resolution = <int>
    [tolerances]  identity, oracle, conservation, fd = <reals>    (optional)

Any other section or key, and a section or key given twice, is refused, and
so is ``kappa0`` without ``K``: only the global criterion kappa = e^h kappa0 K
reads it.  A Halton model draws ``n`` points from ``seed``, and a command may
ask it for another count; a grid model has ``resolution`` points per axis,
and a sample count for it is refused.

A model with a [gauge] block denotes the deformation-family member at the
recorded epsilon; commands apply the gauge before checking, so sweep outputs
round-trip as ordinary model files.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import gauge as ga
from . import modular as mo
from . import strata as st
from . import triple as tr
from .connection import Connection
from .errors import NESTED_TOO_DEEPLY, BadInput, BadInterval, ExprSyntaxError, MissingSection, ModelParseError
from .fields import ExprField

DEFAULT_TOLERANCES = {
    "identity": 1e-9,
    "oracle": 1e-9,
    "conservation": 1e-6,
    "fd": 1e-5,
}

DEFAULT_SAMPLING = {
    "box": [(-1.0, 1.0)] * 5,
    "generator": "halton",
    "n": 200,
    "seed": 0,
    "resolution": 3,
}

_GAMMA_KEYS = [f"g{i}_{a}" for i in (1, 2) for a in (1, 2, 3)]

# the keys each section accepts; any other section or key is refused
_SECTION_KEYS = {
    "model": ("name",),
    "connection": tuple(_GAMMA_KEYS),
    "kappa": ("expr",),
    "beta": ("b1", "b2", "b3"),
    "gauge": ("mu1", "mu2", "c", "epsilon"),
    "certificate": ("h", "k", "kappa0"),
    "sampling": ("box", "generator", "n", "seed", "resolution"),
    "tolerances": tuple(DEFAULT_TOLERANCES),
}
_EXPRESSION_SECTIONS = {"connection", "kappa", "beta", "gauge", "certificate"}  # all but [gauge] epsilon
# a model name is also the stem of the files `gauge` writes, so it may not hold a path
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class ModelFile:
    name: str
    gamma: list = field(default_factory=lambda: [["0"] * 3, ["0"] * 3])
    kappa: str = "0"
    beta: list = field(default_factory=lambda: ["0", "0", "0"])
    gauge: dict | None = None          # mu1, mu2, c (exprs), epsilon (float)
    certificate: dict | None = None    # h, K, kappa0 (exprs)
    sampling: dict = field(default_factory=lambda: dict(DEFAULT_SAMPLING))
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    # construction ---------------------------------------------------------

    def base_triple(self) -> tr.PoissonTriple:
        conn = Connection([[ExprField(g) for g in row] for row in self.gamma])
        return tr.PoissonTriple(conn, ExprField(self.kappa), tr.VerticalOneForm(self.beta))

    def gauge_data(self) -> ga.GaugeData | None:
        if self.gauge is None:
            return None
        return ga.GaugeData(
            mu=(ExprField(self.gauge["mu1"]), ExprField(self.gauge["mu2"])),
            c=ExprField(self.gauge["c"]),
            epsilon=float(self.gauge.get("epsilon", 0.0)),
        )

    def effective_triple(self) -> tr.PoissonTriple:
        """The triple the file denotes: base, gauged when a [gauge] block exists."""
        base = self.base_triple()
        g = self.gauge_data()
        if g is None:
            return base
        return ga.family(base, g, g.epsilon, probe=self.samples().points)

    def certificate_data(self) -> mo.UnimodularityCertificate | None:
        if self.certificate is None:
            return None
        return mo.UnimodularityCertificate(
            h=ExprField(self.certificate.get("h", "0")),
            K=ExprField(self.certificate["K"]) if "K" in self.certificate else None,
            kappa0=ExprField(self.certificate["kappa0"]) if "kappa0" in self.certificate else None,
        )

    def samples(self, n=None) -> st.SampleSet:
        """The model's sample: ``n`` Halton points (default ``[sampling] n``), or its grid."""
        s = self.sampling
        if s["generator"] == "grid":
            if n is not None:
                raise BadInput(
                    f"a sample count applies to Halton models; {self.name} samples a grid, set by [sampling] resolution"
                )
            return st.SampleSet(st.grid_points(s["resolution"], s["box"]))
        return st.SampleSet(st.halton_points(s["n"] if n is None else n, s["box"], s["seed"]))

    def tolerance(self, key):
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def with_gauge_epsilon(self, epsilon) -> "ModelFile":
        if self.gauge is None:
            raise MissingSection("gauge")
        variant = copy.deepcopy(self)
        # an identifier too: 1e+20 is written 1e20
        variant.name = f"{self.name}_eps{epsilon:g}".replace("-", "m").replace(".", "p").replace("+", "")
        variant.gauge["epsilon"] = float(epsilon)
        return variant


# parsing ----------------------------------------------------------------------


def _check_expr(text, section, key, line):
    try:
        ex.parse(text)
    except ExprSyntaxError as err:
        raise ModelParseError(f"[{section}] {key}: {err}", line=line) from err
    except RecursionError as err:
        raise ModelParseError(f"[{section}] {key}: {NESTED_TOO_DEEPLY}", line=line) from err


def loads(text: str) -> ModelFile:
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTION_KEYS:
                raise ModelParseError(f"unknown section [{current}] (want {', '.join(_SECTION_KEYS)})", line=lineno)
            if current in sections:
                raise ModelParseError(f"duplicate section [{current}]", line=lineno)
            sections[current] = {}
            continue
        if current is None:
            raise ModelParseError("content before the first section header", line=lineno)
        if "=" not in line:
            raise ModelParseError(f"expected 'key = value', got '{line}'", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in _SECTION_KEYS[current]:
            want = ", ".join(_SECTION_KEYS[current])
            raise ModelParseError(f"[{current}] unknown key '{key}' (want {want})", line=lineno)
        if key in sections[current]:
            raise ModelParseError(f"[{current}] duplicate key '{key}'", line=lineno)
        if current in _EXPRESSION_SECTIONS and key != "epsilon":
            _check_expr(value, current, key, lineno)
        sections[current][key] = value

    def want(section, keys):
        if section not in sections:
            raise MissingSection(section)
        for key in keys:
            if key not in sections[section]:
                raise ModelParseError(f"[{section}] needs key '{key}'")
        return [sections[section][key] for key in keys]

    name = sections.get("model", {}).get("name", "unnamed")
    if not _NAME.fullmatch(name):
        raise ModelParseError(f"[model] name must be an identifier ([A-Za-z_][A-Za-z0-9_]*), got {name!r}")
    conn = sections.get("connection", {})
    gamma = [[conn.get(f"g{i}_{a}", "0") for a in (1, 2, 3)] for i in (1, 2)]
    (kappa,) = want("kappa", ["expr"])
    beta = want("beta", ["b1", "b2", "b3"])

    gauge = None
    if "gauge" in sections:
        g = sections["gauge"]
        gauge = {key: g.get(key, "0") for key in ("mu1", "mu2", "c")}
        try:
            gauge["epsilon"] = float(g.get("epsilon", "0"))
        except ValueError as err:
            raise ModelParseError(f"[gauge] epsilon: {err}") from err
        if not np.isfinite(gauge["epsilon"]):
            raise ModelParseError(f"[gauge] epsilon must be finite, got {g['epsilon']!r}")

    certificate = None
    if "certificate" in sections:
        certificate = {"K" if key == "k" else key: value for key, value in sections["certificate"].items()}
        if "kappa0" in certificate and "K" not in certificate:
            raise ModelParseError("[certificate] kappa0 needs K: only the global criterion kappa = e^h kappa0 K reads it")

    sampling = dict(DEFAULT_SAMPLING)
    if "sampling" in sections:
        s = sections["sampling"]
        if "box" in s:
            sampling["box"] = _parse_box(s["box"])
        if "generator" in s:
            gen = s["generator"].strip().lower()
            if gen not in ("halton", "grid"):
                raise ModelParseError(f"[sampling] unknown generator '{gen}'")
            sampling["generator"] = gen
        for key in ("n", "seed", "resolution"):
            if key in s:
                try:
                    sampling[key] = int(s[key])
                except ValueError as err:
                    raise ModelParseError(f"[sampling] {key}: {err}") from err
        if sampling["seed"] < 0:
            raise ModelParseError(f"[sampling] seed must be non-negative, got {sampling['seed']}")
        if sampling["seed"] > st.MAX_SEED:
            raise ModelParseError(f"[sampling] seed must be at most 2**62, got {sampling['seed']}")

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in sections:
        for key, value in sections["tolerances"].items():
            try:
                tolerances[key] = float(value)
            except ValueError as err:
                raise ModelParseError(f"[tolerances] {key}: {err}") from err
            if not (np.isfinite(tolerances[key]) and tolerances[key] >= 0):
                raise ModelParseError(f"[tolerances] {key} must be a finite non-negative number, got {value!r}")

    return ModelFile(
        name=name,
        gamma=gamma,
        kappa=kappa,
        beta=beta,
        gauge=gauge,
        certificate=certificate,
        sampling=sampling,
        tolerances=tolerances,
    )


def _parse_box(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise BadInterval(f"box needs 5 intervals, got {len(parts)}")
    box = []
    for part in parts:
        if ":" not in part:
            raise BadInterval(f"interval '{part}' must look like lo:hi")
        lo, _, hi = part.partition(":")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError as err:
            raise BadInterval(f"interval '{part}': {err}") from err
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
            raise BadInterval(f"interval '{part}' is empty or infinite")
        if not np.isfinite(hi - lo):
            raise BadInterval(f"interval '{part}' is wider than the largest float")
        box.append((lo, hi))
    return box


def load(path) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ModelParseError(f"cannot read model file '{path}': {err}") from err
    return loads(text)


def dumps(model: ModelFile) -> str:
    out = [f"[model]\nname = {model.name}\n"]
    out.append("[connection]")
    for i in (1, 2):
        for a in (1, 2, 3):
            out.append(f"g{i}_{a} = {model.gamma[i - 1][a - 1]}")
    out.append("")
    out.append(f"[kappa]\nexpr = {model.kappa}\n")
    out.append("[beta]")
    for k, b in enumerate(model.beta, start=1):
        out.append(f"b{k} = {b}")
    out.append("")
    if model.gauge is not None:
        out.append("[gauge]")
        for key in ("mu1", "mu2", "c"):
            out.append(f"{key} = {model.gauge[key]}")
        out.append(f"epsilon = {model.gauge.get('epsilon', 0.0)!r}")
        out.append("")
    if model.certificate is not None:
        out.append("[certificate]")
        for key in ("h", "K", "kappa0"):
            if key in model.certificate:
                out.append(f"{key} = {model.certificate[key]}")
        out.append("")
    s = model.sampling
    out.append("[sampling]")
    out.append("box = " + ", ".join(f"{lo!r}:{hi!r}" for lo, hi in s["box"]))
    out.append(f"generator = {s['generator']}")
    out.append(f"n = {s['n']}")
    out.append(f"seed = {s['seed']}")
    out.append(f"resolution = {s['resolution']}")
    out.append("")
    out.append("[tolerances]")
    for key in sorted(model.tolerances):
        out.append(f"{key} = {model.tolerances[key]!r}")
    out.append("")
    return "\n".join(out)


def save(model: ModelFile, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(model))


# built-in examples --------------------------------------------------------------

BUILTIN_MODELS = {
    # the quadratic example: kappa = y1^2 - x1^2 - x2^2 with beta = y1^2 eta^1
    "sec5_example": """\
[model]
name = sec5_example

[connection]
g1_2 = -1
g1_3 = -1
g2_2 = -1
g2_3 = -1

[kappa]
expr = y1^2 - x1^2 - x2^2

[beta]
b1 = y1^2
b2 = 0
b3 = 0

[sampling]
box = -2:2, -2:2, -2:2, -2:2, -2:2
generator = halton
n = 1000
seed = 0
""",
    # compactly supported horizontal factor over the cyclic vertical structure,
    # deformed by mu = (y3, 0); unimodular with the recorded certificate
    "br3_unimodular": """\
[model]
name = br3_unimodular

[kappa]
expr = cutoff(y1^2 + y2^2 + y3^2)

[beta]
b1 = y1
b2 = y2
b3 = y3

[gauge]
mu1 = y3
mu2 = 0
c = 0
epsilon = 0.05

[certificate]
h = 0
K = 1
kappa0 = cutoff(y1^2 + y2^2 + y3^2)

[sampling]
box = -1:1, -1:1, -1.5:1.5, -1.5:1.5, -1.5:1.5
generator = halton
n = 1000
seed = 0
""",
    # flat connection over the cyclic vertical structure with a Casimir factor
    "flat_so3": """\
[model]
name = flat_so3

[kappa]
expr = 1 - y1^2 - y2^2 - y3^2

[beta]
b1 = y1
b2 = y2
b3 = y3

[certificate]
h = 0

[sampling]
box = -1:1, -1:1, -1.2:1.2, -1.2:1.2, -1.2:1.2
generator = halton
n = 600
seed = 0
""",
    # x-dependent gauge of a nowhere-vanishing Casimir factor: the deformed
    # connection is curved, exercising the flatness equivalences
    "flat_pair_flatness": """\
[model]
name = flat_pair_flatness

[kappa]
expr = 1 + y1^2 + y2^2 + y3^2

[beta]
b1 = y1
b2 = y2
b3 = y3

[gauge]
mu1 = x2*y3 + 0.3*y1*y2
mu2 = 0.5*x1*y2 - y1
c = 0.2*x1
epsilon = 0.05

[sampling]
box = -1:1, -1:1, -1.2:1.2, -1.2:1.2, -1.2:1.2
generator = halton
n = 600
seed = 0
""",
}


def resolve(name_or_path) -> ModelFile:
    """Load a model from a path, or from the built-in registry by name."""
    import os

    if name_or_path in BUILTIN_MODELS:
        return loads(BUILTIN_MODELS[name_or_path])
    if os.path.exists(name_or_path):
        return load(name_or_path)
    raise ModelParseError(
        f"'{name_or_path}' is neither a file nor a built-in model "
        f"(built-ins: {', '.join(sorted(BUILTIN_MODELS))})"
    )
