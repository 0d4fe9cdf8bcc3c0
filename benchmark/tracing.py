"""In-memory span and count tracing of the acpoisson layers, installed from outside.

The tracer patches the package from the benchmark: it wraps module-level
functions and class methods, and also rebinds every ``from .x import name``
re-export of a wrapped function, which a patch of the defining module alone
would miss.  Three kinds of wrapper are used:

* spans (module functions, public methods, ``Field.at``): name, parent,
  start and end are kept in memory; self time is the span minus its children;
* counts only (every ``eval_jet`` and ``Field`` ``__init__``): too frequent to
  span, their time stays with the enclosing span;
* jet operators: counted, and their time is accumulated into the ``jets``
  layer without a span record, and subtracted from the enclosing span.

``uninstall`` restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Jet methods counted as jet operations; the builtin rules in
# BUILTIN_JET_RULES are counted as well.
JET_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "_reciprocal", "powi", "_chain", "constant", "coordinate",
)
# Private functions that still get a span of their own.
EXTRA_SPANS = {"cli": ("_emit",)}
SKIP_MODULES = ("errors", "jets")
FLOW_PARENTS = ("flow.integrate", "flow.integrate_batch")
RHS_SPAN = "calculus.CoordVector.values"


def batch_class(p):
    """Batch-size class of a point argument: n1, small (2-1000) or large."""
    n = math.prod(np.shape(p)[1:])
    if n <= 1:
        return "n1"
    return "small" if n <= 1000 else "large"


class Tracer:
    """Counts and self times by span name; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.spans = []  # (name, parent index, start, end)
        self._stack = []  # [span index, name, child seconds]
        self._jet_depth = 0
        self._patches = []  # (owner, attribute, original value)

    # wrappers -------------------------------------------------------------

    def _span(self, name, fn, name_of=None):
        spans, stack, counts, self_s = self.spans, self._stack, self.counts, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            index = len(spans)
            spans.append(None)
            frame = [index, label, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                spans[index] = (label, parent[0] if parent else -1, t0, t1)
                counts[label] += 1
                self_s[label] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    if label == RHS_SPAN and parent[1] in FLOW_PARENTS:
                        counts["flow.rhs"] += 1

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _jet(self, fn):
        counts, stack, self_s = self.counts, self._stack, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["jets.ops"] += 1
            if self._jet_depth:
                return fn(*args, **kwargs)
            self._jet_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._jet_depth = 0
                self_s["jets"] += dur
                if stack:
                    stack[-1][2] += dur

        return wrapper

    # installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(make(raw.__func__)))
        elif isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        elif inspect.isfunction(raw):
            self._set(cls, attr, make(raw))

    def install(self, package_name="acpoisson"):
        pkg = importlib.import_module(package_name)
        modules = [pkg] + [
            importlib.import_module(f"{package_name}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        jets = importlib.import_module(f"{package_name}.jets")
        fields = importlib.import_module(f"{package_name}.fields")
        replaced = {}  # id(original function) -> wrapper

        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            if mod is pkg or short in SKIP_MODULES:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_") or attr in EXTRA_SPANS.get(short, ()):
                        wrapper = self._span(f"{short}.{attr}", obj)
                        replaced[id(obj)] = wrapper
                        self._set(mod, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    if short == "fields" and issubclass(obj, fields.Field):
                        continue
                    for mattr, raw in list(obj.__dict__.items()):
                        if not mattr.startswith("_"):
                            self._patch_method(
                                obj, mattr, functools.partial(self._span, f"{short}.{obj.__name__}.{mattr}")
                            )

        # rebind re-exports (`from .x import name`) to the wrappers
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and getattr(mod, attr) is not wrapper:
                    self._set(mod, attr, wrapper)

        # the field layer: Field.at by batch class, eval_jet visits, constructions
        Field = fields.Field
        self._set(Field, "at", self._span("fields.at", Field.at, lambda a, k: "fields.at." + batch_class(a[1] if len(a) > 1 else k["p"])))
        for mattr in ("value", "gradient", "hessian", "partial"):
            self._patch_method(Field, mattr, functools.partial(self._span, f"fields.Field.{mattr}"))
        for cls in _subclasses(Field):
            for mattr, counter in (("eval_jet", "fields.eval_jet"), ("__init__", "fields.nodes_built")):
                if mattr in cls.__dict__:
                    self._patch_method(cls, mattr, functools.partial(self._count, counter))

        # the jet layer
        for attr in JET_OPS:
            self._patch_method(jets.Jet, attr, self._jet)
        rules = jets.BUILTIN_JET_RULES
        originals = dict(rules)
        for key, fn in originals.items():
            rules[key] = self._jet(fn)
        self._patches.append((rules, None, originals))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # results --------------------------------------------------------------

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: name, parent, start and end in us."""
        base = self.spans[0][2] if self.spans and self.spans[0] else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, t0, t1 in self.spans:
                fh.write(json.dumps([name, parent, round((t0 - base) * 1e6, 1), round((t1 - base) * 1e6, 1)]) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# per-layer metric -> (kind, span or counter names...); every value is per operation
LAYER_METRICS = {
    "expr.parse.calls": ("calls", "expr.parse"),
    "expr.parse.self_ms": ("self_ms", "expr.parse"),
    "expr.differentiate.calls": ("calls", "expr.differentiate"),
    "fields.nodes_built": ("calls", "fields.nodes_built"),
    "fields.eval_jet.calls": ("calls", "fields.eval_jet"),
    **{
        f"fields.at.{size}.{kind}": (kind, f"fields.at.{size}")
        for size in ("n1", "small", "large")
        for kind in ("calls", "self_ms")
    },
    "jets.ops": ("calls", "jets.ops"),
    "jets.self_ms": ("self_ms", "jets"),
    "graded.wedge.calls": ("calls", "graded.GradedElement.wedge", "calculus.FieldElement.wedge"),
    "graded.interior.calls": ("calls", "graded.interior"),
    "graded.self_ms": ("layer_ms", "graded"),
    **{
        f"calculus.{fn}.self_ms": ("self_ms", f"calculus.{fn}")
        for fn in (
            "schouten_bivectors", "lie_derivative_bivector", "moving_to_coord_bivector",
            "coord_to_moving_bivector", "cochain_residuals", "matrix_values", "divergence",
        )
    },
    "calculus.CoordVector.values.calls": ("calls", "calculus.CoordVector.values"),
    "calculus.CoordVector.values.self_ms": ("self_ms", "calculus.CoordVector.values"),
    **{
        f"connection.{fn}.self_ms": ("self_ms", f"connection.{fn}")
        for fn in ("f4_residuals", "curvature", "theta_from_volume", "rho_from_volume")
    },
    **{
        f"triple.{fn}.self_ms": ("self_ms", f"triple.{fn}")
        for fn in ("equivalence_check", "jacobiator", "ic_residuals", "hamiltonian_field")
    },
    "triple.hamiltonian_field.calls": ("calls", "triple.hamiltonian_field"),
    "strata.matrix_rank.self_ms": ("self_ms", "strata.matrix_rank"),
    "strata.halton_points.self_ms": ("self_ms", "strata.halton_points"),
    "modular.unimod_global_check.self_ms": ("self_ms", "modular.unimod_global_check"),
    "modular.bigraded_vs_direct_residual.self_ms": ("self_ms", "modular.bigraded_vs_direct_residual"),
    "gauge.family.self_ms": ("self_ms", "gauge.family"),
    "flow.rhs.calls": ("calls", "flow.rhs"),
    "flow.integrate.self_ms": ("self_ms", "flow.integrate"),
    "flow.integrate_batch.self_ms": ("self_ms", "flow.integrate_batch"),
    "flow.conservation_report.self_ms": ("self_ms", "flow.conservation_report"),
    "model.resolve.self_ms": ("self_ms", "model.resolve"),
    "model.effective_triple.self_ms": ("self_ms", "model.ModelFile.effective_triple"),
    "cli.run_check.self_ms": ("self_ms", "cli.run_check"),
    "cli._emit.self_ms": ("self_ms", "cli._emit"),
    "reports.residual_block.self_ms": ("self_ms", "reports.residual_block"),
}


def layer_metrics(tracer, ops):
    """The per-layer metrics of a traced run, averaged over ``ops`` operations."""
    out = {}
    for metric, (kind, *keys) in LAYER_METRICS.items():
        if kind == "calls":
            value = sum(tracer.counts[key] for key in keys)
        elif kind == "self_ms":
            value = 1e3 * tracer.self_s[keys[0]]
        else:  # layer_ms: every span of the layer
            value = 1e3 * sum(s for name, s in tracer.self_s.items() if name.startswith(keys[0] + "."))
        out[metric] = value / ops
    return out
