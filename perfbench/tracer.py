"""Spans around the engine's public functions, installed from the outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``planar_rook`` module that holds it, including the names a module
imports from another (``planar_rook.algebra.multiply`` is the same function
as ``planar_rook.diagrams.multiply``), so calls between layers are traced
too.  Each call records a span: name, start, end and the index of the span
that was open when it began.  Spans stay in flat arrays in memory and are
written out by ``Tracer.write``; a span's self time is its duration minus
the durations of its direct children.

Counters that need the arguments or the result (term pairs, non-zero
columns, bytes) are taken after the span closes, so they land in the
harness's time, not the layer's.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

CHECKS = (
    "enumeration_count", "associativity", "rook_closure", "planarity_closure",
    "size_monotonicity", "profile_roundtrip", "matrix_semantics", "identity_unit",
    "x_inversion", "left_action", "right_action", "block_preservation", "embed",
    "rho_homomorphism", "column_structure", "character", "multiplicity_count",
    "irreducibility", "isomorphism_classification", "matrix_algebra",
    "regular_decomposition", "restriction", "tower_levels", "tower_degrees",
    "tower_recursion", "tower_restriction_consistency", "pascal_triangle",
)

MATRIX_METHODS = (
    "zero", "identity", "unit", "from_columns", "__add__", "scale", "__matmul__",
    "trace", "is_block_diagonal",
)

JOB = "harness.job"


def _count_terms(args, result, counters):
    left, right = args[0], args[1]
    if hasattr(right, "terms"):
        counters["algebra.mul.term_pairs"] += len(left.terms) * len(right.terms)
        counters["algebra.mul.output_terms"] += len(result.terms)


def _count_x_action(args, result, counters):
    counters["algebra.x_action.nonzero"] += result is not None


def _count_columns(args, result, counters):
    counters["representations.diagram_action.columns"] += len(result)
    counters["representations.diagram_action.nonzero_columns"] += sum(i is not None for i in result)


def _count_bytes(args, result, counters):
    counters["bratteli.emit.bytes"] += len(result)


def _count_checked(name):
    def hook(args, result, counters):
        counters[f"checks.{name}.checked"] += result.checked
    return hook


# span name -> [(module, attribute, counter hook)]; "Class.method" patches the class.
SPANS: dict[str, list] = {
    "diagrams.multiply": [("diagrams", "multiply", None)],
    "diagrams.enumerate_planar": [("diagrams", "enumerate_planar", None)],
    "diagrams.from_profiles": [("diagrams", "from_profiles", None)],
    "diagrams.parse_format": [("diagrams", "parse_diagram", None), ("diagrams", "format_diagram", None)],
    "diagrams.tensor": [("diagrams", "tensor", None)],
    "algebra.mul": [("algebra", "AlgebraElement.__mul__", _count_terms)],
    "algebra.identity": [("algebra", "identity", None)],
    "algebra.x_of": [("algebra", "x_of", None)],
    "algebra.to_x_coordinates": [("algebra", "to_x_coordinates", None)],
    "algebra.x_action": [("algebra", "left_action_x", _count_x_action),
                         ("algebra", "right_action_x", _count_x_action)],
    "algebra.embed": [("algebra", "embed", None)],
    "matrices": [("matrices", f"RationalMatrix.{m}", None) for m in MATRIX_METHODS],
    "representations.module_space": [("representations", "module_space", None)],
    "representations.diagram_action": [("representations", "diagram_action", _count_columns)],
    "representations.character": [("representations", "character", None)],
    "representations.action_trace": [("representations", "action_trace", None)],
    "representations.restriction_decomposition": [("representations", "restriction_decomposition", None)],
    "representations.character_table_csv": [("representations", "character_table_csv", None)],
    "representations.verify_irreducible": [("representations", "verify_irreducible", None)],
    "bratteli.build": [("bratteli", "build", None)],
    "bratteli.emit": [("bratteli", "emit_dot", _count_bytes), ("bratteli", "emit_json", _count_bytes)],
    "cli.main": [("cli", "main", None)],
}
SPANS.update({f"checks.{name}": [("checks", f"check_{name}", _count_checked(name))] for name in CHECKS})


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = [(f"{span}.self_s", "s", "lower") for span in SPANS]
    out += [
        ("diagrams.multiply.calls", "count", "lower"),
        ("diagrams.enumerate_planar.items", "count", "higher"),
        ("diagrams.cache_entries", "count", "lower"),
        ("diagrams.cache_hit_ratio", "ratio", "higher"),
        ("algebra.mul.calls", "count", "lower"),
        ("algebra.mul.term_pairs", "count", "lower"),
        ("algebra.mul.output_ratio", "ratio", "higher"),
        ("algebra.x_action.nonzero_ratio", "ratio", "higher"),
        ("matrices.calls", "count", "lower"),
        ("representations.diagram_action.calls", "count", "lower"),
        ("representations.diagram_action.nonzero_col_ratio", "ratio", "higher"),
        ("bratteli.emit.bytes", "B", "lower"),
        ("cli.stdout_bytes", "B", "lower"),
        ("harness.self_s", "s", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
    ]
    out += [(f"checks.{name}.checked", "count", "higher") for name in CHECKS]
    return out


class Tracer:
    """Flat in-memory span store plus the counters the wrappers keep."""

    def __init__(self):
        self.names = list(SPANS) + [JOB]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.kind = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys([
            "algebra.mul.term_pairs",
            "algebra.mul.output_terms",
            "algebra.x_action.nonzero",
            "representations.diagram_action.columns",
            "representations.diagram_action.nonzero_columns",
            "bratteli.emit.bytes",
            *(f"checks.{name}.checked" for name in CHECKS),
        ], 0)
        self.calls = [0] * len(self.names)
        self.items = 0

    # -- recording -----------------------------------------------------------

    def _open(self, kind: int) -> int:
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.calls[kind] += 1
        return idx

    def job(self, fn, args):
        """Run one job as a root span; its descendants share its index."""
        idx = self._open(self.name_ids[JOB])
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrap(self, fn, kind: int, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(kind)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                hook(args, result, tracer.counters)
            return result

        return traced

    def _wrap_generator(self, fn, kind: int):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer._open(kind)
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter()
                    tracer.stack.pop()
                    tracer.start[idx] = t0
                    tracer.end[idx] = t1
                tracer.items += 1
                yield item

        return traced

    def install(self, engine) -> None:
        """Wrap every traced function of ``engine`` wherever a module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "planar_rook" or name.startswith("planar_rook.")]
        for span, targets in SPANS.items():
            kind = self.name_ids[span]
            for module_name, attr, hook in targets:
                owner = getattr(engine, module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, staticmethod):
                        setattr(cls, method, staticmethod(self._wrap(raw.__func__, kind, hook)))
                    else:
                        setattr(cls, method, self._wrap(raw, kind, hook))
                    continue
                fn = getattr(owner, attr)
                if span == "diagrams.enumerate_planar":
                    wrapper = self._wrap_generator(fn, kind)
                else:
                    wrapper = self._wrap(fn, kind, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)

    # -- reporting -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-span-name self time: duration minus direct children's durations."""
        n = len(self.kind)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = [0.0] * len(self.names)
        kind = self.kind
        for i in range(n):
            totals[kind[i]] += end[i] - start[i] - child[i]
        return dict(zip(self.names, totals))

    def metrics(self, wall: float, overhead: float, caches: dict, stdout_bytes: int) -> dict:
        """Per-layer metrics of a traced window of ``wall`` raw seconds."""
        selfs = self.self_times()
        c = self.counters
        ids = self.name_ids
        values: dict[str, float] = {f"{span}.self_s": selfs[span] for span in SPANS}
        layer_total = sum(values.values())
        values["harness.self_s"] = wall - layer_total
        values["trace_overhead_frac"] = overhead
        values["diagrams.multiply.calls"] = self.calls[ids["diagrams.multiply"]]
        values["diagrams.enumerate_planar.items"] = self.items
        values["diagrams.cache_entries"] = caches["entries"]
        values["diagrams.cache_hit_ratio"] = caches["hit_ratio"]
        values["algebra.mul.calls"] = self.calls[ids["algebra.mul"]]
        values["algebra.mul.term_pairs"] = c["algebra.mul.term_pairs"]
        values["algebra.mul.output_ratio"] = _ratio(c["algebra.mul.output_terms"], c["algebra.mul.term_pairs"])
        values["algebra.x_action.nonzero_ratio"] = _ratio(
            c["algebra.x_action.nonzero"], self.calls[ids["algebra.x_action"]])
        values["matrices.calls"] = self.calls[ids["matrices"]]
        values["representations.diagram_action.calls"] = self.calls[ids["representations.diagram_action"]]
        values["representations.diagram_action.nonzero_col_ratio"] = _ratio(
            c["representations.diagram_action.nonzero_columns"], c["representations.diagram_action.columns"])
        values["bratteli.emit.bytes"] = c["bratteli.emit.bytes"]
        values["cli.stdout_bytes"] = stdout_bytes
        for name in CHECKS:
            values[f"checks.{name}.checked"] = c[f"checks.{name}.checked"]
        return values

    def write(self, path: Path) -> None:
        """Write the spans: a JSON index next to the raw little-endian columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {"kind": self.kind, "parent": self.parent, "start": self.start, "end": self.end}
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in columns.values():
                column.tofile(handle)
        index = {
            "names": self.names,
            "spans": len(self.kind),
            "columns": [[key, col.typecode, col.itemsize] for key, col in columns.items()],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
