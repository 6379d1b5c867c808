"""Spans around latclone's public functions, recorded from outside the package.

Tracer.install wraps each target function and rebinds every name under
which a latclone module holds it, so calls made inside the package (such as
clone.verify_generation calling the name latclone.clone.to_table) are seen
too.  Spans stay in memory until the run ends.  Standard library only.
"""

from __future__ import annotations

import json
import sys
from time import process_time

# (module, attribute, span name).  GeneratorSpec.table is a method.
TARGETS = (
    ("lattice", "chain", "lattice.chain"),
    ("lattice", "m_lattice", "lattice.m_lattice"),
    ("lattice", "n5", "lattice.n5"),
    ("lattice", "from_covers", "lattice.from_covers"),
    ("functable", "enumerate_class", "functable.enumerate_class"),
    ("functable", "is_idempotent", "functable.is_idempotent"),
    ("functable", "is_aggregation", "functable.is_aggregation"),
    ("functable", "is_monotone", "functable.is_monotone"),
    ("functable", "parse_function", "functable.parse_function"),
    ("generators", "GeneratorSpec.table", "generators.table"),
    ("decompose", "decompose_id_reduced", "decompose.decompose_id_reduced"),
    ("decompose", "simplify", "decompose.simplify"),
    ("terms", "to_table", "terms.to_table"),
    ("terms", "format_term_file", "terms.format_term_file"),
    ("clone", "closure", "clone.closure"),
    ("clone", "verify_generation", "clone.verify_generation"),
    ("cli", "main", "cli.main"),
)

LATTICE = {"lattice.chain", "lattice.m_lattice", "lattice.n5", "lattice.from_covers"}
PREDICATES = {"functable.is_idempotent", "functable.is_aggregation", "functable.is_monotone"}
CLOSURE = {"clone.closure.cover", "clone.closure.fixpoint"}

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "lattice.build_ms": "ms", "functable.enumerate_s": "s", "functable.fns_per_s": "fn/s",
    "functable.predicates_ms": "ms", "functable.parse_ms": "ms", "generators.tables_ms": "ms",
    "decompose.build_ms": "ms", "decompose.simplify_ms": "ms", "terms.to_table_ms": "ms",
    "terms.node_cells_per_s": "1/s", "terms.format_ms": "ms", "clone.cover_s": "s",
    "clone.fixpoint_s": "s", "clone.attempts": "count", "clone.insert_ratio": "ratio",
    "clone.attempts_per_s": "1/s", "clone.verify_b_s": "s", "cli.self_ms": "ms",
}


def _closure_name(args, kwargs) -> str:
    until = kwargs.get("until_keys", args[3] if len(args) > 3 else None)
    return "clone.closure.fixpoint" if until is None else "clone.closure.cover"


def _extra(name: str, args, result):
    """Counts taken at the boundary, after the span has closed."""
    if name == "functable.enumerate_class":
        return len(result)
    if name.startswith("clone.closure"):
        return (result.attempts, result.insertions)
    if name == "terms.to_table":
        lat, n = args[1], args[2]
        return (args[0], lat.size ** n)  # the term is counted when the run ends
    return None


class Tracer:
    def __init__(self):
        # one span: [name, start, end, parent index or -1, extra]
        self.spans: list = []
        self._stack: list = []
        self.missing: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [_closure_name(args, kwargs) if name == "clone.closure" else name,
                    0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = process_time()
                stack.pop()
            span[4] = _extra(span[0], args, result)
            return result

        return traced

    def install(self, package_name: str = "latclone") -> None:
        """Wrap every target; a target that no longer exists is listed in
        self.missing instead of failing the run."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == package_name or key.startswith(package_name + ".")]
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(f"{package_name}.{module_name}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None)
            if method:
                fn = getattr(owner, method, None)
                if owner is None or fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, method, self._wrap(span_name, fn))
                continue
            if owner is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            traced = self._wrap(span_name, owner)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        setattr(mod, key, traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def per_layer(self) -> dict:
        """The per-layer metrics over every span recorded."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += dur[i]
        ancestors: list = []  # names above each span
        for s in spans:
            ancestors.append(ancestors[s[3]] | {spans[s[3]][0]} if s[3] >= 0 else frozenset())

        def time_in(names, under=None) -> float:
            """Time in spans with these names, each counted once even when nested."""
            return sum(dur[i] for i, s in enumerate(spans)
                       if s[0] in names and not (ancestors[i] & names)
                       and (under is None or under in ancestors[i]))

        def self_time(name) -> float:
            return sum(dur[i] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

        def extras(names):
            return [s[4] for s in spans if s[0] in names and s[4] is not None]

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        enum_s = time_in({"functable.enumerate_class"})
        to_table_s = time_in({"terms.to_table"})
        closure_s = time_in(CLOSURE)
        attempts = sum(a for a, _ in extras(CLOSURE))
        insertions = sum(i for _, i in extras(CLOSURE))
        sizes: dict = {}  # id -> tree size; the spans keep every term alive
        node_cells = sum(tree_size(term, sizes) * cells
                         for term, cells in extras({"terms.to_table"}))
        return {
            "lattice.build_ms": 1e3 * time_in(LATTICE),
            "functable.enumerate_s": enum_s,
            "functable.fns_per_s": ratio(sum(extras({"functable.enumerate_class"})), enum_s),
            "functable.predicates_ms": 1e3 * time_in(PREDICATES),
            "functable.parse_ms": 1e3 * time_in({"functable.parse_function"}),
            "generators.tables_ms": 1e3 * time_in({"generators.table"}),
            "decompose.build_ms": 1e3 * self_time("decompose.decompose_id_reduced"),
            "decompose.simplify_ms": 1e3 * self_time("decompose.simplify"),
            "terms.to_table_ms": 1e3 * to_table_s,
            "terms.node_cells_per_s": ratio(node_cells, to_table_s),
            "terms.format_ms": 1e3 * time_in({"terms.format_term_file"}),
            "clone.cover_s": time_in({"clone.closure.cover"}),
            "clone.fixpoint_s": time_in({"clone.closure.fixpoint"}),
            "clone.attempts": attempts,
            "clone.insert_ratio": ratio(insertions, attempts),
            "clone.attempts_per_s": ratio(attempts, closure_s),
            "clone.verify_b_s": time_in({"decompose.decompose_id_reduced", "terms.to_table"},
                                        under="clone.verify_generation"),
            "cli.self_ms": 1e3 * self_time("cli.main"),
        }


def tree_size(term, sizes: dict) -> int:
    """Nodes of the term read as a tree (shared subterms counted at every
    use).  Nodes are told apart by their children: 'left'/'right' for
    binary nodes, 'args' for applications, none for variables.  sizes
    memoizes by id, so the terms must stay alive while it is in use."""
    todo = [term]
    while todo:
        t = todo[-1]
        if id(t) in sizes:
            todo.pop()
            continue
        kids = _children(t)
        pending = [k for k in kids if id(k) not in sizes]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        sizes[id(t)] = 1 + sum(sizes[id(k)] for k in kids)
    return sizes[id(term)]


def _children(t):
    if hasattr(t, "left") and hasattr(t, "right"):
        return (t.left, t.right)
    return tuple(getattr(t, "args", ()))
