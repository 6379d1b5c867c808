"""Checks of every operation's output against the independent oracles.

Checker.check returns one of OK, EXPECTED (the chain4 cover check, which
fails today for a fault of the closure, see README.md) or WRONG, with a
message.
"""

from __future__ import annotations

import numpy as np

import oracles
import workloads

OK, EXPECTED, WRONG = "ok", "expected failure", "wrong"


class Checker:
    def __init__(self, workload: str, seed: int, smoke: bool, workdir: str):
        self.workdir = workdir
        self.ops = workloads.schedule(workload, seed, smoke)
        self._tables: dict = {}
        self.counts: dict = {}      # (lattice, arity, class) -> row count
        self.free: dict = {}        # (lattice, arity) -> set of fixpoint rows as bytes
        self.inputs: dict = {}      # (lattice, arity) -> array of input functions
        self.term_sizes: dict = {}  # (lattice, arity, simplify) -> [(tree nodes, distinct)]
        for op in set(self.ops):
            kind, lat_name, n = op[:3]
            if kind in ("enum", "verify", "cover"):
                cls = op[3] if kind == "enum" else "idempotent"
                self.counts.setdefault((lat_name, n, cls),
                                       oracles.count_class(workloads.lattice(lat_name), n, cls))
            elif kind == "fixpoint":
                rows = oracles.meet_join_closure(workloads.lattice(lat_name), n)
                self.free[lat_name, n] = {row.tobytes() for row in rows}
        if workload == "decompose":
            for (lat_name, n), vectors in workloads.draw_inputs(seed, smoke).items():
                arr = np.array(vectors, dtype=np.uint8)
                bad = oracles.property_failures(self.tables(lat_name, n), arr, idempotent=True)
                if bad:
                    raise RuntimeError(f"input drawer made a bad function on {lat_name}: {bad}")
                self.inputs[lat_name, n] = arr

    def tables(self, lat_name: str, n: int) -> oracles.Tables:
        key = (lat_name, n)
        if key not in self._tables:
            self._tables[key] = oracles.Tables(workloads.lattice(lat_name), n)
        return self._tables[key]

    def check(self, op, meta: dict, data: bytes):
        """(status, message) for one op's result."""
        if "error" in meta:
            return WRONG, "raised " + meta["error"].strip().splitlines()[-1]
        kind, lat_name, n = op[:3]
        if kind == "decompose":
            return self._decompose(op, meta)
        tab = self.tables(lat_name, n)
        if len(data) % tab.cells:
            return WRONG, f"{len(data)} bytes are not whole vectors of {tab.cells} cells"
        rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, tab.cells)
        return getattr(self, "_" + kind)(op, meta, rows, tab)

    def _enum(self, op, meta, rows, tab):
        _, lat_name, n, cls = op
        want = self.counts[lat_name, n, cls]
        closed = oracles.closed_form_count(tab.lat, n, cls)
        if meta["count"] != want or (closed is not None and meta["count"] != closed):
            return WRONG, f"count {meta['count']}, oracles say {want} (closed form {closed})"
        if len(rows) != want:
            return WRONG, f"{len(rows)} vectors for a count of {want}"
        bad = oracles.property_failures(tab, rows, idempotent=cls == "idempotent")
        if bad:
            return WRONG, ", ".join(bad)
        if tab.cells * np.log2(tab.m) >= 63:
            return WRONG, "vectors too long to compare as integers"
        keys = rows.astype(np.int64) @ (tab.m ** np.arange(tab.cells - 1, -1, -1, dtype=np.int64))
        if not (np.diff(keys) > 0).all():
            return WRONG, "vectors not strictly increasing"
        return OK, ""

    def _members(self, rows, tab, want: int | None = None):
        """A message when rows are not distinct idempotent aggregation
        functions, or not want of them; None otherwise."""
        bad = oracles.property_failures(tab, rows, idempotent=True)
        if bad:
            return "reached function outside Id: " + ", ".join(bad)
        if len(np.unique(rows, axis=0)) != len(rows):
            return "reached functions repeat"
        if want is not None and len(rows) != want:
            return f"reached {len(rows)} functions, expected {want}"
        return None

    def _verify(self, op, meta, rows, tab):
        _, lat_name, n = op
        want = self.counts[lat_name, n, "idempotent"]
        if not (meta["closure_pass"] and meta["decomposition_pass"]):
            return WRONG, f"A={meta['closure_pass']} B={meta['decomposition_pass']}"
        if meta["id_count"] != want:
            return WRONG, f"id_count {meta['id_count']}, row count {want}"
        problem = self._members(rows, tab, want)
        return (WRONG, problem) if problem else (OK, "")

    def _fixpoint(self, op, meta, rows, tab):
        _, lat_name, n = op
        if meta["budget_hit"]:
            return WRONG, "budget hit before the fixpoint"
        problem = self._members(rows, tab, oracles.FREE_LATTICE[lat_name, n])
        if problem:
            return WRONG, problem
        if {row.tobytes() for row in rows} != self.free[lat_name, n]:
            return WRONG, "fixpoint differs from the meet/join closure of the projections"
        return OK, ""

    def _cover(self, op, meta, rows, tab):
        _, lat_name, n = op
        want = self.counts[lat_name, n, "idempotent"]
        problem = self._members(rows, tab)
        if problem:
            return WRONG, problem
        if meta["budget_hit"] or len(rows) != want:
            return EXPECTED, (f"cover {lat_name}/{n}: reached {len(rows)} of {want} "
                              f"after {meta['attempts']} attempts, "
                              f"budget_hit={meta['budget_hit']}")
        return OK, ""

    def _decompose(self, op, meta):
        _, lat_name, n, j, simplify = op
        if meta["exit"] != 0:
            return WRONG, f"decompose exited with {meta['exit']}"
        with open(workloads.term_file(self.workdir, op), encoding="utf-8") as fh:
            text = fh.read()
        return self.check_term(text, lat_name, n, j, simplify)

    def check_term(self, text: str, lat_name: str, n: int, j: int, simplify: bool):
        """Re-tabulate a written term file and compare it with input j."""
        tab = self.tables(lat_name, n)
        try:
            nodes, root, tree = oracles.parse_term_file(text, tab.lat, n)
            values = oracles.evaluate_term(nodes, root, tab, reduced=True)
        except oracles.TermError as exc:
            return WRONG, f"term file: {exc}"
        self.term_sizes.setdefault((lat_name, n, simplify), []).append((tree, len(nodes)))
        if not np.array_equal(values, self.inputs[lat_name, n][j]):
            return WRONG, "term does not tabulate to its input function"
        return OK, ""
