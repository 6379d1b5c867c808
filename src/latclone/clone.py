"""Bounded composition closure and generation checks.

The closure starts from the n-ary projections and repeatedly composes the
base functions with every tuple of already-reached n-ary functions, using
the usual semi-naive frontier: each round only tries argument tuples that
contain at least one function discovered in the previous round.  The budget
counts attempted compositions, so a run with a high deduplication hit-rate
still terminates promptly.
"""

from __future__ import annotations

import itertools
import sys
import time
import weakref
from array import array
from dataclasses import dataclass, field
from operator import itemgetter

from .decompose import decompose_id_reduced
from .errors import BudgetExceeded, InvalidArgument, LatticeMismatch
from .functable import (
    FnTable,
    all_tuples,
    enumerate_class,
    format_function,
    join_fn,
    meet_fn,
    projection,
)
from .generators import reduced_generator_set
from .lattice import Lattice
from .terms import _tabulate

DEFAULT_CLOSURE_BUDGET = 10**6


@dataclass
class ClosureReport:
    reached: list[FnTable]
    rounds: int
    insertions: int
    attempts: int
    budget_hit: bool
    elapsed: float
    keys: set = field(repr=False, default_factory=set)


def _tuples_with_max(d: int, k: int):
    """All k-tuples over 0..d whose maximum is exactly d.

    Ordered by which positions carry d (every nonempty position mask, lowest
    position first), then lexicographically in the remaining positions.
    """
    return itertools.chain.from_iterable(
        itertools.product(*[(d,) if mask >> i & 1 else range(d) for i in range(k)])
        for mask in range(1, 1 << k)
    )


def _field_format(m: int, k: int) -> str:
    """The array typecode of the narrowest unsigned field that holds every
    index into a k-ary table on m elements."""
    for code in "BHI":
        if m**k <= 1 << 8 * array(code).itemsize:
            return code
    return "Q"


class _Stream:
    """Per-arity composition stream: walks argument tuples level by level,
    level d holding the tuples whose maximum reached-index is exactly d."""

    def __init__(self, arity: int, bases: list):
        self.arity = arity
        self.bases = bases  # value vectors of the base functions
        self.level = 0
        self._pending = None

    def next_batch(self, limit: int):
        """Argument tuples of the current level; None when the level is
        beyond limit (stream blocked until more functions are reached)."""
        if self.level >= limit:
            return None
        if self._pending is None:
            self._pending = _tuples_with_max(self.level, self.arity)
        return self._pending

    def advance(self):
        self.level += 1
        self._pending = None


def closure(
    base,
    n: int,
    budget: int = DEFAULT_CLOSURE_BUDGET,
    until_keys=None,
) -> ClosureReport:
    """Close base (mixed arities) under composition at output arity n.

    Starts from the n-ary projections.  For each argument arity k present
    in the base, a stream walks the k-tuples of reached functions in order
    of increasing maximum index; the streams are interleaved with equal
    attempt quanta so that cheap low-arity composition is not starved by
    the cubic growth of higher-arity argument tuples.  Iteration order is
    deterministic.  Terminates at the fixpoint (every stream has consumed
    all tuples over the final reached set), on budget exhaustion
    (budget_hit=True, partial result), or as soon as the reached set covers
    until_keys.  When every base function is idempotent the reached set can
    never leave the idempotent class, so covering the enumerated class via
    until_keys proves the closure equals it without driving the search to
    its fixpoint.

    The kernel is a gather: every reached value vector is packed once into
    an int with one fixed-width field per cell, so an argument tuple's
    table index at every cell takes k-1 big-int multiply-adds, and one
    itemgetter over those indices reads the composite off each base table.
    """
    base = list(base)
    if budget < 1:
        raise InvalidArgument(f"budget must be >= 1, got {budget}")
    if not base:
        raise InvalidArgument("closure needs at least one base function")
    lat = base[0].lattice
    if any(f.lattice != lat for f in base):
        raise LatticeMismatch("base functions live on different lattices")

    start = time.monotonic()
    reached: list[FnTable] = [projection(lat, n, i) for i in range(1, n + 1)]
    seen = {f.values for f in reached}

    by_arity: dict[int, list] = {}
    for f in base:
        by_arity.setdefault(f.arity, []).append(f.values)
    streams = [_Stream(k, by_arity[k]) for k in sorted(by_arity)]

    m, cells, order = lat.size, lat.size**n, sys.byteorder
    fmt = _field_format(m, max(by_arity))
    nbytes = cells * array(fmt).itemsize

    def pack(values) -> int:
        return int.from_bytes(array(fmt, values).tobytes(), order)

    def gather(idxs):
        """A getter of the composite's values, at every cell, from a base
        table whose arguments are the reached functions idxs."""
        x = 0
        for i in idxs:
            x = x * m + packed[i]
        cell_idx = x.to_bytes(nbytes, order)
        if fmt != "B":  # bytes already read as one-byte ints
            cell_idx = memoryview(cell_idx).cast(fmt)
        if cells == 1:  # itemgetter of one item returns it bare
            return itemgetter(slice(cell_idx[0], cell_idx[0] + 1))
        return itemgetter(*cell_idx)

    packed = [pack(f.values) for f in reached]
    missing = None if until_keys is None else set(until_keys) - {(n, v) for v in seen}
    insertions = attempts = 0
    budget_hit = False
    done = missing is not None and not missing
    quantum = 64  # attempts per stream per turn

    while not budget_hit and not done:
        progressed = False
        for stream in streams:
            if budget_hit or done:
                break
            tables = stream.bases
            served = 0
            while served < quantum:
                batch = stream.next_batch(len(packed))
                if batch is None:
                    break  # blocked until reached grows
                # the tuples a one-attempt-at-a-time loop would take this turn
                chunk = list(itertools.islice(batch, -(-(quantum - served) // len(tables))))
                if not chunk:
                    stream.advance()
                    continue
                progressed = True
                outs = []
                for get in map(gather, chunk):
                    outs += map(get, tables)
                # an attempt is due past the budget: cut there
                budget_hit = len(outs) > budget - attempts
                if budget_hit:
                    del outs[budget - attempts:]
                if not seen.issuperset(outs):
                    for j, values in enumerate(outs):
                        if values in seen:
                            continue
                        seen.add(values)
                        reached.append(FnTable(lat, n, values))
                        packed.append(pack(values))
                        insertions += 1
                        if missing is not None:
                            missing.discard((n, values))
                            if not missing:
                                done, budget_hit = True, False
                                del outs[j + 1:]
                                break
                attempts += len(outs)
                served += len(outs)
                if budget_hit or done:
                    break
        if not progressed and not done:
            break  # all streams blocked at the frontier: fixpoint

    rounds = min(stream.level for stream in streams) if streams else 0
    return ClosureReport(
        reached=reached,
        rounds=rounds,
        insertions=insertions,
        attempts=attempts,
        budget_hit=budget_hit,
        elapsed=time.monotonic() - start,
        keys={(n, v) for v in seen},
    )


@dataclass
class VerificationReport:
    lattice_name: str
    arity: int
    id_count: int
    closure_pass: bool
    decomposition_pass: bool
    closure_report: ClosureReport
    counterexamples: list[FnTable] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.closure_pass and self.decomposition_pass


def verify_generation(
    lat: Lattice,
    n: int,
    budget: int = DEFAULT_CLOSURE_BUDGET,
) -> VerificationReport:
    """Two independent confirmations that the reduced set generates Id^n.

    (A) the closure of {meet, join} plus the reduced iota generators equals
    the enumerated idempotent class as a set; (B) every enumerated member
    tabulates back from its reduced decomposition term.  Part B tabulates
    each distinct term node once per run.
    """
    ids = enumerate_class(lat, n, "idempotent")
    base = [meet_fn(lat), join_fn(lat)]
    base += [spec.table(lat) for spec in reduced_generator_set(lat)]
    id_keys = {f.key() for f in ids}
    # every base function is idempotent, so reached stays inside the
    # idempotent class; covering it proves set equality with the closure
    report = closure(base, n, budget, until_keys=id_keys)
    if report.budget_hit:
        raise BudgetExceeded(
            f"closure budget {budget} exhausted after {report.rounds} rounds"
        )
    closure_pass = report.keys == id_keys

    points, memo = all_tuples(lat.size, n), weakref.WeakKeyDictionary()
    bad_decompositions = []
    for f in ids:
        # term holds the previous member's term until this one is built.  In
        # lexicographic order that member shares the longest meet-chain
        # prefix any earlier member shares with this one, so the prefix stays
        # interned and memoised, and memory stays O(m**n).
        term = decompose_id_reduced(f)
        if _tabulate(term, lat, points, memo) != f.values:
            bad_decompositions.append(f)
    counterexamples = list(bad_decompositions)
    if not closure_pass:
        counterexamples += [g for g in report.reached if g.key() not in id_keys]

    return VerificationReport(
        lattice_name=lat.name,
        arity=n,
        id_count=len(ids),
        closure_pass=closure_pass,
        decomposition_pass=not bad_decompositions,
        closure_report=report,
        counterexamples=counterexamples,
    )


def format_closure_report(report: ClosureReport, counterexamples=()) -> str:
    lines = [
        f"reached={len(report.reached)} rounds={report.rounds} "
        f"budget_hit={str(report.budget_hit).lower()}"
    ]
    for f in counterexamples:
        lines.append(format_function(f).rstrip("\n"))
    return "\n".join(lines) + "\n"


def format_verification_report(report: VerificationReport) -> str:
    a = "pass" if report.closure_pass else "fail"
    b = "pass" if report.decomposition_pass else "fail"
    lines = [
        f"lattice={report.lattice_name} arity={report.arity} "
        f"id_count={report.id_count} A={a} B={b}",
        format_closure_report(report.closure_report).rstrip("\n"),
    ]
    for f in report.counterexamples:
        lines.append(format_function(f).rstrip("\n"))
    return "\n".join(lines) + "\n"
