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
import time
from dataclasses import dataclass, field

from .decompose import decompose_id_reduced
from .errors import BudgetExceeded, InvalidArgument, LatticeMismatch
from .functable import (
    FnTable,
    compose_values,
    enumerate_class,
    format_function,
    join_fn,
    meet_fn,
    projection,
)
from .generators import reduced_generator_set
from .lattice import Lattice
from .terms import to_table

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
    if d == 0:
        yield (0,) * k
        return
    for mask in range(1, 1 << k):
        free = [i for i in range(k) if not mask & (1 << i)]
        for rest in itertools.product(range(d), repeat=len(free)):
            t = [d] * k
            for i, v in zip(free, rest):
                t[i] = v
            yield tuple(t)


class _Stream:
    """Per-arity composition stream: walks argument tuples level by level,
    level d holding the tuples whose maximum reached-index is exactly d."""

    def __init__(self, arity: int, bases: list):
        self.arity = arity
        self.bases = bases  # lookups of the base functions
        self.level = 0
        self._pending = None

    def next_batch(self, limit: int):
        """Argument tuples of the current level; None when the level is
        beyond limit (stream blocked until more functions are reached)."""
        if self.level >= limit:
            return None
        if self._pending is None:
            self._pending = iter(_tuples_with_max(self.level, self.arity))
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
    keys = {f.key() for f in reached}
    vectors = [f.values for f in reached]

    by_arity: dict[int, list] = {}
    for f in base:
        by_arity.setdefault(f.arity, []).append(f.lookup)
    streams = [_Stream(k, by_arity[k]) for k in sorted(by_arity)]

    missing = None if until_keys is None else set(until_keys) - keys
    insertions = attempts = 0
    budget_hit = False
    done = missing is not None and not missing
    quantum = 64  # attempts per stream per turn

    while not budget_hit and not done:
        progressed = False
        for stream in streams:
            if budget_hit or done:
                break
            served = 0
            while served < quantum:
                batch = stream.next_batch(len(vectors))
                if batch is None:
                    break  # blocked until reached grows
                idxs = next(batch, None)
                if idxs is None:
                    stream.advance()
                    continue
                progressed = True
                gvals = [vectors[i] for i in idxs]
                for lookup in stream.bases:
                    if attempts == budget:
                        budget_hit = True
                        break
                    attempts += 1
                    served += 1
                    values = compose_values(lookup, gvals)
                    key = (n, values)
                    if key not in keys:
                        keys.add(key)
                        reached.append(FnTable(lat, n, values))
                        vectors.append(values)
                        insertions += 1
                        if missing is not None:
                            missing.discard(key)
                            if not missing:
                                done = True
                                break
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
        keys=keys,
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
    cell_budget: int = 64,
    count_budget: int = 10**7,
) -> VerificationReport:
    """Two independent confirmations that the reduced set generates Id^n.

    (A) the closure of {meet, join} plus the reduced iota generators equals
    the enumerated idempotent class as a set; (B) every enumerated member
    tabulates back from its reduced decomposition term.
    """
    ids = enumerate_class(lat, n, "idempotent", cell_budget, count_budget)
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

    bad_decompositions = [
        f for f in ids
        if to_table(decompose_id_reduced(f), lat, n).values != f.values
    ]
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
