"""Bounded composition closure, the majorant certificate and generation checks.

The closure starts from the n-ary projections and repeatedly composes the
base functions with every tuple of already-reached n-ary functions, using
the usual semi-naive frontier: each round only tries argument tuples that
contain at least one function discovered in the previous round.  The budget
counts attempted compositions, so a run with a high deduplication hit-rate
still terminates promptly.

The certificate shows given functions to lie in the clone without searching
it: each is the meet, over the cells, of joins of a small set of clone
members built in one generator level.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array
from dataclasses import dataclass, field
from functools import partial, reduce
from operator import add, and_, attrgetter, getitem, itemgetter, methodcaller, mul

from .decompose import _anchor_operand
from .errors import ArityMismatch, BudgetExceeded, InvalidArgument, LatticeMismatch
from .functable import (
    FnTable,
    _cells,
    _check_same_lattice,
    _packer,
    all_tuples,
    check_idempotent_aggregation,
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
    """What closure reached, or which members certify showed to lie in the
    clone; certify's fields are described there."""

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


def _gather_kernel(m: int, cells: int, k: int, packed: list):
    """(pack, form, table, compose) for composing tables of arity at most
    k with value vectors of the given number of cells.

    pack(values) is the int with one fixed-width field per cell that
    compose reads from the list packed.  compose(idx_tuples, tables) lists,
    for each tuple idxs and then each base table, the composite of the
    table with the vectors packed[i] for i in idxs as arguments.  Each
    table must come from table(values); each composite is in the form that
    form(values) gives, and tuple() turns it into the value tuple.

    A tuple's table index at every cell takes k-1 big-int multiply-adds,
    over the whole batch in C.  When every index fits one byte
    (m**k <= 256), the int's to_bytes is the cells' index bytes, a table
    is the base's values padded to 256 bytes, and a composite is one
    bytes.translate.  Wider indices are read by an itemgetter off the
    base's value tuple.
    """
    order = sys.byteorder

    def indices(idx_tuples):
        cols = zip(*idx_tuples)
        x = map(packed.__getitem__, next(cols, ()))
        for col in cols:
            x = map(add, map(mul, x, itertools.repeat(m)), map(packed.__getitem__, col))
        return x

    def fields(idx_tuples, nbytes):
        return map(int.to_bytes, indices(idx_tuples), itertools.repeat(nbytes),
                   itertools.repeat(order))

    # m == 1, the one case of a single cell, always takes this path: an
    # itemgetter of one index would return a bare value, not a tuple
    if m**k <= 256:
        def compose(idx_tuples, tables):
            return [idx.translate(t) for idx in fields(idx_tuples, cells) for t in tables]

        return partial(int.from_bytes, byteorder=order), bytes, _padded, compose

    fmt = _field_format(m, k)
    nbytes = cells * array(fmt).itemsize

    def pack(values) -> int:
        return int.from_bytes(array(fmt, values).tobytes(), order)

    def compose(idx_tuples, tables):
        idxs = map(methodcaller("cast", fmt), map(memoryview, fields(idx_tuples, nbytes)))
        return [get(t) for get in itertools.starmap(itemgetter, idxs) for t in tables]

    return pack, tuple, tuple, compose


def _padded(values) -> bytes:
    """A one-byte table as a bytes.translate table."""
    return bytes(values).ljust(256, b"\0")


class _Stream:
    """Per-arity composition stream: walks argument tuples level by level,
    level d holding the tuples whose maximum reached-index is exactly d."""

    def __init__(self, arity: int, bases: list):
        self.arity = arity
        self.bases = bases  # base tables, as the kernel's table() gives them
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
    table index at every cell takes k-1 big-int multiply-adds.  When every
    index fits one byte, that int's bytes are the cells' indices and one
    bytes.translate over each base table, padded to 256 bytes, reads the
    composite as bytes; the reached set is deduplicated in that form, and
    only a new composite becomes a tuple.  Wider indices are read by one
    itemgetter per tuple.  n must be at least 1 (ArityMismatch).
    """
    base = list(base)
    if budget < 1:
        raise InvalidArgument(f"budget must be >= 1, got {budget}")
    if n < 1:
        raise ArityMismatch(f"arity must be >= 1, got {n}")
    if not base:
        raise InvalidArgument("closure needs at least one base function")
    lat = base[0].lattice
    if any(f.lattice != lat for f in base):
        raise LatticeMismatch("base functions live on different lattices")

    start = time.monotonic()
    reached: list[FnTable] = [projection(lat, n, i) for i in range(1, n + 1)]
    packed: list[int] = []
    pack, form, table, compose = _gather_kernel(
        lat.size, lat.size**n, max(f.arity for f in base), packed
    )
    packed += [pack(f.values) for f in reached]
    seen = {form(f.values) for f in reached}

    by_arity: dict[int, list] = {}
    for f in base:
        by_arity.setdefault(f.arity, []).append(table(f.values))
    streams = [_Stream(k, by_arity[k]) for k in sorted(by_arity)]

    missing = None if until_keys is None else set(until_keys) - {f.key() for f in reached}
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
                outs = compose(chunk, tables)
                # an attempt is due past the budget: cut there
                budget_hit = len(outs) > budget - attempts
                if budget_hit:
                    del outs[budget - attempts:]
                if not seen.issuperset(outs):
                    for j, out in enumerate(outs):
                        if out in seen:
                            continue
                        seen.add(out)
                        values = tuple(out)
                        reached.append(FnTable(lat, n, values))
                        packed.append(pack(out))
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
        keys={f.key() for f in reached},
    )


def _lattice_polynomials(lat: Lattice, n: int, has_meet: bool, has_join: bool):
    """Value vectors of the closure of the n-ary projections under the
    pointwise meet and join, as far as has_meet and has_join admit them.
    Both are commutative and idempotent, so each function is combined with
    every earlier one once, when it comes up; found grows while it is
    walked.  A combination is one big-int and of packed masks, and only a
    new result is unpacked."""
    cells = lat.size**n
    ops = [(_packer(lat, kind), [], set())
           for kind, kept in (("down", has_meet), ("up", has_join)) if kept]
    found = []

    def add(values):
        found.append(values)
        for masks, codes, seen in ops:
            code = masks.pack(values)
            codes.append(code)
            seen.add(code)

    for i in range(1, n + 1):
        add(projection(lat, n, i).values)
    for i, _ in enumerate(found):
        for masks, codes, seen in ops:
            for code in sorted(set(map(codes[i].__and__, codes[:i])) - seen):
                add(masks.unpack(code, cells))
    return found


def _generator_level(gens, polys, lat: Lattice, n: int) -> set:
    """The value vectors of every generator applied to every tuple of its
    arity over polys."""
    by_arity: dict[int, list] = {}
    for g in gens:
        by_arity.setdefault(g.arity, []).append(g.values)
    packed: list[int] = []
    pack, _, table, compose = _gather_kernel(lat.size, lat.size**n, max(by_arity), packed)
    packed += map(pack, polys)
    out = set()
    for k, values in by_arity.items():
        idxs = itertools.product(range(len(polys)), repeat=k)
        out.update(compose(idxs, list(map(table, values))))
    return set(map(tuple, out))


def _majorants(lat: Lattice, fns: set, has_join: bool) -> list[list[int]]:
    """upper[c][v]: the packed pointwise join of {g in fns : g(c) <= v}, or
    0 when that set is empty or, without the join among the base
    operations, when its join is not itself in fns.  A packed 0 is below
    every packed function, so it certifies nothing.  The join at cell x is
    read off the distinct pairs (g(c), g(x))."""
    m, leq, join_t = lat.size, lat.leq_table, lat.join_table
    pack = _packer(lat, "down").pack
    above = [[v for v in range(m) if leq[a][v]] for a in range(m)]
    columns = list(zip(*fns))
    upper = []
    for col in columns:
        rows = [[None] * len(columns) for _ in range(m)]  # None: nothing joined yet
        for x, other in enumerate(columns):
            for a, b in set(zip(col, other)):
                for v in above[a]:
                    acc = rows[v][x]
                    rows[v][x] = b if acc is None else join_t[acc][b]
        upper.append([
            pack(row) if row[0] is not None and (has_join or tuple(row) in fns) else 0
            for row in rows
        ])
    return upper


def certify(base, members, budget: int = DEFAULT_CLOSURE_BUDGET) -> ClosureReport:
    """Show members to lie in the clone that base generates, by the
    majorant argument instead of a search of the clone.

    P is the closure of the n-ary projections under those of the pointwise
    meet and join that base holds.  For a set G of clone members, H[c][v]
    is the pointwise join of {g in G : g(c) <= v}.  A member f is certified
    when H[c][f(c)] >= f at every cell c: f is then the meet over c of the
    H[c][f(c)], each a join of clone members.  An empty set certifies
    nothing; without the join in base, H[c][v] counts only when it is
    itself in G, and without the meet, f must also equal one H[c][f(c)].

    G is P first; with both the meet and the join in base that certifies
    exactly the members of P, so it is a membership test.  If a member is
    left, G gains one generator level: every other base function applied
    to every tuple of its arity over P, composed by the closure's kernel.
    budget bounds those applications, and BudgetExceeded is raised before
    any is made when the level needs more.  Each value is packed as its
    down-set mask (x <= y iff down(x) is a subset of down(y)), one field
    per cell, so each test H >= f is one big-int and.

    Every base function must be an idempotent aggregation function
    (NotIdempotent otherwise), so the clone lies inside the idempotent
    class.  A member left uncertified is not shown to lie in the clone,
    which does not prove it lies outside.  The report's reached and keys
    are the certified members, rounds the generator levels used (0 or 1),
    attempts the generator applications and insertions the number of
    distinct functions in G.
    """
    base, members = list(base), list(members)
    if budget < 1:
        raise InvalidArgument(f"budget must be >= 1, got {budget}")
    if not base or not members:
        raise InvalidArgument("certify needs a base function and a member")
    lat, n = members[0].lattice, members[0].arity
    _check_same_lattice(*members, *base)
    if set(map(attrgetter("arity"), members)) != {n}:
        raise ArityMismatch("members must share one arity")
    for g in base:
        check_idempotent_aggregation(g)

    start = time.monotonic()
    meet_key, join_key = meet_fn(lat).key(), join_fn(lat).key()
    base_keys = {g.key() for g in base}
    has_meet, has_join = meet_key in base_keys, join_key in base_keys
    gens = [g for g in base if g.key() not in (meet_key, join_key)]
    polys = _lattice_polynomials(lat, n, has_meet, has_join)
    pack = _packer(lat, "down").pack
    packed = [pack(f.values) for f in members]

    def uncertified(indices, fns) -> list[int]:
        upper = _majorants(lat, fns, has_join)
        outside = [[~h for h in row] for row in upper]  # pf & ~h: f's excess over h

        def fails(i):
            pf, values = packed[i], members[i].values
            if any(map(pf.__and__, map(getitem, outside, values))):
                return True
            return not has_meet and pf not in map(getitem, upper, values)

        return [i for i in indices if fails(i)]

    fns = set(polys)
    if has_meet and has_join:
        # H[c][v] is then a join of members of P, so in P, and a certified
        # f is their meet, so in P too: G = P certifies exactly P.
        left = [i for i, f in enumerate(members) if f.values not in fns]
    else:
        left = uncertified(range(len(members)), fns)
    rounds = attempts = 0
    if left and gens:
        attempts = sum(len(polys) ** g.arity for g in gens)
        if attempts > budget:
            raise BudgetExceeded(
                f"the generator level needs {attempts} applications, "
                f"over the budget {budget}"
            )
        fns |= _generator_level(gens, polys, lat, n)
        rounds = 1
        left = uncertified(left, fns)

    missed = set(left)
    reached = [f for i, f in enumerate(members) if i not in missed]
    return ClosureReport(
        reached=reached,
        rounds=rounds,
        insertions=len(fns),
        attempts=attempts,
        budget_hit=False,
        elapsed=time.monotonic() - start,
        keys={(n, f.values) for f in reached},
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


def _unrecovered(lat: Lattice, n: int, members) -> list[FnTable]:
    """The members f of Id^n whose reduced decomposition, the meet over the
    cells k of the anchor operand of (k, f(k)), does not tabulate to f.  As
    down(x meet y) = down(x) & down(y), that is when the and over k of the
    packed operand tables T[k][f(k)] is not f packed."""
    m, cells, leq = lat.size, _cells(lat, n), lat.leq_table
    points, memo, pack = all_tuples(m, n), {}, _packer(lat, "down").pack
    tables = [[pack(_tabulate(_anchor_operand(lat, n, k, v, True), lat, points, memo))
               if leq[lo][v] and leq[v][hi] else None for v in range(m)]
              for k, (lo, hi) in enumerate(zip(cells.lows, cells.highs))]
    return [f for f in members
            if reduce(and_, map(getitem, tables, f.values)) != pack(f.values)]


def verify_generation(
    lat: Lattice,
    n: int,
    budget: int = DEFAULT_CLOSURE_BUDGET,
) -> VerificationReport:
    """Two independent confirmations that the reduced set generates Id^n.

    (A) certify, by the majorant argument, every enumerated member as an
    element of the clone of {meet, join} plus the reduced iota generators;
    budget bounds the certificate's generator applications.  certify checks
    that every base function is an idempotent aggregation function, so the
    clone lies inside the class, and A passes when every member is
    certified.  A member left uncertified is reported as a counterexample:
    it is not shown to lie in the clone.  (B) every enumerated member
    tabulates back from its reduced decomposition term, the meet of its
    anchor operands; _unrecovered checks this without building the term.
    """
    ids = list(enumerate_class(lat, n, "idempotent"))  # each member built once
    base = [meet_fn(lat), join_fn(lat)]
    base += [spec.table(lat) for spec in reduced_generator_set(lat)]
    report = certify(base, ids, budget)
    closure_pass = len(report.reached) == len(ids)

    bad_decompositions = _unrecovered(lat, n, ids)
    uncertified = [] if closure_pass else [f for f in ids if f.key() not in report.keys]
    counterexamples = bad_decompositions + uncertified

    return VerificationReport(
        lattice_name=lat.name,
        arity=n,
        id_count=len(ids),
        closure_pass=closure_pass,
        decomposition_pass=not bad_decompositions,
        closure_report=report,
        counterexamples=counterexamples,
    )


def format_closure_report(report: ClosureReport) -> str:
    return (
        f"reached={len(report.reached)} rounds={report.rounds} "
        f"budget_hit={str(report.budget_hit).lower()}\n"
    )


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
