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
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from operator import add, and_, attrgetter, getitem, itemgetter, methodcaller, mul

from .decompose import _anchor_operand
from .errors import ArityMismatch, BudgetExceeded, InvalidArgument
from .functable import (
    FnTable,
    PackedClass,
    _cells,
    _check_same_lattice,
    _packer,
    all_tuples,
    check_idempotent_aggregation,
    count_class,
    enumerate_class,
    format_function,
    join_fn,
    meet_fn,
    projection,
)
from .generators import make_chi, reduced_generator_set
from .lattice import Lattice, per_lattice
from .terms import _tabulate

DEFAULT_CLOSURE_BUDGET = 10**6


@dataclass
class ClosureReport:
    """What closure reached, or which members certify showed to lie in the
    clone; certify's fields are described there.  verify_generation's
    reached may be the enumerated PackedClass, which compares by identity.
    keys are built on each read, from the value vectors alone."""

    reached: list[FnTable] | PackedClass
    rounds: int
    insertions: int
    attempts: int
    budget_hit: bool
    elapsed: float

    @property
    def keys(self) -> set:
        r = self.reached
        if isinstance(r, PackedClass):
            return {(r.arity, v) for v in r.vectors()}
        return {f.key() for f in r}


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


def _commutes(values, m: int) -> bool:
    """Whether a binary table equals its transpose, its columns end to end."""
    return values == tuple(itertools.chain.from_iterable(values[x::m] for x in range(m)))


class _Stream:
    """Per-arity composition stream: walks argument tuples level by level,
    level d holding the tuples whose maximum reached-index is exactly d.
    With mirror (binary commutative tables) a level is the tuples (d, x),
    then the number of attempts on the tuples (x, d), then (d, d)."""

    def __init__(self, arity: int, tables: list, compose, cells: int, mirror: bool):
        self.arity, self.tables, self._compose, self._mirror = arity, tables, compose, mirror
        self._chunk = max(1, 2**16 // (cells * len(tables)))  # tuples
        self.level = -1
        self._advance()

    def _advance(self):
        d = self.level = self.level + 1
        self._segments = iter([zip(itertools.repeat(d), range(d)), d * len(self.tables),
                               [(d, d)]] if self._mirror else [_tuples_with_max(d, self.arity)])
        self._tuples, self._buf, self._pos, self._left = iter(()), [], 0, 0

    def take(self, n: int, limit: int):
        """The next at most n attempts, never none: a list of composites or
        a number of counted attempts; None when the level is at limit
        (blocked until more functions are reached)."""
        while self.level < limit:
            if self._left:
                n = min(n, self._left)
                self._left -= n
                return n
            pos = self._pos
            if pos < len(self._buf):
                self._pos += n
                return self._buf[pos:pos + n]
            chunk = list(itertools.islice(self._tuples, self._chunk))
            if chunk:
                self._buf, self._pos = self._compose(chunk, self.tables), 0
                continue
            segment = next(self._segments, None)
            if segment is None:
                self._advance()
            elif isinstance(segment, int):
                self._left = segment
            else:
                self._tuples = iter(segment)
        return None


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
    itemgetter per tuple.  Each stream composes ahead within a level, a
    chunk of at most 2**16 composite cells (or one tuple), and a turn
    slices its attempts out of that buffer.  A stream of binary
    commutative tables only counts the tuples (x, d) of level d: each
    t(f_x, f_d) = t(f_d, f_x) was attempted as (d, x) earlier in the
    level, so they insert nothing.  n must be at least 1 (ArityMismatch).
    """
    base = list(base)
    if budget < 1:
        raise InvalidArgument(f"budget must be >= 1, got {budget}")
    if n < 1:
        raise ArityMismatch(f"arity must be >= 1, got {n}")
    if not base:
        raise InvalidArgument("closure needs at least one base function")
    _check_same_lattice(*base)
    lat = base[0].lattice

    start = time.monotonic()
    reached: list[FnTable] = [projection(lat, n, i) for i in range(1, n + 1)]
    packed: list[int] = []
    pack, form, table, compose = _gather_kernel(
        lat.size, lat.size**n, max(f.arity for f in base), packed
    )
    packed += [pack(f.values) for f in reached]
    seen = {form(f.values) for f in reached}

    streams = [_Stream(k, list(map(table, vs)), compose, lat.size**n,
                       k == 2 and all(_commutes(v, lat.size) for v in vs))
               for k, vs in _by_arity(base)]

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
            width = len(stream.tables)
            served = 0
            while served < quantum:
                # the attempts a one-tuple-at-a-time loop would make this turn
                outs = stream.take(-(-(quantum - served) // width) * width, len(packed))
                if outs is None:
                    break  # blocked until reached grows
                progressed = True
                if isinstance(outs, int):  # counted attempts insert nothing
                    size = min(outs, budget - attempts)
                    budget_hit = size < outs
                else:
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
                    size = len(outs)
                attempts += size
                served += size
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
    )


def _by_arity(fns) -> list[tuple[int, list]]:
    """(k, the value vectors of the k-ary fns) for each arity k, increasing."""
    by_arity: dict[int, list] = {}
    for f in fns:
        by_arity.setdefault(f.arity, []).append(f.values)
    return sorted(by_arity.items())


def _seed(lat: Lattice, n: int, has_meet: bool, has_join: bool) -> list:
    """The value vectors the generators are applied to: the n-ary
    projections, then the meet of all arguments when has_meet and their
    join when has_join, each once (at n = 1 both are the projection)."""
    cells = _cells(lat, n)
    fns = [projection(lat, n, i).values for i in range(1, n + 1)]
    fns += [fn for fn, kept in ((cells.lows, has_meet), (cells.highs, has_join)) if kept]
    return list(dict.fromkeys(fns))


def _generator_level(gens, seed, lat: Lattice, n: int) -> set:
    """The value vectors of every generator applied to every tuple of its
    arity over seed."""
    by_arity = _by_arity(gens)
    packed: list[int] = []
    pack, _, table, compose = _gather_kernel(lat.size, lat.size**n, by_arity[-1][0], packed)
    packed += map(pack, seed)
    out = set()
    for k, values in by_arity:
        idxs = itertools.product(range(len(seed)), repeat=k)
        out.update(compose(idxs, list(map(table, values))))
    return set(map(tuple, out))


def _majorants(lat: Lattice, fns, has_join: bool) -> list[list[int]]:
    """upper[c][v]: the pointwise join of {g in fns : g(c) <= v}, packed as
    up-set masks, or -1 when that set is empty or, without the join among
    the base operations, when its join is not itself in fns.  As
    up(x join y) = up(x) & up(y), a join is one big-int and: by_value[u]
    is the and over the g with g(c) = u, and upper[c][v] the and of those
    with u <= v.  -1 is the identity of and, and -1 & ~up(f) is never 0,
    so -1 certifies nothing."""
    m, leq = lat.size, lat.leq_table
    below = [[u for u in range(m) if leq[u][v]] for v in range(m)]
    fns = list(fns)
    ups = list(map(_packer(lat, "up").pack, fns))
    kept = None if has_join else set(ups)
    upper = []
    for col in zip(*fns):
        by_value = [-1] * m
        for u, up in zip(col, ups):
            by_value[u] &= up
        row = [reduce(and_, map(by_value.__getitem__, us)) for us in below]
        upper.append(row if kept is None else [h if h in kept else -1 for h in row])
    return upper


def certify(base, members, budget: int = DEFAULT_CLOSURE_BUDGET) -> ClosureReport:
    """Show members to lie in the clone that base generates, by the
    majorant argument instead of a search of the clone.

    S is the n-ary projections with the pointwise meet and join of all
    arguments, as far as base holds the meet and the join: what the
    paper's iotas are applied to.  For a set G of clone members, H[c][v]
    is the pointwise join of {g in G : g(c) <= v}.  A member f is certified
    when H[c][f(c)] >= f at every cell c: f is then the meet over c of the
    H[c][f(c)], each a join of clone members.  An empty set certifies
    nothing; without the join in base, H[c][v] counts only when it is
    itself in G, and without the meet, f must also equal one H[c][f(c)].

    G is S first.  If a member is left, G gains one generator level:
    every other base function applied to every tuple of its arity over S,
    composed by the closure's kernel.  budget bounds those applications,
    and BudgetExceeded is raised before any is made when the level needs
    more.  Each member and each H[c][v] is packed once as up-set masks
    (x <= y iff up(y) is a subset of up(x)), one field per cell, so each
    test H >= f is h & ~up(f) == 0, one big-int and; an H[c][v] of -1
    certifies nothing.

    Every base function must be an idempotent aggregation function
    (NotIdempotent otherwise), so the clone lies inside the idempotent
    class.  A member left uncertified is not shown to lie in the clone,
    which does not prove it lies outside: as G is built from S alone, a
    base without iotas can leave meet-join polynomials of arity 3 and up
    uncertified on a lattice that is not a chain.  The report's reached
    holds the certified members, rounds the generator levels used (0 or
    1), attempts the generator applications and insertions the number of
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
    seed = _seed(lat, n, has_meet, has_join)
    pack = _packer(lat, "up").pack
    packed = [pack(f.values) for f in members]

    def uncertified(indices, fns) -> list[int]:
        upper = _majorants(lat, fns, has_join)

        def fails(i):
            uf, values = packed[i], members[i].values
            hs = list(map(getitem, upper, values))
            # h & ~uf: the upper bounds of h that are not above f, none iff f <= h
            return any(map((~uf).__and__, hs)) or not has_meet and uf not in hs

        return [i for i in indices if fails(i)]

    fns = set(seed)
    left = uncertified(range(len(members)), fns)
    rounds = attempts = 0
    if left and gens:
        attempts = sum(len(seed) ** g.arity for g in gens)
        if attempts > budget:
            raise BudgetExceeded(
                f"the generator level needs {attempts} applications, "
                f"over the budget {budget}"
            )
        fns |= _generator_level(gens, seed, lat, n)
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


def _admissible_pairs(lat: Lattice, n: int) -> list[tuple[int, int]]:
    """The anchor pairs (k, v) of L^n, cell by cell: meet(k) <= v <= join(k)."""
    cells, leq = _cells(lat, n), lat.leq_table
    return [(k, v) for k, (lo, hi) in enumerate(zip(cells.lows, cells.highs))
            for v in range(lat.size) if leq[lo][v] and leq[v][hi]]


@per_lattice
def _anchor_tables(lat: Lattice, n: int, specs: tuple, budget: int):
    """(report, A, B) for the base of meet, join and specs: report
    certifies the admissible chis, and A[k][v] (B[k][v]) is 1 when the chi
    of (k, v) is certified (its reduced anchor operand tabulates to it),
    else 0; each row is a bytes.translate table.  A chi that does not take
    v at its own cell k is not that of (k, v) and fails both parts."""
    base = [meet_fn(lat), join_fn(lat), *(s.table(lat) for s in specs)]
    points, memo = all_tuples(lat.size, n), {}
    pairs = _admissible_pairs(lat, n)
    chis = [make_chi(lat, points[k], v) for k, v in pairs]
    report = certify(base, chis, budget)
    certified = {f.values for f in report.reached}
    a, b = ([bytearray(256) for _ in points] for _ in "ab")
    for (k, v), chi in zip(pairs, chis):
        if chi.values[k] == v:
            a[k][v] = chi.values in certified
            b[k][v] = _tabulate(_anchor_operand(lat, n, k, v, True), lat, points, memo) \
                == chi.values
    return report, list(map(bytes, a)), list(map(bytes, b))


def _member_pass(lat: Lattice, n: int, buffer, tables) -> list[list[int]]:
    """For each table set T of _anchor_tables, the indices of the vectors f
    in buffer (one byte per cell, vector after vector) with T[k][f(k)] = 0
    at some cell k or f(q) not below f(k) at some cover step q -> k.  As
    each f in Id^n is the meet of its chis chi_{k,f(k)} (the majorant
    lemma) and a meet of chis lies in Id^n, these are the vectors that are
    not the meet of chis of pairs that pass T.  Each test reads columns of
    a block, block[k::cells], one byte per vector: a translate by T[k], or
    the multiply-add col_q*m + col_k (no carry while m*m <= 256) and a
    translate by the order table.  A step with join(q) <= meet(k) holds
    for every vector that passes T, so it is skipped: at arity 1 every
    step, and within the cell budget of 64 arity 2 and up has m <= 8."""
    m, cells, rec, leq = lat.size, lat.size**n, _cells(lat, n), lat.leq_table
    order = bytes(leq[x][y] for x in range(m) for y in range(m)).ljust(256, b"\0")
    steps = [(q, k) for k, below in enumerate(rec.below) for q in below
             if not leq[rec.highs[q]][rec.lows[k]]]
    out, block = [[] for _ in tables], 1 << 15  # vectors per block
    for start in range(0, len(buffer) // cells, block):
        chunk = bytes(buffer[start * cells:(start + block) * cells])
        size = len(chunk) // cells
        cols = [chunk[k::cells] for k in range(cells)]
        ints = [int.from_bytes(c, "little") for c in cols]
        ones = int.from_bytes(b"\1" * size, "little")
        monotone = reduce(and_, (int.from_bytes((ints[q] * m + ints[k]).to_bytes(
            size, "little").translate(order), "little") for q, k in steps), ones)
        for missed, rows in zip(out, tables):
            ok = reduce(and_, (int.from_bytes(c.translate(r), "little")
                               for c, r in zip(cols, rows)), monotone)
            if ok != ones:  # the zero bytes of ok
                marks = ok.to_bytes(size, "little").translate(b"\1".ljust(256, b"\0"))
                missed += itertools.compress(itertools.count(start), marks)
    return out


def verify_generation(lat: Lattice, n: int,
                      budget: int = DEFAULT_CLOSURE_BUDGET) -> VerificationReport:
    """Check that the reduced set generates Id^n through the anchors: each
    f in Id^n is the meet over the cells k of chi_{k,f(k)}.  (A) certify
    shows each admissible chi to lie in the clone of {meet, join} plus the
    reduced iotas (budget bounds its generator applications); (B) each
    admissible reduced anchor operand tabulates to its chi.  A and B are
    separate conditions, and their tables are kept on the lattice, but
    one pass over the class checks each member against both; a member
    that fails it is a counterexample (for A, one not shown to lie in the
    clone).  When A passes, the report's reached is the class; elapsed is
    the time of this call.  The class is counted before it is kept, so
    one past the count budget raises BudgetExceeded without holding it."""
    start = time.monotonic()
    count_class(lat, n, "idempotent")
    ids = enumerate_class(lat, n, "idempotent")
    report, a, b = _anchor_tables(lat, n, tuple(reduced_generator_set(lat)), budget)
    marks = _member_pass(lat, n, ids._buffer, [a] if a == b else [a, b])
    missed, wrong = set(marks[0]), set(marks[-1])
    reached = [f for i, f in enumerate(ids) if i not in missed] if missed else ids
    return VerificationReport(
        lat.name, n, len(ids), closure_pass=not missed, decomposition_pass=not wrong,
        closure_report=replace(report, reached=reached, elapsed=time.monotonic() - start),
        counterexamples=[ids[i] for i in sorted(missed | wrong)])


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
