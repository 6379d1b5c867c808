"""Total n-ary functions on a lattice stored as value vectors.

A function table holds one value per input tuple.  Tuples are indexed
big-endian mixed radix: index(x) = sum of x_i * m^(n-i), i.e. the first
component is the most significant digit.  Lexicographic tuple order thus
coincides with index order, and (by the linear-extension indexing of the
lattice) linearly extends the product order on L^n.
"""

from __future__ import annotations

import itertools
import struct
from array import array
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache
from operator import getitem

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    IndexOutOfRange,
    InvalidArgument,
    InvalidSize,
    LatticeMismatch,
    NotIdempotent,
    ParseError,
)
from .lattice import Lattice, check_label, per_lattice

DEFAULT_CELL_BUDGET = 64
DEFAULT_COUNT_BUDGET = 10**7
_BYTES = bytes(range(256))  # its first m bytes are the elements of a lattice of m <= 256


@lru_cache(maxsize=None)
def all_tuples(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All n-tuples over 0..m-1 in lexicographic (= index) order."""
    return tuple(itertools.product(range(m), repeat=n))


def tuple_index(m: int, xs) -> int:
    idx = 0
    for x in xs:
        idx = idx * m + x
    return idx


_Cells = namedtuple("_Cells", "below diagonal lows highs allowed")


class _Masks:
    """Packs a value vector into an int with one fixed-width field per cell,
    the field of a cell with value v holding masks[v]; unpack reads such
    an int back when every field holds one of the masks."""

    def __init__(self, masks):
        width = (len(masks) + 7) // 8
        self._fields = [mk.to_bytes(width, "little") for mk in masks]
        # one-byte fields: bytes(values).translate maps every cell in C
        self._table = bytes(masks).ljust(256, b"\0") if width == 1 else None
        self._element = {mk: x for x, mk in enumerate(masks)}
        self._width = 8 * width

    def pack(self, values) -> int:
        if self._table is not None:
            return int.from_bytes(bytes(values).translate(self._table), "little")
        return int.from_bytes(b"".join(map(self._fields.__getitem__, values)), "little")

    def unpack(self, packed: int, cells: int) -> tuple[int, ...]:
        full, element = (1 << self._width) - 1, self._element
        return tuple(element[packed >> s & full]
                     for s in range(0, self._width * cells, self._width))


@per_lattice
def _packer(lat: Lattice, kind: str) -> _Masks:
    """The packer of lat's value vectors whose field for value v is the
    mask of v alone ("point"), of the elements below v ("down") or of those
    above it ("up").  down(x meet y) is down(x) & down(y), up(x join y) is
    up(x) & up(y), and x <= y iff down(x) & ~down(y) == 0, so one big-int
    operation on two packed vectors does the same at every cell."""
    downs, m = lat.down_masks, lat.size
    if kind == "point":
        masks = [1 << v for v in range(m)]
    elif kind == "down":
        masks = downs
    else:
        masks = [sum(1 << y for y in range(m) if downs[y] >> x & 1) for x in range(m)]
    return _Masks(masks)


def _allowed(lat: Lattice, lows, highs) -> int:
    """The fields of the cells' allowed values, lows[k] <= v <= highs[k]:
    the values above lows[k] and below highs[k]."""
    return _packer(lat, "up").pack(lows) & _packer(lat, "down").pack(highs)


@per_lattice
def _cells(lat: Lattice, n: int) -> _Cells:
    """The cell structure of L^n that the predicates, the enumerator and
    decompose read.  below[k] holds the cells one cover step below cell k
    in one coordinate, diagonal[x] is the cell of (x, ..., x), lows[k] and
    highs[k] are the meet and the join of cell k's tuple, and allowed is
    one int whose field k, in the layout of _packer, is the mask of the
    values between them.  Arity 0 has the empty tuple alone, whose meet is
    top and join bottom; cell r*m + x of arity n extends cell r of arity
    n-1 by x."""
    if n == 0:
        lows, highs = (lat.top,), (lat.bottom,)
        return _Cells(((),), (0,) * lat.size, lows, highs, _allowed(lat, lows, highs))
    m, meet_t, join_t = lat.size, lat.meet_table, lat.join_table
    rows = _cells(lat, n - 1)
    lower = [[x for x in range(m) if c in lat.upper_covers(x)] for c in range(m)]
    lows = tuple(meet_t[lo][x] for lo in rows.lows for x in range(m))
    highs = tuple(join_t[hi][x] for hi in rows.highs for x in range(m))
    return _Cells(
        tuple((*(q * m + x for q in below), *(r * m + c for c in lower[x]))
              for r, below in enumerate(rows.below) for x in range(m)),
        tuple(r * m + x for x, r in enumerate(rows.diagonal)),
        lows,
        highs,
        _allowed(lat, lows, highs),
    )


@dataclass(frozen=True, slots=True)
class FnTable:
    """Total n-ary function on a lattice, one value per input tuple; a name
    other than the default "f" must read back from a function file."""

    lattice: Lattice
    arity: int
    values: tuple[int, ...]
    name: str = field(default="f", compare=False)
    _lookup: object = field(default=None, init=False, repr=False, compare=False)
    _aggregation: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.lattice.size
        if self.arity < 1:
            raise ArityMismatch(f"arity must be >= 1, got {self.arity}")
        if len(self.values) != m**self.arity:
            raise ArityMismatch(f"value vector has {len(self.values)} entries, "
                                f"expected {m**self.arity}")
        try:
            # bytes and array refuse a value that is not an int, which a test
            # by value would take for an element (1.0 for 1); a one-byte
            # table is inside when deleting the elements leaves no byte
            if m <= 256:
                outside = bytes(self.values).translate(None, _BYTES[:m])
            else:
                wide = array("q", self.values)
                outside = min(wide) < 0 or max(wide) >= m
        except (TypeError, ValueError, OverflowError):
            outside = True
        if outside:
            raise IndexOutOfRange("value outside element range")
        if self.name != "f":  # the default name is known to read back
            check_label("function name", self.name, FUNCTION_NAME_RESERVED)

    def __call__(self, xs) -> int:
        if len(xs) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(xs)}")
        m, idx = self.lattice.size, 0
        for x in xs:
            if not 0 <= x < m:
                raise IndexOutOfRange(f"argument {tuple(xs)} outside 0..{m - 1}")
            idx = idx * m + x
        return self.values[idx]

    @property
    def lookup(self):
        """Bound dict lookup from argument tuples to values (built once)."""
        lookup = self._lookup
        if lookup is None:
            lookup = dict(zip(self.tuples(), self.values)).__getitem__
            object.__setattr__(self, "_lookup", lookup)
        return lookup

    def key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical encoding for set membership and deduplication."""
        return (self.arity, self.values)

    def tuples(self):
        return all_tuples(self.lattice.size, self.arity)

    def renamed(self, name: str) -> "FnTable":
        return FnTable(self.lattice, self.arity, self.values, name=name)


def _refuse_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# slots=True rebuilds the class, and the frozen __setattr__/__delattr__ that
# dataclass generated still name the class it replaced, so on Python 3.10 and
# 3.11 they raise TypeError from super() for a name that is not a field.
# These refuse every name; the constructor and the setters below bypass them.
FnTable.__setattr__ = _refuse_setattr
FnTable.__delattr__ = _refuse_delattr

# The slot setters behind _member; the public constructor's checks are made
# by enumerate_class for a whole class at once.
_new_fn = object.__new__
_set_lattice = FnTable.lattice.__set__
_set_arity = FnTable.arity.__set__
_set_values = FnTable.values.__set__
_set_name = FnTable.name.__set__
_set_lookup = FnTable._lookup.__set__
_set_aggregation = FnTable._aggregation.__set__


def _member(lat: Lattice, n: int, values: tuple[int, ...]) -> FnTable:
    """An FnTable named 'f' whose values are already known to be in range
    and m**n long."""
    f = _new_fn(FnTable)
    _set_lattice(f, lat)
    _set_arity(f, n)
    _set_values(f, values)
    _set_name(f, "f")
    _set_lookup(f, None)
    _set_aggregation(f, None)
    return f


# Function names appear alone in a function file's header, so they may hold
# the generator-spec delimiters (iota[0,1,2;1]) but not a comment sign.
FUNCTION_NAME_RESERVED = "#"


def from_callable(lat: Lattice, n: int, fn, name: str = "f") -> FnTable:
    """Tabulate a Python callable over all n-tuples."""
    values = tuple(fn(xs) for xs in all_tuples(lat.size, n))
    return FnTable(lat, n, values, name=name)


def projection(lat: Lattice, n: int, i: int) -> FnTable:
    """The i-th n-ary projection (1-based i)."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"projection index {i} outside 1..{n}")
    return from_callable(lat, n, lambda xs: xs[i - 1], name=f"p{i}^{n}")


@per_lattice
def _op_table(lat: Lattice, name: str) -> FnTable:
    """The operation "meet" or "join" of lat as a binary FnTable."""
    rows = lat.meet_table if name == "meet" else lat.join_table
    return FnTable(lat, 2, tuple(v for row in rows for v in row), name=name)


def meet_fn(lat: Lattice) -> FnTable:
    return _op_table(lat, "meet")


def join_fn(lat: Lattice) -> FnTable:
    return _op_table(lat, "join")


def _check_same_lattice(*fns: FnTable):
    lat = fns[0].lattice
    for f in fns[1:]:
        if f.lattice is not lat and f.lattice != lat:
            raise LatticeMismatch("operands live on different lattices")


def compose_values(lookup, gvals) -> tuple[int, ...]:
    """The composition kernel: the outer table's lookup applied cell by cell
    to the tuples of inner values, one inner value vector per argument."""
    return tuple(map(lookup, zip(*gvals)))


def compose(f: FnTable, gs) -> FnTable:
    """f(g_1,...,g_k): outer k-ary f applied to k inner n-ary functions."""
    gs = list(gs)
    _check_same_lattice(f, *gs)
    if len(gs) != f.arity:
        raise ArityMismatch(f"outer arity {f.arity}, got {len(gs)} inner functions")
    n = gs[0].arity
    if any(g.arity != n for g in gs):
        raise ArityMismatch("inner functions must share one arity")
    return FnTable(f.lattice, n, compose_values(f.lookup, [g.values for g in gs]))


def is_monotone(f: FnTable) -> bool:
    """Monotonicity along single-coordinate cover steps; equivalent to the
    pairwise definition since every x <= y decomposes into such steps."""
    leq, values = f.lattice.leq_table, f.values
    return all(
        leq[values[j]][v]
        for v, below in zip(values, _cells(f.lattice, f.arity).below)
        for j in below
    )


def is_boundary(f: FnTable) -> bool:
    lat, values = f.lattice, f.values
    diagonal = _cells(lat, f.arity).diagonal
    return values[diagonal[lat.bottom]] == lat.bottom and values[diagonal[lat.top]] == lat.top


def is_aggregation(f: FnTable) -> bool:
    """Boundary conditions and monotonicity, checked once: f keeps the verdict."""
    if f._aggregation is None:
        _set_aggregation(f, is_boundary(f) and is_monotone(f))
    return f._aggregation


def is_idempotent(f: FnTable) -> bool:
    """f(x,...,x) = x on the whole diagonal."""
    values = f.values
    return all(values[k] == x for x, k in enumerate(_cells(f.lattice, f.arity).diagonal))


def check_idempotent_aggregation(f: FnTable):
    """Raise NotIdempotent unless f is an idempotent aggregation function,
    naming the first diagonal point f moves if there is one."""
    labels, values = f.lattice.labels, f.values
    for x, k in enumerate(_cells(f.lattice, f.arity).diagonal):
        if values[k] != x:
            point = ",".join([labels[x]] * f.arity)
            raise NotIdempotent(f"f({point}) = {labels[values[k]]} != {labels[x]}")
    if not is_aggregation(f):  # idempotency implies the boundary conditions
        raise NotIdempotent("input must be an idempotent aggregation function")


def is_intermediate(f: FnTable) -> bool:
    """meet(x) <= f(x) <= join(x) for every input tuple: no value falls
    outside its cell's allowed-value mask."""
    allowed = _cells(f.lattice, f.arity).allowed
    return not _packer(f.lattice, "point").pack(f.values) & ~allowed


def _cellwise(f: FnTable, g: FnTable, what: str):
    """The pairs of f's and g's values cell by cell, once the two share a
    lattice and an arity."""
    _check_same_lattice(f, g)
    if f.arity != g.arity:
        raise ArityMismatch(f"pointwise {what} needs equal arities")
    return zip(f.values, g.values)


def pointwise_join(f: FnTable, g: FnTable) -> FnTable:
    jt = f.lattice.join_table
    return FnTable(f.lattice, f.arity, tuple(jt[a][b] for a, b in _cellwise(f, g, "join")))


def pointwise_meet(f: FnTable, g: FnTable) -> FnTable:
    mt = f.lattice.meet_table
    return FnTable(f.lattice, f.arity, tuple(mt[a][b] for a, b in _cellwise(f, g, "meet")))


def leq_pointwise(f: FnTable, g: FnTable) -> bool:
    leq = f.lattice.leq_table
    return all(leq[a][b] for a, b in _cellwise(f, g, "comparison"))


CLASSES = ("aggregation", "idempotent", "monotone")


def iter_monotone_values(lat: Lattice, n: int, boundary: bool = False, diagonal: bool = False,
                         interval: bool = False, cell_budget: int = DEFAULT_CELL_BUDGET):
    """An iterator over the value vectors of monotone n-ary functions,
    optionally also satisfying the boundary conditions, a pinned diagonal,
    or confinement of every value to [meet(x), join(x)], in lexicographic
    order.  The budget and size are checked at the call.

    A depth-first walk over rows, kept on an explicit stack of one candidate
    iterator per row.  Row r is the m cells r*m .. r*m+m-1 that differ only
    in the last coordinate.  A cell's candidates are bounded below by the
    join of the values at its lower-cover neighbours (one coordinate one
    cover step down); those cells come earlier, because the index order is a
    linear extension of the product order, and bounding by them suffices for
    the reason is_monotone checks only cover steps.  So a row's candidates
    depend only on the rows one cover step down in the first n-1
    coordinates, its lower rows, and only through their pointwise join, the
    row's base: they are the rows of a cell walk over the row's m cells
    starting from the base.  Each row keeps a memo of those candidates keyed
    by the base (on m3 at arity 2 the last row sees 39 304 tuples of lower
    rows but 15 bases).  The pins and intervals are folded into one table of
    candidates per cell and lower bound, kept with the tail's layout on the
    lattice for each arity and class.

    The last k rows form the tail, the rows before it the prefix.  The
    tail's candidates, the ways to fill it, depend only on its key: for each
    tail row, the join of its lower rows in the prefix.  k is the fewest
    last rows that hold 8 cells (one row when m >= 8), or 1 when every
    prefix row is the only prefix lower row of some tail row, since the
    key then names the whole prefix and never repeats (m2 at arity 2).
    Tails nest: in a walk of the tail the last row is a one-row tail of its
    own, whose key is its base and whose candidates are its row memo; when
    k == 1 the two are one.

    Rows are bytes of m fields, one byte each when m <= 256 and two up to
    65536 (more raises InvalidSize), packed once when a cell walk finds
    them; bases, keys, memos and prefixes are bytes or tuples of bytes.
    The walk makes blocks of whole vectors, read by Struct.iter_unpack: a
    visit to a tail's first row whose candidates are recorded makes one
    block, prefix + prefix.join(candidates), of every vector under its
    prefix; the cell walk of the last row makes one block per row as it
    finds it.  A walk of the tail records the tail's candidates once it is
    exhausted, as a row's cell walk records its memo, which the depth-first
    order guarantees before the key or the base recurs, so a consumer that
    stops early has made the walk find no row beyond the vectors it took,
    and build at most one block beyond them.  enumerate_class appends the
    blocks to one bytearray and keeps it behind a read-only memoryview.

    A walk that runs to its end leaves its row memos and row joins on the
    lattice, per arity and flags; the walk is deterministic, so a later one
    finds every memo and join it looks up.  A walk cut by a count budget or
    dropped by its consumer leaves nothing, so a huge class pins no memo;
    tails stay per walk, as kept they would hold seven times as much."""
    vector, blocks = _walk(lat, n, boundary, diagonal, interval, cell_budget)
    return itertools.chain.from_iterable(map(vector.iter_unpack, blocks))


_TAIL_CELLS = 8

_WalkTables = namedtuple("_WalkTables", "allowed start outer inner")


@per_lattice
def _walk_tables(lat: Lattice, n: int, boundary: bool, diagonal: bool,
                 interval: bool) -> _WalkTables:
    """What the walk reads beside the cell records, per arity and flags.
    allowed[k][lb] is the tuple of cell k's candidates above the lower
    bound lb, with the pins and intervals folded in.  The tail is rows
    start .. m**(n-1) - 1, the fewest last rows that hold _TAIL_CELLS
    cells, or the last row alone when every prefix row is the only prefix
    lower row of some tail row; outer[j] and inner[j] are the lower rows
    of tail row start + j before and from start."""
    m, leq, bottom = lat.size, lat.leq_table, lat.bottom
    record, lower_rows = _cells(lat, n), _cells(lat, n - 1).below
    pinned = range(m) if diagonal else (bottom, lat.top) if boundary else ()
    pins = {record.diagonal[x]: x for x in pinned}
    free = range(m)
    above = [tuple(v for v in free if leq[lb][v]) for lb in free]
    allowed = []
    for k in range(m**n):
        cands = [pins[k]] if k in pins else free
        if interval:
            lo, hi = record.lows[k], record.highs[k]
            cands = [v for v in cands if leq[lo][v] and leq[v][hi]]
        # the candidates above each lower bound, one shared list for free cells
        allowed.append(above if cands is free
                       else [tuple(v for v in cands if leq[lb][v]) for lb in free])
    rows = len(lower_rows)

    def before(start):
        return [[q for q in lower_rows[t] if q < start] for t in range(start, rows)]

    start = max(rows - -(-_TAIL_CELLS // m), 0)
    outer = before(start)
    if {qs[0] for qs in outer if len(qs) == 1}.issuperset(range(start)):
        start = rows - 1
        outer = before(start)
    inner = [[q for q in lower_rows[t] if q >= start] for t in range(start, rows)]
    return _WalkTables(allowed, start, outer, inner)


@per_lattice
def _walk_memos(lat: Lattice, n: int, boundary: bool, diagonal: bool, interval: bool) -> list:
    """[(memos, joins)] of the first walk on this key that ran to its end,
    empty until one has."""
    return []


def _walk(lat: Lattice, n: int, boundary=False, diagonal=False, interval=False,
          cell_budget=DEFAULT_CELL_BUDGET):
    """The struct of one packed value vector and the blocks of the walk
    iter_monotone_values describes; the arguments are checked at once."""
    m = lat.size
    if m > 1 << 16:
        raise InvalidSize(f"rows are packed in at most two-byte fields, so m <= 65536, got {m}")
    cells = m**n
    if cells > cell_budget:
        raise BudgetExceeded(f"{m}^{n} = {cells} cells exceeds the cell budget {cell_budget}")
    code = "B" if m <= 1 << 8 else "H"
    row_struct = struct.Struct(f"={m}{code}")
    pack, unpack = row_struct.pack, row_struct.unpack
    join_t = lat.join_table
    # a row is a cell of L^(n-1), and a cell of a row an element of L
    lower_covers, lower_rows = _cells(lat, 1).below, _cells(lat, n - 1).below
    allowed, start, outer, inner = _walk_tables(lat, n, boundary, diagonal, interval)
    rows = len(lower_rows)
    last = rows - 1
    offset = start * row_struct.size  # where the tail begins in a vector
    bottom_row = pack(*(lat.bottom,) * m)
    # the row memos and the pointwise joins of two rows (the same pairs
    # recur often): those of a walk that ran to its end, or this walk's own
    kept = _walk_memos(lat, n, boundary, diagonal, interval)
    memos, joins = kept[0] if kept else ([{} for _ in range(rows)], {})
    tails = {}  # tail key -> the tail's candidates, each its rows concatenated
    chosen = [None] * rows
    exhausted = iter(())

    def row_walk(r, base):
        """The cell walk over row r from base, range-checking each row it
        packs and recording them all in memos[r][base] once exhausted."""
        allow, lows = allowed[r * m:(r + 1) * m], unpack(base)
        seen = []
        assigned = [0] * m
        candidates = [None] * m
        candidates[0] = iter(allow[0][lows[0]])
        j = 0
        while j >= 0:
            v = next(candidates[j], None)
            if v is None:
                j -= 1
                continue
            assigned[j] = v
            if j == m - 1:
                if min(assigned) < 0 or max(assigned) >= m:
                    raise IndexOutOfRange("value outside element range")
                row = pack(*assigned)
                seen.append(row)
                yield row
                continue
            j += 1
            lb = lows[j]
            for c in lower_covers[j]:
                lb = join_t[lb][assigned[c]]
            candidates[j] = iter(allow[j][lb])
        memos[r][base] = seen

    def join_rows(base, qs):
        """base joined with the chosen rows qs."""
        for q in qs:
            pair = base, chosen[q]
            base = joins.get(pair)
            if base is None:
                base = joins[pair] = pack(*map(getitem, map(join_t.__getitem__, unpack(pair[0])),
                                               unpack(pair[1])))
        return base

    def blocks():
        prefixes = [b""] * rows  # prefixes[r]: rows 0 .. r-1 concatenated
        candidates = [None] * rows
        r = 0
        while True:
            # enter row r: emit the vectors under it if it is the first row
            # of a recorded tail or the last row, else push its candidates
            prefix = prefixes[r]
            found = None
            if r == start:
                keys = []  # a loop: a comprehension is one more call per visit on 3.11
                for qs in outer:
                    keys.append(join_rows(bottom_row, qs))
                keys = tuple(keys)
                found = tails.get(keys)
                if found is None:
                    seen, base = [], keys[0]
            elif r < start:
                base = join_rows(bottom_row, lower_rows[r])
            else:
                base = join_rows(keys[r - start], inner[r - start])
            if found is not None:  # a recorded tail: every vector under the prefix
                if found:
                    yield prefix + prefix.join(found)
                r -= 1
            elif r < last:
                found = memos[r].get(base)
                candidates[r] = row_walk(r, base) if found is None else iter(found)
            else:  # the last row, in a walk of the tail that records its rows
                tail = prefix[offset:]
                found = memos[r].get(base)  # itself a one-row tail, keyed by its base
                if found is None:  # one block per row as the cell walk finds it
                    for row in row_walk(r, base):
                        seen.append(tail + row)
                        yield prefix + row
                elif found:
                    seen += map(tail.__add__, found)
                    yield prefix + prefix.join(found)
                candidates[r] = exhausted  # so the loop below backtracks past it
            # the next row: the next candidate of the deepest row that has one
            while r >= 0:
                row = next(candidates[r], None)
                if row is not None:
                    break
                if r == start:
                    tails[keys] = seen
                r -= 1
            else:
                kept[:] = [(memos, joins)]
                return
            chosen[r] = row
            r += 1
            prefixes[r] = prefixes[r - 1] + row

    return struct.Struct(f"={cells}{code}"), blocks()


_CLASS_FLAGS = {"monotone": {}, "aggregation": {"boundary": True},
                "idempotent": {"boundary": True, "diagonal": True, "interval": True}}


class PackedClass(Sequence):
    """A read-only sequence of n-ary functions on a lattice, kept as one
    buffer, a read-only memoryview of the bytearray the walk filled, that
    holds each member's value vector as m**n fixed-width fields, one byte
    per field when m <= 256.  offsets holds each member's byte offset: a
    range for a whole class.  A member becomes an FnTable only when read.
    Slices, of any step, and selections share the buffer; adding another
    sequence gives a list.  Only enumerate_class builds one, since members
    skip the FnTable checks that its walk has made."""

    __slots__ = ("_lattice", "_arity", "_buffer", "_vector", "_offsets")

    def __init__(self, *args, **kwargs):
        raise TypeError("a PackedClass is built only by enumerate_class")

    @classmethod
    def _trusted(cls, lat: Lattice, n: int, buffer: memoryview, vector: struct.Struct,
                 offsets: Sequence[int]) -> PackedClass:
        packed = object.__new__(cls)
        packed._lattice, packed._arity = lat, n
        packed._buffer, packed._vector, packed._offsets = buffer, vector, offsets
        return packed

    @property
    def lattice(self) -> Lattice:
        return self._lattice

    @property
    def arity(self) -> int:
        return self._arity

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PackedClass._trusted(self._lattice, self._arity, self._buffer,
                                        self._vector, self._offsets[index])
        values = self._vector.unpack_from(self._buffer, self._offsets[index])
        return _member(self._lattice, self._arity, values)

    def __iter__(self):
        repeat = itertools.repeat
        return map(_member, repeat(self._lattice), repeat(self._arity), self.vectors())

    def vectors(self):
        """The members' value vectors in order, without building FnTables."""
        return map(self._vector.unpack_from, itertools.repeat(self._buffer), self._offsets)

    def __add__(self, other) -> list:
        return [*self, *other]

    def _select(self, flags) -> PackedClass:
        """The members whose flag byte is not 0, on one buffer; self if none is 0."""
        return self if 0 not in flags else PackedClass._trusted(
            self._lattice, self._arity, self._buffer, self._vector,
            array("q", itertools.compress(self._offsets, flags) if flags.strip(b"\0") else ()))


def _class_blocks(lat: Lattice, n: int, cls: str, cell_budget: int, count_budget: int):
    """The struct of one member's packed vector and the class's blocks, which
    raise BudgetExceeded at the first block past count_budget members."""
    if cls not in CLASSES:
        raise InvalidArgument(f"unknown class {cls!r}; expected one of {CLASSES}")
    if n < 1:
        raise ArityMismatch(f"arity must be >= 1, got {n}")
    for label, budget in (("cell", cell_budget), ("count", count_budget)):
        if budget < 0:
            raise InvalidArgument(f"{label} budget must be >= 0, got {budget}")
    vector, blocks = _walk(lat, n, cell_budget=cell_budget, **_CLASS_FLAGS[cls])

    def budgeted(room=count_budget * vector.size):
        for block in blocks:
            room -= len(block)
            if room < 0:
                raise BudgetExceeded(f"class size exceeds the count budget {count_budget}")
            yield block

    return vector, budgeted()


def enumerate_class(lat: Lattice, n: int, cls: str, cell_budget: int = DEFAULT_CELL_BUDGET,
                    count_budget: int = DEFAULT_COUNT_BUDGET) -> PackedClass:
    """All n-ary functions of the given class, in lexicographic order of
    value vectors, as one packed buffer.  For the idempotent class the
    diagonal is pinned and candidates confined to [meet(x), join(x)].
    The result compares by identity; list() of it gives a list.

    The buffer is the walk's blocks appended to one bytearray, kept
    without a copy behind a read-only memoryview, so members skip the
    FnTable constructor's checks: the walk range-checks every row it
    packs, and every block is whole vectors of m**n fields."""
    vector, blocks = _class_blocks(lat, n, cls, cell_budget, count_budget)
    buffer = bytearray()
    for block in blocks:
        buffer += block
    return PackedClass._trusted(lat, n, memoryview(buffer).toreadonly(), vector,
                                range(0, len(buffer), vector.size))


def count_class(lat: Lattice, n: int, cls: str, cell_budget: int = DEFAULT_CELL_BUDGET,
                count_budget: int = DEFAULT_COUNT_BUDGET) -> int:
    """len(enumerate_class(...)) with the same checks and budgets, counted
    from the walk's blocks without keeping them."""
    vector, blocks = _class_blocks(lat, n, cls, cell_budget, count_budget)
    return sum(map(len, blocks)) // vector.size


def parse_function(text: str, lat: Lattice) -> FnTable:
    """Parse the function-table file format against a known lattice."""
    header = None
    rows: dict[tuple[int, ...], int] = {}
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError("content after 'end'", lineno)
        if header is None:
            fields = line.split()
            if len(fields) != 6 or fields[::2] != ["function", "arity", "lattice"]:
                expected = "'function <name> arity <n> lattice <lattice-name>'"
                raise ParseError(f"expected {expected}", lineno)
            try:
                arity = int(fields[3])
            except ValueError:
                raise ParseError(f"bad arity {fields[3]!r}", lineno)
            if arity < 1:
                raise ParseError(f"arity must be >= 1, got {arity}", lineno)
            if fields[5] != lat.name:
                raise ParseError(f"function is on lattice {fields[5]!r}, "
                                 f"expected {lat.name!r}", lineno)
            header = (fields[1], arity, lineno)
            continue
        if line == "end":
            ended = True
            continue
        if "->" not in line:
            raise ParseError("expected '<labels> -> <label>'", lineno)
        lhs, _, rhs = line.partition("->")
        in_labels = lhs.split()
        out_labels = rhs.split()
        if len(in_labels) != header[1] or len(out_labels) != 1:
            raise ParseError(f"expected {header[1]} input labels and one output label", lineno)
        try:
            xs = tuple(lat.index(lab) for lab in in_labels)
            v = lat.index(out_labels[0])
        except KeyError as exc:
            raise ParseError(str(exc), lineno)
        if xs in rows:
            raise ParseError(f"duplicate tuple ({' '.join(in_labels)})", lineno)
        rows[xs] = v
    if header is None:
        raise ParseError("missing function header")
    if not ended:
        raise ParseError("missing 'end' directive")
    name, arity, header_line = header
    missing = [xs for xs in all_tuples(lat.size, arity) if xs not in rows]
    if missing:
        labs = " ".join(lat.labels[x] for x in missing[0])
        raise ParseError(f"missing tuple ({labs})")
    values = tuple(rows[xs] for xs in all_tuples(lat.size, arity))
    try:
        return FnTable(lat, arity, values, name=name)
    except InvalidArgument as exc:  # the name: the rows have been checked
        raise ParseError(str(exc), header_line)


def format_function(f: FnTable) -> str:
    labels = f.lattice.labels
    rows = (" ".join(map(labels.__getitem__, xs)) + " -> " + labels[v]
            for xs, v in zip(f.tuples(), f.values))
    return "\n".join([f"function {f.name} arity {f.arity} lattice {f.lattice.name}", *rows,
                      "end"]) + "\n"
