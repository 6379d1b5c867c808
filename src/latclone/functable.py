"""Total n-ary functions on a lattice stored as value vectors.

A function table holds one value per input tuple.  Tuples are indexed
big-endian mixed radix: index(x) = sum of x_i * m^(n-i), i.e. the first
component is the most significant digit.  Lexicographic tuple order thus
coincides with index order, and (by the linear-extension indexing of the
lattice) linearly extends the product order on L^n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    IndexOutOfRange,
    InvalidArgument,
    LatticeMismatch,
    ParseError,
)
from .lattice import Lattice

DEFAULT_CELL_BUDGET = 64
DEFAULT_COUNT_BUDGET = 10**7


@lru_cache(maxsize=None)
def all_tuples(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All n-tuples over 0..m-1 in lexicographic (= index) order."""
    return tuple(itertools.product(range(m), repeat=n))


def tuple_index(m: int, xs) -> int:
    idx = 0
    for x in xs:
        idx = idx * m + x
    return idx


@dataclass(frozen=True)
class FnTable:
    """Total n-ary function on a lattice, one value per input tuple."""

    lattice: Lattice
    arity: int
    values: tuple[int, ...]
    name: str = field(default="f", compare=False)

    def __post_init__(self):
        m = self.lattice.size
        if self.arity < 1:
            raise ArityMismatch(f"arity must be >= 1, got {self.arity}")
        if len(self.values) != m**self.arity:
            raise ArityMismatch(
                f"value vector has {len(self.values)} entries, expected {m**self.arity}"
            )
        if min(self.values) < 0 or max(self.values) >= m:
            raise IndexOutOfRange("value outside element range")

    def __call__(self, xs) -> int:
        if len(xs) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(xs)}")
        return self.values[tuple_index(self.lattice.size, xs)]

    @cached_property
    def lookup(self):
        """Bound dict lookup from argument tuples to values (built once)."""
        return dict(zip(self.tuples(), self.values)).__getitem__

    def key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical encoding for set membership and deduplication."""
        return (self.arity, self.values)

    def tuples(self):
        return all_tuples(self.lattice.size, self.arity)

    def renamed(self, name: str) -> "FnTable":
        return FnTable(self.lattice, self.arity, self.values, name=name)


def from_callable(lat: Lattice, n: int, fn, name: str = "f") -> FnTable:
    """Tabulate a Python callable over all n-tuples."""
    values = tuple(fn(xs) for xs in all_tuples(lat.size, n))
    return FnTable(lat, n, values, name=name)


def projection(lat: Lattice, n: int, i: int) -> FnTable:
    """The i-th n-ary projection (1-based i)."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"projection index {i} outside 1..{n}")
    return from_callable(lat, n, lambda xs: xs[i - 1], name=f"p{i}^{n}")


def _op_table(lat: Lattice, name: str, rows) -> FnTable:
    """A binary operation table as an FnTable, built once per lattice."""
    cache = lat.__dict__.setdefault("_op_table_cache", {})
    if name not in cache:
        cache[name] = FnTable(lat, 2, tuple(v for row in rows for v in row), name=name)
    return cache[name]


def meet_fn(lat: Lattice) -> FnTable:
    return _op_table(lat, "meet", lat.meet_table)


def join_fn(lat: Lattice) -> FnTable:
    return _op_table(lat, "join", lat.join_table)


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
    lat, values = f.lattice, f.values
    m, n = lat.size, f.arity
    leq = lat.leq_table
    strides = [m ** (n - 1 - i) for i in range(n)]
    for k, xs in enumerate(f.tuples()):
        fx = values[k]
        for i in range(n):
            stride = strides[i]
            xi = xs[i]
            for c in lat.upper_covers(xi):
                if not leq[fx][values[k + (c - xi) * stride]]:
                    return False
    return True


def is_boundary(f: FnTable) -> bool:
    lat = f.lattice
    bottoms = (lat.bottom,) * f.arity
    tops = (lat.top,) * f.arity
    return f(bottoms) == lat.bottom and f(tops) == lat.top


def is_aggregation(f: FnTable) -> bool:
    return is_boundary(f) and is_monotone(f)


def is_idempotent(f: FnTable) -> bool:
    """f(x,...,x) = x on the whole diagonal."""
    return all(f((x,) * f.arity) == x for x in range(f.lattice.size))


def is_intermediate(f: FnTable) -> bool:
    """meet(x) <= f(x) <= join(x) for every input tuple."""
    lat = f.lattice
    leq = lat.leq_table
    for xs, v in zip(f.tuples(), f.values):
        if not (leq[lat.meet_all(xs)][v] and leq[v][lat.join_all(xs)]):
            return False
    return True


def pointwise_join(f: FnTable, g: FnTable) -> FnTable:
    _check_same_lattice(f, g)
    if f.arity != g.arity:
        raise ArityMismatch("pointwise join needs equal arities")
    jt = f.lattice.join_table
    return FnTable(f.lattice, f.arity, tuple(jt[a][b] for a, b in zip(f.values, g.values)))


def pointwise_meet(f: FnTable, g: FnTable) -> FnTable:
    _check_same_lattice(f, g)
    if f.arity != g.arity:
        raise ArityMismatch("pointwise meet needs equal arities")
    mt = f.lattice.meet_table
    return FnTable(f.lattice, f.arity, tuple(mt[a][b] for a, b in zip(f.values, g.values)))


def leq_pointwise(f: FnTable, g: FnTable) -> bool:
    _check_same_lattice(f, g)
    if f.arity != g.arity:
        raise ArityMismatch("pointwise comparison needs equal arities")
    leq = f.lattice.leq_table
    return all(leq[a][b] for a, b in zip(f.values, g.values))


CLASSES = ("aggregation", "idempotent", "monotone")


def iter_monotone_values(
    lat: Lattice,
    n: int,
    boundary: bool = False,
    diagonal: bool = False,
    interval: bool = False,
    cell_budget: int = DEFAULT_CELL_BUDGET,
):
    """Yield value vectors of monotone n-ary functions, optionally also
    satisfying the boundary conditions, a pinned diagonal, or confinement of
    every value to [meet(x), join(x)].

    A depth-first walk over the cells in lexicographic order, kept on an
    explicit stack of one candidate iterator per cell.  A cell's candidates
    are bounded below by the join of the values at its lower-cover
    neighbours (one coordinate one cover step down).  Those cells come
    earlier, because the index order is a linear extension of the product
    order, and bounding by them suffices for the reason is_monotone checks
    only cover steps.  The pins and intervals are folded into one table of
    candidates per cell and lower bound.  Vectors come out in lexicographic
    order.
    """
    m = lat.size
    cells = m**n
    if cells > cell_budget:
        raise BudgetExceeded(
            f"{m}^{n} = {cells} cells exceeds the cell budget {cell_budget}"
        )
    leq, join_t, bottom = lat.leq_table, lat.join_table, lat.bottom
    lower_covers: list[list[int]] = [[] for _ in range(m)]
    for x in range(m):
        for c in lat.upper_covers(x):
            lower_covers[c].append(x)
    strides = [m ** (n - 1 - i) for i in range(n)]
    pins = {}
    if boundary:
        pins[0], pins[cells - 1] = bottom, lat.top
    if diagonal:
        pins.update((tuple_index(m, (x,) * n), x) for x in range(m))
    neighbours, allowed = [], []
    for k, xs in enumerate(all_tuples(m, n)):
        neighbours.append(tuple(
            k - (x - c) * stride
            for x, stride in zip(xs, strides)
            for c in lower_covers[x]
        ))
        cands = [pins[k]] if k in pins else range(m)
        if interval:
            lo, hi = lat.meet_all(xs), lat.join_all(xs)
            cands = [v for v in cands if leq[lo][v] and leq[v][hi]]
        allowed.append([tuple(v for v in cands if leq[lb][v]) for lb in range(m)])

    assigned = [0] * cells
    candidates = [None] * cells
    candidates[0] = iter(allowed[0][bottom])
    last, k = cells - 1, 0
    while k >= 0:
        v = next(candidates[k], None)
        if v is None:
            k -= 1
            continue
        assigned[k] = v
        if k == last:
            yield tuple(assigned)
            continue
        k += 1
        lb = bottom
        for j in neighbours[k]:
            lb = join_t[lb][assigned[j]]
        candidates[k] = iter(allowed[k][lb])


_CLASS_FLAGS = {
    "monotone": {},
    "aggregation": {"boundary": True},
    "idempotent": {"boundary": True, "diagonal": True, "interval": True},
}


def enumerate_class(
    lat: Lattice,
    n: int,
    cls: str,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    count_budget: int = DEFAULT_COUNT_BUDGET,
) -> list[FnTable]:
    """All n-ary functions of the given class, in lexicographic order of
    value vectors.  For the idempotent class the diagonal is pinned and
    candidates confined to [meet(x), join(x)]."""
    if cls not in CLASSES:
        raise InvalidArgument(f"unknown class {cls!r}; expected one of {CLASSES}")
    if n < 1:
        raise ArityMismatch(f"arity must be >= 1, got {n}")
    out: list[FnTable] = []
    for values in iter_monotone_values(
        lat, n, cell_budget=cell_budget, **_CLASS_FLAGS[cls]
    ):
        if len(out) >= count_budget:
            raise BudgetExceeded(
                f"class size exceeds the count budget {count_budget}"
            )
        out.append(FnTable(lat, n, values))
    return out


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
            if (
                len(fields) != 6
                or fields[0] != "function"
                or fields[2] != "arity"
                or fields[4] != "lattice"
            ):
                raise ParseError(
                    "expected 'function <name> arity <n> lattice <lattice-name>'",
                    lineno,
                )
            try:
                arity = int(fields[3])
            except ValueError:
                raise ParseError(f"bad arity {fields[3]!r}", lineno)
            if arity < 1:
                raise ParseError(f"arity must be >= 1, got {arity}", lineno)
            if fields[5] != lat.name:
                raise ParseError(
                    f"function is on lattice {fields[5]!r}, expected {lat.name!r}",
                    lineno,
                )
            header = (fields[1], arity)
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
            raise ParseError(
                f"expected {header[1]} input labels and one output label", lineno
            )
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
    name, arity = header
    missing = [xs for xs in all_tuples(lat.size, arity) if xs not in rows]
    if missing:
        labs = " ".join(lat.labels[x] for x in missing[0])
        raise ParseError(f"missing tuple ({labs})")
    values = tuple(rows[xs] for xs in all_tuples(lat.size, arity))
    return FnTable(lat, arity, values, name=name)


def format_function(f: FnTable) -> str:
    lat = f.lattice
    lines = [f"function {f.name} arity {f.arity} lattice {lat.name}"]
    for xs, v in zip(f.tuples(), f.values):
        lines.append(" ".join(lat.labels[x] for x in xs) + " -> " + lat.labels[v])
    lines.append("end")
    return "\n".join(lines) + "\n"
