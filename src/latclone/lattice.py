"""Finite bounded lattices: construction, validation, builtin families, file I/O.

Elements are integer indices 0..m-1.  Construction re-indexes the elements
into a linear extension of the order, so i < j as integers whenever element
i is strictly below element j.  Lexicographic iteration over tuples then
linearly extends the product order, which the enumeration code relies on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from functools import cached_property, wraps

from .errors import (
    ArityMismatch,
    EmptyTuple,
    InvalidArgument,
    InvalidSize,
    NotALattice,
    NotAPartialOrder,
    ParseError,
)


@dataclass(frozen=True)
class Lattice:
    """Immutable finite bounded lattice with precomputed meet/join tables."""

    name: str
    labels: tuple[str, ...]
    leq_table: tuple[tuple[bool, ...], ...] = field(repr=False)
    meet_table: tuple[tuple[int, ...], ...] = field(repr=False)
    join_table: tuple[tuple[int, ...], ...] = field(repr=False)
    bottom: int = field(repr=False, default=0)
    top: int = field(repr=False, default=0)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index_map[label]
        except KeyError:
            raise KeyError(f"unknown element label {label!r} in lattice {self.name!r}")

    @cached_property
    def _index_map(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def leq(self, x: int, y: int) -> bool:
        return self.leq_table[x][y]

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def meet_all(self, xs) -> int:
        """Meet of a nonempty tuple of elements (fold of the binary meet)."""
        return _fold(self.meet_table, xs, "meet_all")

    def join_all(self, xs) -> int:
        """Join of a nonempty tuple of elements (fold of the binary join)."""
        return _fold(self.join_table, xs, "join_all")

    def leq_tuple(self, xs, ys) -> bool:
        """Component-wise order on tuples of equal arity."""
        if len(xs) != len(ys):
            raise ArityMismatch(f"tuple arities differ: {len(xs)} vs {len(ys)}")
        leq = self.leq_table
        return all(leq[x][y] for x, y in zip(xs, ys))

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """Bit y of down_masks[x] is set iff y <= x, so that x <= y exactly
        when down_masks[x] & ~down_masks[y] == 0.  Built on first use."""
        leq, m = self.leq_table, self.size
        return tuple(sum(1 << y for y in range(m) if leq[y][x]) for x in range(m))

    @cached_property
    def _covers(self) -> tuple[tuple[int, ...], ...]:
        leq, m = self.leq_table, self.size
        aboves = [[y for y in range(m) if y != v and leq[v][y]] for v in range(m)]
        return tuple(tuple(y for y in above if not any(z != y and leq[z][y] for z in above))
                     for above in aboves)

    def upper_covers(self, x: int) -> tuple[int, ...]:
        """Elements covering x (immediately above it)."""
        return self._covers[x]

    @cached_property
    def _memo(self) -> dict:
        """builder -> {positional arguments -> value} for the builders
        wrapped by per_lattice."""
        return {}

    def __getstate__(self) -> dict:
        """The fields alone: pickles and copies carry no derived value."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _fold(table, xs, what: str) -> int:
    """The fold of an operation table over a nonempty tuple of elements."""
    it = iter(xs)
    try:
        acc = next(it)
    except StopIteration:
        raise EmptyTuple(f"{what} of empty tuple")
    for x in it:
        acc = table[acc][x]
    return acc


def per_lattice(build):
    """Wrap build(lat, *args) so that its value is built once per lattice
    instance and positional arguments, and kept for the life of the
    instance; a call that raises keeps nothing.  Equal lattices share no
    entry."""

    def cached(lat: Lattice, *args):
        try:
            return lat._memo[build][args]
        except KeyError:
            pass
        value = lat._memo.setdefault(build, {})[args] = build(lat, *args)
        return value

    return wraps(build)(cached)


def _linear_extension(m: int, succs: list[set[int]]) -> list[int]:
    """Topological order of 0..m-1 (smallest original index first).

    Raises NotAPartialOrder on a cycle.
    """
    indeg = [0] * m
    for lo in range(m):
        for hi in succs[lo]:
            indeg[hi] += 1
    heap = [v for v in range(m) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != m:
        raise NotAPartialOrder("cover relation contains a cycle")
    return order


# Characters that delimit labels in the file formats: ',' ';' '[' ']' in
# generator specs, '(' ')' in terms and '#' starting a comment; '->'
# separates a function row's inputs from its output.
LABEL_RESERVED = ",;[]()#"


def check_label(what: str, label: str, reserved: str = LABEL_RESERVED) -> None:
    """Raise InvalidArgument unless label is a nonempty string and holds
    no whitespace, no '->' and none of the reserved characters."""
    if (not isinstance(label, str) or not label
            or any(ch.isspace() or ch in reserved for ch in label) or "->" in label):
        raise InvalidArgument(
            f"bad {what} {label!r}: it must be nonempty, without "
            f"whitespace, '->' or any of {' '.join(reserved)}"
        )


def from_covers(labels, covers, name: str = "lattice") -> Lattice:
    """Build a lattice from element labels and covering pairs (lower, upper).

    The order is the reflexive-transitive closure of the covers.  Duplicate
    and transitively implied covers are accepted.  Elements are re-indexed
    into a linear extension.  The name and every label are nonempty and
    hold no whitespace, no '->' and none of the LABEL_RESERVED characters,
    so that every file format parses back what it prints.
    """
    labels = list(labels)
    check_label("lattice name", name)
    if len(set(labels)) != len(labels):
        raise InvalidArgument("element labels must be distinct")
    for lab in labels:
        check_label("element label", lab)
    m = len(labels)
    if m < 1:
        raise InvalidArgument("lattice needs at least one element")
    pos = {lab: i for i, lab in enumerate(labels)}
    succs: list[set[int]] = [set() for _ in range(m)]
    for lo, hi in covers:
        if lo not in pos or hi not in pos:
            raise InvalidArgument(f"cover ({lo!r}, {hi!r}) references unknown label")
        if lo == hi:
            raise NotAPartialOrder(f"self-cover on {lo!r}")
        succs[pos[lo]].add(pos[hi])

    order = _linear_extension(m, succs)
    rank = [0] * m
    for new_i, old_i in enumerate(order):
        rank[old_i] = new_i
    new_labels = tuple(labels[old_i] for old_i in order)
    new_succs: list[set[int]] = [set() for _ in range(m)]
    for lo in range(m):
        for hi in succs[lo]:
            new_succs[rank[lo]].add(rank[hi])

    # reflexive-transitive closure as bit masks, bit y of up[x] set iff
    # x <= y; processed in reverse topological order
    up = [0] * m
    for v in range(m - 1, -1, -1):
        for w in new_succs[v]:
            up[v] |= up[w]
        up[v] |= 1 << v
    leq = tuple(tuple(bool(up[x] >> y & 1) for y in range(m)) for x in range(m))
    down = [sum(1 << x for x in range(m) if leq[x][y]) for y in range(m)]

    # the join of x and y is the element whose up-set is the elements above
    # both, if there is one, and the meet dually
    by_up = {mask: z for z, mask in enumerate(up)}
    by_down = {mask: z for z, mask in enumerate(down)}
    meet_rows, join_rows = [], []
    for x in range(m):
        meet_row, join_row = [], []
        for y in range(m):
            lub = by_up.get(up[x] & up[y])
            if lub is None:
                raise NotALattice(
                    f"join({new_labels[x]},{new_labels[y]}) undefined"
                )
            glb = by_down.get(down[x] & down[y])
            if glb is None:
                raise NotALattice(
                    f"meet({new_labels[x]},{new_labels[y]}) undefined"
                )
            meet_row.append(glb)
            join_row.append(lub)
        meet_rows.append(tuple(meet_row))
        join_rows.append(tuple(join_row))

    # every meet and join exists, so the unique minimal element comes first
    # in the linear extension and the unique maximal one last
    return Lattice(
        name=name,
        labels=new_labels,
        leq_table=leq,
        meet_table=tuple(meet_rows),
        join_table=tuple(join_rows),
        bottom=0,
        top=m - 1,
    )


def chain(n: int) -> Lattice:
    """The n-element chain 0 < 1 < ... < n-1; meet=min, join=max."""
    if n < 2:
        raise InvalidSize(f"chain needs n >= 2, got {n}")
    labels = [str(i) for i in range(n)]
    covers = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return from_covers(labels, covers, name=f"chain{n}")


def m_lattice(k: int) -> Lattice:
    """M_k: bottom, top and k pairwise-incomparable atoms (size k+2)."""
    if k < 1:
        raise InvalidSize(f"m_lattice needs k >= 1, got {k}")
    atoms = [f"a{i}" for i in range(1, k + 1)]
    labels = ["0", *atoms, "1"]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return from_covers(labels, covers, name=f"m{k}")


def n5() -> Lattice:
    """The pentagon: 0 < a < b < 1 with c incomparable to both a and b."""
    return from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
        name="n5",
    )


def boolean(k: int) -> Lattice:
    """Boolean lattice 2^k, elements labeled as k-bit strings."""
    if k < 1:
        raise InvalidSize(f"boolean needs k >= 1, got {k}")
    labels = [format(s, f"0{k}b") for s in range(1 << k)]
    covers = []
    for s in range(1 << k):
        for bit in range(k):
            if not s & (1 << bit):
                covers.append((labels[s], labels[s | (1 << bit)]))
    return from_covers(labels, covers, name=f"boolean{k}")


def parse_lattice(text: str) -> Lattice:
    """Parse the line-oriented lattice file format."""
    name = None
    labels: list[str] | None = None
    covers: list[tuple[str, str]] = []
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError("content after 'end'", lineno)
        fields = line.split()
        directive = fields[0]
        if directive == "lattice":
            if name is not None:
                raise ParseError("duplicate 'lattice' directive", lineno)
            if len(fields) != 2:
                raise ParseError("'lattice' takes exactly one name", lineno)
            name = fields[1]
        elif directive == "elements":
            if labels is not None:
                raise ParseError("duplicate 'elements' directive", lineno)
            if len(fields) < 2:
                raise ParseError("'elements' needs at least one label", lineno)
            labels = fields[1:]
        elif directive == "cover":
            if len(fields) != 3:
                raise ParseError("'cover' takes exactly two labels", lineno)
            covers.append((fields[1], fields[2]))
        elif directive == "end":
            ended = True
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)
    if name is None:
        raise ParseError("missing 'lattice' directive")
    if labels is None:
        raise ParseError("missing 'elements' directive")
    if not ended:
        raise ParseError("missing 'end' directive")
    try:
        return from_covers(labels, covers, name=name)
    except ValueError as exc:
        raise ParseError(str(exc))


def format_lattice(lat: Lattice) -> str:
    """Serialize a lattice to the file format (covers from the Hasse diagram)."""
    lines = [f"lattice {lat.name}", "elements " + " ".join(lat.labels)]
    for x in range(lat.size):
        for y in lat.upper_covers(x):
            lines.append(f"cover {lat.labels[x]} {lat.labels[y]}")
    lines.append("end")
    return "\n".join(lines) + "\n"
