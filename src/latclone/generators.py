"""Generator families for the idempotent and full aggregation clones.

Four kinds of generators, each identified by a GeneratorSpec:

  chi[a1,...,an;b]  -- n-ary: b meet join(x) below the threshold tuple a,
                       plain join(x) elsewhere.
  iota[a,b,c;d]     -- ternary chi with threshold (a,b,c); the workhorse of
                       the decomposition of idempotent functions.
  mu[a]             -- unary: collapses the interval below a (minus top) to
                       bottom, everything else to top.
  oplus[a]          -- binary: top on (top,top), bottom on (bottom,bottom),
                       the constant a elsewhere.

Specs carry element *labels* so that terms can be printed and re-parsed
without a lattice in hand.  A spec's table resolves them against its lattice
and is built in closed form from the cell record of L^n (functable._cells);
evaluating a spec reads that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .errors import (
    ArityMismatch,
    EmptyAgreementSet,
    InvalidArgument,
    InvalidSize,
    InvalidSpec,
    NotAggregation,
    PreconditionViolated,
)
from .functable import (
    FnTable,
    PackedClass,
    _cells,
    _check_same_lattice,
    _member,
    _packer,
    check_idempotent_aggregation,
    is_aggregation,
    tuple_index,
)
from .lattice import Lattice, check_label, per_lattice

KINDS = ("chi", "iota", "mu", "oplus")
_FIXED_ARITY = {"iota": 3, "mu": 1, "oplus": 2}


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator instance: kind plus its element-label parameters.

    bound holds the threshold labels (chi: the tuple a; iota: (a,b,c);
    mu/oplus: the single parameter), target the output parameter (chi: b;
    iota: d; mu/oplus: None).
    """

    kind: str
    bound: tuple[str, ...]
    target: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown generator kind {self.kind!r}")
        if self.kind in ("mu", "oplus"):
            if len(self.bound) != 1 or self.target is not None:
                raise InvalidSpec(f"{self.kind} takes exactly one parameter")
        else:
            if self.target is None:
                raise InvalidSpec(f"{self.kind} needs a target parameter")
            if self.kind == "iota" and len(self.bound) != 3:
                raise InvalidSpec("iota takes three threshold parameters")
            if self.kind == "chi" and len(self.bound) < 1:
                raise InvalidSpec("chi needs a nonempty threshold tuple")
        # labels obey the lattice's label grammar, so printed terms parse back
        for label in self.bound if self.target is None else (*self.bound, self.target):
            try:
                check_label("generator label", label)
            except InvalidArgument as exc:
                raise InvalidSpec(str(exc)) from None

    @property
    def arity(self) -> int:
        return _FIXED_ARITY.get(self.kind, len(self.bound))

    def format(self) -> str:
        inner = ",".join(self.bound)
        if self.target is not None:
            inner += ";" + self.target
        return f"{self.kind}[{inner}]"

    def resolve(self, lat: Lattice) -> tuple[tuple[int, ...], int | None]:
        """Map the label parameters to element indices of lat."""
        try:
            bound = tuple(lat.index(lab) for lab in self.bound)
            target = None if self.target is None else lat.index(self.target)
        except KeyError as exc:
            raise InvalidSpec(str(exc))
        return bound, target

    def _arity_error(self, got: int) -> InvalidSpec:
        return InvalidSpec(f"{self.format()} takes {self.arity} arguments, got {got}")

    def apply(self, lat: Lattice, args) -> int:
        """The generator's value at the element indices args, from its table."""
        table = self.table(lat)
        try:
            return table(args)
        except ArityMismatch:
            raise self._arity_error(len(args)) from None

    def table(self, lat: Lattice) -> FnTable:
        """The generator's table on lat in closed form: a chi or iota cell
        holds the join of its tuple, met with the target on the cells below
        the threshold."""
        return _spec_table(lat, self)


@per_lattice
def _spec_table(lat: Lattice, spec: GeneratorSpec) -> FnTable:
    bound, target = spec.resolve(lat)
    m, bottom, top = lat.size, lat.bottom, lat.top
    if spec.kind in ("chi", "iota"):
        values = list(_cells(lat, spec.arity).highs)
        for k in _cells_below(lat, bound):
            values[k] = lat.meet_table[target][values[k]]
    elif spec.kind == "mu":
        values = [bottom if lat.leq(x, bound[0]) and x != top else top for x in range(m)]
    else:  # oplus; the cell of (x, x) is x*(m+1)
        values = [bound[0]] * (m * m)
        values[bottom * (m + 1)], values[top * (m + 1)] = bottom, top
    return FnTable(lat, spec.arity, tuple(values), name=spec.format())


def _cells_below(lat: Lattice, a) -> list[int]:
    """The cells of L^n whose tuple lies below the n-tuple a, in cell order;
    as in functable._cells, cell r*m + x extends cell r by x."""
    m, leq = lat.size, lat.leq_table
    cells = [0]
    for ceiling in a:
        downs = [x for x in range(m) if leq[x][ceiling]]
        cells = [r * m + x for r in cells for x in downs]
    return cells


def parse_spec(token: str) -> GeneratorSpec:
    """Parse the textual form, e.g. 'iota[0,1,2;1]' or 'mu[a]'."""
    if not token.endswith("]") or "[" not in token:
        raise InvalidSpec(f"malformed generator spec {token!r}")
    kind, _, inner = token[:-1].partition("[")
    if kind not in KINDS:
        raise InvalidSpec(f"unknown generator kind {kind!r}")
    target = None
    if ";" in inner:
        inner, _, target = inner.rpartition(";")
    bound = tuple(inner.split(","))
    if "" in bound or target == "":
        raise InvalidSpec(f"malformed generator spec {token!r}")
    return GeneratorSpec(kind, bound, target)


def chi_spec(lat: Lattice, a, b: int) -> GeneratorSpec:
    return GeneratorSpec(
        "chi", tuple(lat.labels[x] for x in a), lat.labels[b]
    )


def iota_spec(lat: Lattice, a: int, b: int, c: int, d: int) -> GeneratorSpec:
    return GeneratorSpec(
        "iota",
        (lat.labels[a], lat.labels[b], lat.labels[c]),
        lat.labels[d],
    )


def mu_spec(lat: Lattice, a: int) -> GeneratorSpec:
    return GeneratorSpec("mu", (lat.labels[a],))


def oplus_spec(lat: Lattice, a: int) -> GeneratorSpec:
    return GeneratorSpec("oplus", (lat.labels[a],))


def make_chi_unchecked(lat: Lattice, a, b: int) -> FnTable:
    """chi table without the idempotency hypothesis; for negative tests."""
    return chi_spec(lat, tuple(a), b).table(lat)


def make_chi(lat: Lattice, a, b: int) -> FnTable:
    """chi_{a,b}; requires meet(a) <= b, which makes it idempotent."""
    a = tuple(a)
    if not lat.leq(lat.meet_all(a), b):
        raise PreconditionViolated(
            f"meet of threshold tuple is not below {lat.labels[b]}"
        )
    return make_chi_unchecked(lat, a, b)


def _check_iota(lat: Lattice, a: int, b: int, c: int, d: int) -> None:
    if not (lat.leq(a, b) and lat.leq(b, c) and lat.leq(a, d) and lat.leq(d, c)):
        raise PreconditionViolated(
            "iota parameters must satisfy a <= b <= c and a <= d <= c"
        )


def make_iota(lat: Lattice, a: int, b: int, c: int, d: int) -> FnTable:
    """Ternary iota_{(a,b,c),d}; requires a <= b <= c and a <= d <= c."""
    _check_iota(lat, a, b, c, d)
    return iota_spec(lat, a, b, c, d).table(lat)


def make_mu(lat: Lattice, a: int) -> FnTable:
    return mu_spec(lat, a).table(lat)


def make_oplus(lat: Lattice, a: int) -> FnTable:
    return oplus_spec(lat, a).table(lat)


def h_majorant(pool, f: FnTable, a) -> FnTable:
    """Join of all pool members agreeing with f at a.

    With pool a composition-closed class containing f, this is the largest
    class member taking the value f(a) at a.
    """
    packed = isinstance(pool, PackedClass)  # one lattice and arity for every member
    members = pool[:1] if packed else list(pool)
    _check_same_lattice(f, *members)
    if any(g.arity != f.arity for g in members):
        raise ArityMismatch(f"pool members must have the arity {f.arity} of f")
    fa, k, up = f(a), tuple_index(f.lattice.size, a), _packer(f.lattice, "up")
    vectors = pool.vectors() if packed else (g.values for g in members)
    agreeing = [vs for vs in vectors if vs[k] == fa]
    if not agreeing:
        raise EmptyAgreementSet(f"no pool member takes value {fa} at {a}")
    # up(x join y) = up(x) & up(y): the join is the and of the up-set masks
    return FnTable(f.lattice, f.arity,
                   up.unpack(reduce(and_, map(up.pack, agreeing)), len(f.values)))


def h_id(f: FnTable, a) -> FnTable:
    """Largest idempotent aggregation function agreeing with f at a.

    Closed form: equals chi_{a, f(a)}; f must be an idempotent aggregation
    function.
    """
    check_idempotent_aggregation(f)
    return make_chi(f.lattice, a, f(a))


def h_agg(f: FnTable, a) -> FnTable:
    """Largest aggregation function agreeing with f at a: f(a) on the cells
    below a, top elsewhere, and bottom at the all-bottom cell."""
    if not is_aggregation(f):
        raise NotAggregation("h_agg needs an aggregation function")
    a = tuple(a)
    # f(a) refuses a point of another arity or outside the lattice
    return _h_agg_table(f.lattice, f.arity, a, f(a))


@per_lattice
def _h_agg_table(lat: Lattice, n: int, a: tuple[int, ...], fa: int) -> FnTable:
    """h_agg's result for every f of arity n with f(a) = fa."""
    values = [lat.top] * lat.size**n
    for c in _cells_below(lat, a):
        values[c] = fa
    values[_cells(lat, n).diagonal[lat.bottom]] = lat.bottom
    return _member(lat, n, tuple(values))


def reduce_iota_pair(lat: Lattice, a: int, b: int, c: int, d: int):
    """Split iota_{(a,b,c),d} into two top-threshold specs.

    On comparable triples x1 <= x2 <= x3,
    iota_{(a,b,c),d}(x1,x2,x3) = iota_{(a,b,1),d}(x1,x2,x3)
                                 join iota_{(a,c,1),d}(x1,x3,x3).
    Returns the two specs; the caller wires the argument pattern.
    """
    _check_iota(lat, a, b, c, d)
    return (
        iota_spec(lat, a, b, lat.top, d),
        iota_spec(lat, a, c, lat.top, d),
    )


def reduced_generator_set(lat: Lattice) -> list[GeneratorSpec]:
    """All iota[a,b,1;d] with a <= b and a <= d, in lexicographic index order."""
    out = []
    for a in range(lat.size):
        for b in range(lat.size):
            if not lat.leq(a, b):
                continue
            for d in range(lat.size):
                if lat.leq(a, d):
                    out.append(iota_spec(lat, a, b, lat.top, d))
    return out


def count_generators_chain(n: int) -> int:
    """|G| for the n-element chain: sum of i^2 for i=1..n, plus the two
    lattice operations."""
    if n < 2:
        raise InvalidSize(f"chain counting needs n >= 2, got {n}")
    return sum(i * i for i in range(1, n + 1)) + 2


def count_generators_m(n: int) -> int:
    """|G| for M_{n-2} (an n-element lattice, n >= 4): n^2 + 4n - 5,
    i.e. n^2 + (n-2)*4 + 1 iota functions plus the two lattice operations."""
    if n < 4:
        raise InvalidSize(f"M-family counting needs n >= 4, got {n}")
    return n * n + 4 * n - 5

