import copy
import gc
import itertools
import random
import re
import time
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction
from types import SimpleNamespace

import pytest

from latclone import (
    FnTable,
    boolean,
    chain,
    compose,
    count_class,
    enumerate_class,
    format_function,
    is_aggregation,
    is_boundary,
    is_idempotent,
    is_intermediate,
    is_monotone,
    join_fn,
    leq_pointwise,
    m_lattice,
    meet_fn,
    n5,
    parse_function,
    pointwise_join,
    pointwise_meet,
    projection,
)
from latclone.errors import (
    ArityMismatch,
    BudgetExceeded,
    IndexOutOfRange,
    InvalidArgument,
    InvalidSize,
    LatticeMismatch,
    ParseError,
)
from latclone.functable import (
    CLASSES,
    PackedClass,
    _cells,
    _packer,
    _walk_memos,
    _walk_tables,
    all_tuples,
    compose_values,
    from_callable,
    iter_monotone_values,
    tuple_index,
)
from latclone.lattice import from_covers


def brute_force_binary(lat, predicate):
    """Independent oracle: scan all m^(m^2) binary tables (tiny m only)."""
    m = lat.size
    out = []
    for vals in itertools.product(range(m), repeat=m * m):
        f = FnTable(lat, 2, vals)
        if predicate(f):
            out.append(f)
    return out


def reference_monotone_values(lat, n, boundary=False, diagonal=False, interval=False):
    """Slow reference enumerator: the recursive backtracker the iterative
    walk replaced.  Each cell's lower bound is the join over every earlier
    comparable cell, and each vector passes up through one generator frame
    per cell, so it only suits small cases."""
    m = lat.size
    cells = m**n
    tuples = all_tuples(m, n)
    leq = lat.leq_table
    preds = [
        [j for j in range(k) if all(leq[a][b] for a, b in zip(tuples[j], tuples[k]))]
        for k in range(cells)
    ]
    join_t = lat.join_table

    forced = [None] * cells
    if boundary:
        forced[0] = lat.bottom
        forced[cells - 1] = lat.top
    if diagonal:
        for x in range(m):
            forced[tuple_index(m, (x,) * n)] = x
    intervals = [None] * cells
    if interval:
        intervals = [(lat.meet_all(xs), lat.join_all(xs)) for xs in tuples]

    assigned = [0] * cells

    def walk(k):
        if k == cells:
            yield tuple(assigned)
            return
        lb = lat.bottom
        for j in preds[k]:
            lb = join_t[lb][assigned[j]]
        pin = forced[k]
        if pin is not None:
            if leq[lb][pin]:
                lo_hi = intervals[k]
                if lo_hi is None or (leq[lo_hi[0]][pin] and leq[pin][lo_hi[1]]):
                    assigned[k] = pin
                    yield from walk(k + 1)
            return
        lo_hi = intervals[k]
        for v in range(m):
            if not leq[lb][v]:
                continue
            if lo_hi is not None and not (leq[lo_hi[0]][v] and leq[v][lo_hi[1]]):
                continue
            assigned[k] = v
            yield from walk(k + 1)

    yield from walk(0)


REFERENCE_FLAGS = {
    "monotone": {},
    "aggregation": {"boundary": True},
    "idempotent": {"boundary": True, "diagonal": True, "interval": True},
}


def test_projection_tables(chain2, chain3):
    p1 = projection(chain2, 2, 1)
    assert p1.values == (0, 0, 1, 1)
    p2 = projection(chain3, 3, 2)
    assert p2((0, 2, 1)) == 2
    ident = projection(chain3, 1, 1)
    assert ident.values == (0, 1, 2)
    with pytest.raises(IndexOutOfRange):
        projection(chain3, 2, 3)


@pytest.mark.parametrize("bad", [3, -1, 1.5, "a", None])
def test_a_value_outside_the_elements_is_refused(chain3, bad):
    # values that do not compare with ints are refused the same way
    with pytest.raises(IndexOutOfRange, match="value outside element range"):
        FnTable(chain3, 2, (0,) * 8 + (bad,))


@pytest.mark.parametrize("size", [3, 257])
@pytest.mark.parametrize("bad", [1.0, Fraction(1), -1, 257, 2**70],
                         ids=["float", "fraction", "negative", "257", "huge"])
def test_a_value_that_is_not_an_element_index_is_refused(size, bad):
    # 1.0 and Fraction(1) hash and compare as the element 1; one-byte and
    # wider tables are checked apart
    with pytest.raises(IndexOutOfRange, match="value outside element range"):
        FnTable(chain(size), 1, (0, bad, *range(2, size)))


def test_compose_meet_of_projections(chain3):
    mt = meet_fn(chain3)
    built = compose(mt, [projection(chain3, 2, 1), projection(chain3, 2, 2)])
    assert built.values == mt.values


def test_compose_projection_identity(chain3):
    g = from_callable(chain3, 2, lambda xs: chain3.join_all(xs))
    h = meet_fn(chain3)
    assert compose(projection(chain3, 2, 1), [g, h]).values == g.values


def test_compose_join_over_meet_hand_evaluated(chain2):
    # result(x1,x2) = join(meet(x1,x2), x1); hand evaluation of all 4 inputs
    out = compose(join_fn(chain2), [meet_fn(chain2), projection(chain2, 2, 1)])
    assert out.values == (0, 0, 1, 1)


def test_compose_errors(chain2, chain3):
    with pytest.raises(ArityMismatch):
        compose(meet_fn(chain3), [projection(chain3, 2, 1)])
    with pytest.raises(ArityMismatch):
        compose(meet_fn(chain3), [projection(chain3, 2, 1), projection(chain3, 3, 1)])
    with pytest.raises(LatticeMismatch):
        compose(meet_fn(chain3), [projection(chain2, 2, 1), projection(chain2, 2, 2)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_compose_values_matches_index_arithmetic(diamond, k):
    rng = random.Random(k)
    m, n = diamond.size, 2
    f = FnTable(diamond, k, tuple(rng.randrange(m) for _ in range(m**k)))
    gvals = [tuple(rng.randrange(m) for _ in range(m**n)) for _ in range(k)]
    expected = []
    for t in range(m**n):
        idx = 0
        for gv in gvals:
            idx = idx * m + gv[t]
        expected.append(f.values[idx])
    assert compose_values(f.lookup, gvals) == tuple(expected)


def test_enumerate_rejects_arity_zero(chain2):
    for cls in ("idempotent", "aggregation", "monotone"):
        with pytest.raises(ArityMismatch):
            enumerate_class(chain2, 0, cls)


def test_predicates_on_lattice_operations(diamond):
    jn = join_fn(diamond)
    assert is_monotone(jn) and is_boundary(jn) and is_aggregation(jn)
    assert is_idempotent(jn) and is_intermediate(jn)


def test_constant_functions(chain2):
    const_bottom = FnTable(chain2, 2, (0, 0, 0, 0))
    assert is_monotone(const_bottom)
    assert not is_boundary(const_bottom)
    const_top = FnTable(chain2, 2, (1, 1, 1, 1))
    assert not is_idempotent(const_top)  # fails at (0,0)
    near_or = FnTable(chain2, 2, (1, 1, 1, 1))
    assert not is_boundary(near_or)


PREDICATE_CASES = [
    (chain(3), 2),
    (m_lattice(2), 2),
    (chain(4), 1),
    (n5(), 1),
    (n5(), 2),
    (m_lattice(3), 2),
    (chain(3), 3),
    (from_covers(["o"], [], name="one"), 2),
]


def test_monotone_matches_pairwise_definition():
    """All four cell predicates against their definitions, on random tables
    and on the first monotone and idempotent ones, which they accept."""
    random.seed(20240817)
    for lat, n in PREDICATE_CASES:
        m = lat.size
        leq = lat.leq_table
        tuples = all_tuples(m, n)
        diagonal = [(x,) * n for x in range(m)]
        samples = [
            *itertools.islice(iter_monotone_values(lat, n), 20),
            *itertools.islice(iter_monotone_values(lat, n, **REFERENCE_FLAGS["idempotent"]), 20),
            *(tuple(random.randrange(m) for _ in tuples) for _ in range(200)),
        ]
        for values in samples:
            f = FnTable(lat, n, values)
            at = dict(zip(tuples, values))
            monotone = all(
                leq[at[x]][at[y]]
                for x in tuples
                for y in tuples
                if all(leq[a][b] for a, b in zip(x, y))
            )
            idempotent = all(at[xs] == xs[0] for xs in diagonal)
            boundary = (at[diagonal[lat.bottom]] == lat.bottom
                        and at[diagonal[lat.top]] == lat.top)
            # above every lower bound of x and below every upper bound of x
            intermediate = all(
                all(leq[z][at[xs]] for z in range(m) if all(leq[z][a] for a in xs))
                and all(leq[at[xs]][z] for z in range(m) if all(leq[a][z] for a in xs))
                for xs in tuples
            )
            assert is_monotone(f) == monotone
            assert is_idempotent(f) == idempotent
            assert is_boundary(f) == boundary
            assert is_intermediate(f) == intermediate


def test_pointwise_operations(chain2, chain3):
    p1, p2 = projection(chain2, 2, 1), projection(chain2, 2, 2)
    assert pointwise_meet(p1, p2).values == meet_fn(chain2).values
    assert pointwise_join(p1, p2).values == join_fn(chain2).values
    assert leq_pointwise(meet_fn(chain3), join_fn(chain3))
    f = join_fn(chain3)
    assert pointwise_join(f, f).values == f.values
    with pytest.raises(ArityMismatch):
        pointwise_join(projection(chain3, 1, 1), f)


def test_enumerate_idempotent_chain2_against_brute_force(chain2):
    brute = brute_force_binary(
        chain2,
        lambda f: is_monotone(f) and is_boundary(f) and is_idempotent(f),
    )
    fast = enumerate_class(chain2, 2, "idempotent")
    assert {f.values for f in fast} == {f.values for f in brute}
    assert len(fast) == 4
    expected = {
        meet_fn(chain2).values,
        join_fn(chain2).values,
        projection(chain2, 2, 1).values,
        projection(chain2, 2, 2).values,
    }
    assert {f.values for f in fast} == expected


def test_enumerate_aggregation_chain2_against_brute_force(chain2):
    # on the 2-chain the binary boundary conditions pin the whole diagonal,
    # so every monotone boundary function is already idempotent
    brute = brute_force_binary(chain2, lambda f: is_monotone(f) and is_boundary(f))
    fast = enumerate_class(chain2, 2, "aggregation")
    assert {f.values for f in fast} == {f.values for f in brute}
    assert len(fast) == 4


def test_enumerate_monotone_chain2_against_brute_force(chain2):
    brute = brute_force_binary(chain2, is_monotone)
    fast = enumerate_class(chain2, 2, "monotone")
    assert {f.values for f in fast} == {f.values for f in brute}


@pytest.mark.parametrize(
    "lat",
    [chain(2), chain(3), chain(4), m_lattice(2), m_lattice(3)],
    ids=lambda l: l.name,
)
def test_unary_idempotent_is_identity_only(lat):
    fns = enumerate_class(lat, 1, "idempotent")
    assert len(fns) == 1
    assert fns[0].values == tuple(range(lat.size))


def test_enumeration_order_is_lexicographic(chain3):
    fns = enumerate_class(chain3, 2, "idempotent")
    vecs = [f.values for f in fns]
    assert vecs == sorted(vecs)
    assert len(vecs) == len(set(vecs))


def test_class_inclusions(chain3, diamond):
    for lat in (chain3, diamond):
        ids = {f.values for f in enumerate_class(lat, 2, "idempotent")}
        aggs = {f.values for f in enumerate_class(lat, 2, "aggregation")}
        mono = {f.values for f in enumerate_class(lat, 2, "monotone")}
        assert ids <= aggs <= mono


def test_projection_neutrality(chain3):
    f = from_callable(chain3, 2, lambda xs: chain3.meet_all(xs))
    ps = [projection(chain3, 2, i) for i in (1, 2)]
    assert compose(f, ps).values == f.values


def test_cell_budget(chain3):
    with pytest.raises(BudgetExceeded):
        enumerate_class(chain3, 4, "monotone")
    # a budget of 0 cells has run out; a negative one is no budget at all
    with pytest.raises(BudgetExceeded):
        enumerate_class(chain3, 2, "monotone", cell_budget=0)
    with pytest.raises(InvalidArgument, match="cell budget must be >= 0, got -1"):
        enumerate_class(chain3, 2, "monotone", cell_budget=-1)


def test_count_budget(chain2):
    with pytest.raises(BudgetExceeded):
        enumerate_class(chain2, 2, "monotone", count_budget=3)
    # a budget equal to the class size (6) is not exceeded
    assert len(enumerate_class(chain2, 2, "monotone", count_budget=6)) == 6
    with pytest.raises(BudgetExceeded):
        enumerate_class(chain2, 2, "monotone", count_budget=5)
    with pytest.raises(InvalidArgument):
        enumerate_class(chain2, 2, "monotone", count_budget=-1)


@pytest.mark.parametrize("lat, n",
                         [(chain(3), 2), (m_lattice(2), 2), (chain(2), 4), (chain(8), 1)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_count_class_equals_the_class_length(lat, n):
    for cls in CLASSES:
        assert count_class(lat, n, cls) == len(enumerate_class(lat, n, cls))
    size = count_class(lat, n, "monotone")
    assert count_class(lat, n, "monotone", count_budget=size) == size
    with pytest.raises(BudgetExceeded, match=f"count budget {size - 1}"):
        count_class(lat, n, "monotone", count_budget=size - 1)
    with pytest.raises(InvalidArgument):
        count_class(lat, n, "monotone", count_budget=-1)


# Classes too large to list twice are compared on a prefix: n5 has
# 31 022 611 monotone and 30 507 204 aggregation binary functions, and
# boolean3 at arity 2 and chain3 at arity 3 have more than 200 000 members
# in every class but chain3's idempotent one (116 211).
REFERENCE_PREFIX = {
    ("n5", 2, "monotone"): 30000,
    ("n5", 2, "aggregation"): 30000,
    ("boolean3", 2, "monotone"): 20000,
    ("boolean3", 2, "aggregation"): 20000,
    ("boolean3", 2, "idempotent"): 20000,
    ("chain3", 3, "monotone"): 20000,
    ("chain3", 3, "aggregation"): 20000,
    ("chain3", 3, "idempotent"): 20000,
}


@pytest.mark.parametrize("cls", ["monotone", "aggregation", "idempotent"])
@pytest.mark.parametrize(
    "lat, n",
    [
        (chain(3), 2),
        (m_lattice(2), 2),
        (n5(), 2),
        (chain(2), 4),
        (from_covers(["o"], [], name="one"), 3),
        (boolean(3), 1),
        (boolean(3), 2),
        (chain(8), 1),
        (chain(2), 5),
        (chain(3), 3),
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_enumerator_matches_reference_backtracker(lat, n, cls):
    limit = REFERENCE_PREFIX.get((lat.name, n, cls))
    flags = REFERENCE_FLAGS[cls]
    if limit is None:
        fast = [f.values for f in enumerate_class(lat, n, cls)]
    else:
        fast = list(itertools.islice(iter_monotone_values(lat, n, **flags), limit))
    slow = list(itertools.islice(reference_monotone_values(lat, n, **flags), limit))
    assert fast == slow
    assert all(a < b for a, b in zip(fast, fast[1:]))


# Dedekind numbers D(n): monotone Boolean functions of n variables.
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}


@pytest.mark.parametrize("n", sorted(DEDEKIND))
def test_chain2_counts_are_dedekind_numbers(chain2, n):
    assert len(enumerate_class(chain2, n, "monotone")) == DEDEKIND[n]
    # the two constants are the only monotone maps that are not idempotent
    assert len(enumerate_class(chain2, n, "idempotent")) == DEDEKIND[n] - 2


def macmahon_box(a, b, c):
    """Plane partitions in an a x b x c box, by MacMahon's product formula."""
    count = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                count *= Fraction(i + j + k - 1, i + j + k - 2)
    assert count.denominator == 1
    return count.numerator


@pytest.mark.parametrize("m, expected", [(2, 6), (3, 175), (4, 24696)])
def test_chain_binary_monotone_counts_match_macmahon(m, expected):
    # a monotone map [m]^2 -> [m] is a plane partition in an m x m x (m-1) box
    assert macmahon_box(m, m, m - 1) == expected
    assert len(enumerate_class(chain(m), 2, "monotone")) == expected


def test_many_cells_hit_count_budget_not_recursion_limit(chain2):
    # 2^11 = 2048 cells, more than the interpreter's recursion limit
    start = time.process_time()
    with pytest.raises(BudgetExceeded):
        enumerate_class(chain2, 11, "monotone", cell_budget=5000, count_budget=10)
    assert time.process_time() - start < 1.0


def test_count_budget_stops_a_huge_class_at_once():
    # chain30 at arity 2 has about 10^17 monotone maps; no row's candidates
    # may be listed in full before the count budget is reached
    start = time.process_time()
    with pytest.raises(BudgetExceeded, match="count budget 10"):
        enumerate_class(chain(30), 2, "monotone", cell_budget=900, count_budget=10)
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize(
    "lat, n, cls, cells",
    [(chain(300), 1, "aggregation", 300), (chain(30), 2, "monotone", 900)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_a_count_budget_cut_holds_a_few_blocks(lat, n, cls, cells):
    # both classes are astronomically large; the cut must come at the first
    # block past the budget, not after a batch of rows or blocks
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="count budget 10"):
            enumerate_class(lat, n, cls, cell_budget=cells, count_budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def slice_count(lat, n, cls):
    """Independent class size, counted without listing the members.  f
    splits by its first argument into slices f(x, ...), each a monotone
    (n-1)-ary map (from the reference backtracker) that meets the class's
    pins and intervals at the cells (x, ...), with f(x, ...) <= f(y, ...)
    pointwise whenever y covers x.  Elements are taken in index order, a
    linear extension with the top last; the slices of y above the ones
    chosen at its lower covers are a bit mask, and the top's are counted."""
    m, leq, flags = lat.size, lat.leq_table, REFERENCE_FLAGS[cls]
    inner = all_tuples(m, n - 1)

    def admissible(x, values):
        for t, v in zip(inner, values):
            xs = (x, *t)
            if flags.get("diagonal") and xs == (x,) * n and v != x:
                return False
            if flags.get("boundary") and xs in ((lat.bottom,) * n, (lat.top,) * n) and v != x:
                return False
            if flags.get("interval") and not (leq[lat.meet_all(xs)][v]
                                              and leq[v][lat.join_all(xs)]):
                return False
        return True

    monotone = list(reference_monotone_values(lat, n - 1))
    slices = [[s for s in monotone if admissible(x, s)] for x in range(m)]
    lower = [[x for x in range(m) if y in lat.upper_covers(x)] for y in range(m)]
    above = {(x, y): [sum(1 << j for j, t in enumerate(slices[y])
                          if all(leq[a][b] for a, b in zip(s, t))) for s in slices[x]]
             for y in range(m) for x in lower[y]}
    chosen = [None] * m

    def count(y):
        allowed = (1 << len(slices[y])) - 1
        for x in lower[y]:
            allowed &= above[x, y][chosen[x]]
        if y == m - 1:
            return bin(allowed).count("1")
        total = 0
        for i in range(len(slices[y])):
            if allowed >> i & 1:
                chosen[y] = i
                total += count(y + 1)
        return total

    return count(0)


def tail_rows(lat, n):
    """How many last rows the walk memoizes as one tail."""
    return len(_walk_tables(lat, n, False, False, False).outer)


@pytest.mark.parametrize("lat, n, k", [
    (chain(4), 2, 2), (n5(), 2, 2), (m_lattice(3), 2, 2), (chain(3), 3, 3), (chain(2), 5, 4),
    (chain(2), 11, 4),
    # m >= 8: one row holds 8 cells
    (chain(8), 2, 1), (chain(30), 2, 1),
    # the key would name the whole prefix: m2's tail rows a2 and 1 read rows
    # 0 and a1 alone, and chain2^4's tail rows 100 .. 111 rows 000 .. 011
    (m_lattice(2), 2, 1), (chain(2), 4, 1),
    # no prefix at all
    (chain(3), 2, 1), (chain(2), 3, 1), (chain(5), 1, 1),
], ids=lambda v: getattr(v, "name", str(v)))
def test_the_tail_is_the_fewest_last_rows_of_eight_cells_unless_its_key_names_the_prefix(
        lat, n, k):
    assert tail_rows(lat, n) == k


@pytest.mark.parametrize("lat, n, size", [(chain(3), 3, 116211), (n5(), 2, 280592)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_a_full_class_with_tail_hits_is_exactly_the_class(lat, n, size):
    # the reference backtracker lists only a prefix of these classes, so the
    # full class is held against an independent count: strictly increasing
    # vectors that all pass the scalar predicates, as many as the class has
    assert tail_rows(lat, n) > 1
    assert slice_count(lat, n, "idempotent") == size
    fns = enumerate_class(lat, n, "idempotent")
    assert len(fns) == size
    vectors = list(fns.vectors())
    assert all(a < b for a, b in zip(vectors, vectors[1:]))
    assert all(is_monotone(f) and is_idempotent(f) and is_intermediate(f) for f in fns)


def random_lattice(rng):
    """A lattice of 2 to 6 elements: a family of subsets of a 4-set that is
    closed under intersection and holds the whole set, ordered by inclusion."""
    while True:
        family = {15}
        for _ in range(rng.randrange(1, 6)):
            family.add(rng.randrange(16))
        while True:
            closed = family | {a & b for a in family for b in family}
            if closed == family:
                break
            family = closed
        if 2 <= len(family) <= 6:
            break
    members = sorted(family)
    rng.shuffle(members)
    labels = [f"s{a}" for a in members]
    below = [(a, b) for a in family for b in family if a != b and a & b == a]
    covers = [(f"s{a}", f"s{b}") for a, b in below
              if not any((a, c) in below and (c, b) in below for c in family)]
    return from_covers(labels, covers, name=f"sub{len(family)}")


RANDOM_LATTICES = [random_lattice(random.Random(seed)) for seed in range(12)]


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("lat", RANDOM_LATTICES, ids=lambda lat: lat.name)
def test_random_lattices_match_the_reference_backtracker(lat, cls):
    # the class, or its first 3000 members where it has more
    flags = REFERENCE_FLAGS[cls]
    for n in (2, 3):
        cells = lat.size**n
        fast = list(itertools.islice(
            iter_monotone_values(lat, n, cell_budget=cells, **flags), 3000))
        slow = list(itertools.islice(reference_monotone_values(lat, n, **flags), 3000))
        assert fast == slow
        if len(fast) < 3000:
            assert count_class(lat, n, cls, cell_budget=cells) == len(fast)


def test_random_lattices_reach_tails_of_each_length():
    assert {tail_rows(lat, n) for lat in RANDOM_LATTICES for n in (2, 3)} >= {1, 2}


def test_a_count_budget_cut_with_a_tail_holds_a_few_blocks():
    # chain2 at arity 11 walks 1024 rows with a tail of 4; its class is
    # astronomically large, and the cut must come while the first tails are
    # still being walked
    assert tail_rows(chain(2), 11) == 4
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="count budget 10"):
            enumerate_class(chain(2), 11, "monotone", cell_budget=2048, count_budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def walk_memos(lat, n, cls):
    """The row memos and row joins that finished walks of the class left on lat."""
    flags = {"boundary": False, "diagonal": False, "interval": False, **REFERENCE_FLAGS[cls]}
    return _walk_memos(lat, n, *flags.values())


# every class of at most this many members is enumerated cold and warm
WARM_CHECK_MEMBERS = 10**6


@pytest.mark.parametrize("lat", [chain(2), chain(3), chain(4), m_lattice(2), m_lattice(3), n5(),
                                 *RANDOM_LATTICES], ids=lambda lat: lat.name)
def test_a_warm_walk_repeats_the_cold_one_without_a_cell_walk(lat):
    for n, cls in itertools.product((1, 2, 3), CLASSES):
        if lat.size**n > 64:
            continue
        cold, fresh = copy.deepcopy(lat), copy.deepcopy(lat)  # copies carry no memos
        assert not walk_memos(cold, n, cls)
        try:
            size = count_class(cold, n, cls, count_budget=WARM_CHECK_MEMBERS)
        except BudgetExceeded:
            continue
        ((memos, joins),) = walk_memos(cold, n, cls)
        recorded = sum(map(len, memos)), len(joins)
        warm = enumerate_class(cold, n, cls)
        assert bytes(warm._buffer) == bytes(enumerate_class(fresh, n, cls)._buffer)
        assert len(warm) == size == count_class(cold, n, cls)
        # the warm walks found every row memo and join they looked up
        assert walk_memos(cold, n, cls)[0][0] is memos
        assert (sum(map(len, memos)), len(joins)) == recorded


def test_a_cut_or_abandoned_walk_publishes_no_memo():
    big = chain(30)
    with pytest.raises(BudgetExceeded, match="count budget 10"):
        enumerate_class(big, 2, "monotone", cell_budget=900, count_budget=10)
    assert not walk_memos(big, 2, "monotone")
    lat, fresh = chain(4), chain(4)
    with pytest.raises(BudgetExceeded):
        count_class(lat, 2, "monotone", count_budget=10)
    vectors = iter_monotone_values(lat, 2)
    first = list(itertools.islice(vectors, 5))
    assert not walk_memos(lat, 2, "monotone")
    del vectors  # dropped, the walk is closed where it stopped
    assert not walk_memos(lat, 2, "monotone")
    # the walks cut short leave the complete one unchanged
    whole = enumerate_class(lat, 2, "monotone")
    assert list(whole.vectors())[:5] == first
    assert bytes(whole._buffer) == bytes(enumerate_class(fresh, 2, "monotone")._buffer)
    assert walk_memos(lat, 2, "monotone")


def test_the_memory_a_walk_keeps_is_small():
    # the enumeration ladder of the benchmark's enum workload, walked once:
    # the row memos and joins kept after it stay well below the classes,
    # 0.7 MB in all against 20 MB for the m3 class alone
    lats = {lat.name: lat for lat in (chain(2), chain(3), chain(4), m_lattice(2), m_lattice(3), n5())}
    ladder = [("m3", 2, "idempotent"), ("n5", 2, "idempotent"), ("chain3", 3, "idempotent"),
              ("chain3", 2, "idempotent"), ("m2", 2, "idempotent"), ("chain4", 2, "idempotent"),
              ("chain2", 4, "idempotent"), ("chain2", 5, "monotone"), ("chain4", 2, "monotone")]
    gc.collect()
    tracemalloc.start()
    try:
        for name, n, cls in ladder:
            enumerate_class(lats[name], n, cls)
            assert walk_memos(lats[name], n, cls)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 3 << 19


def chain_binary_monotone_values(m):
    """Independent oracle for the monotone maps from a chain's square to
    the chain, in lexicographic order of value vectors: the successor of a
    vector raises its last cell below the top by one and resets every later
    cell to the least value its upper and left neighbours allow."""
    values = [0] * (m * m)
    while True:
        yield tuple(values)
        k = len(values) - 1
        while k >= 0 and values[k] == m - 1:
            k -= 1
        if k < 0:
            return
        values[k] += 1
        for c in range(k + 1, m * m):
            values[c] = max(values[c - m] if c >= m else 0, values[c - 1] if c % m else 0)


def test_two_byte_fields_at_arity_two_match_an_independent_oracle():
    # reference_monotone_values lists every comparable earlier cell and
    # recurses once per cell, too slow and too deep for 257^2 cells; the
    # last cell reaches 256 in the first 257 vectors, the cell before it
    # moves after that, and every row runs the pointwise-join memo
    lat = chain(257)
    fast = list(itertools.islice(iter_monotone_values(lat, 2, cell_budget=257**2), 600))
    assert fast == list(itertools.islice(chain_binary_monotone_values(257), 600))
    assert fast[256][-2:] == (0, 256) and fast[257][-2:] == (1, 1)
    assert list(itertools.islice(chain_binary_monotone_values(3), 200)) == list(
        reference_monotone_values(chain(3), 2))


@pytest.mark.parametrize(
    "lat, n, classes",
    [
        (chain(4), 2, ("monotone", "aggregation", "idempotent")),
        (m_lattice(2), 2, ("monotone", "aggregation", "idempotent")),
        (chain(3), 3, ("idempotent",)),
        (chain(2), 3, ("monotone", "aggregation", "idempotent")),
        (n5(), 1, ("monotone", "aggregation", "idempotent")),
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_class_members_equal_checked_tables(lat, n, classes):
    middle = all_tuples(lat.size, n)[lat.size**n // 2]
    for cls in classes:
        for f in enumerate_class(lat, n, cls):
            assert f == FnTable(lat, n, f.values)
            assert f.lattice is lat and f.arity == n and f.name == "f"
            assert f.lookup(middle) == f(middle)
            assert f.key() == (n, f.values)


# The packed class against the walk it packs.  The classes listed here have
# more than 300 000 members, too many to list twice; for them only the count
# budget is checked.  The cell budget is raised so n5 at arity 3 is walked.
LARGE_CLASSES = {*itertools.product(("chain4", "m2", "n5"), [3], CLASSES),
                 ("n5", 2, "aggregation"), ("n5", 2, "monotone")}


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("lat", [chain(2), chain(3), chain(4), m_lattice(2), n5()],
                         ids=lambda lat: lat.name)
def test_packed_class_holds_the_walk_in_order(lat, n, cls):
    cells = lat.size**n
    if (lat.name, n, cls) in LARGE_CLASSES:
        with pytest.raises(BudgetExceeded):
            enumerate_class(lat, n, cls, cell_budget=cells, count_budget=1000)
        return
    fns = enumerate_class(lat, n, cls, cell_budget=cells)
    vectors = list(iter_monotone_values(lat, n, cell_budget=cells, **REFERENCE_FLAGS[cls]))
    assert isinstance(fns, PackedClass) and len(fns) == len(vectors)
    assert [f.values for f in fns] == vectors
    # both come from one walk, so the class is also held against the
    # independent backtracker, on a prefix for classes of over 20 000
    slow = itertools.islice(reference_monotone_values(lat, n, **REFERENCE_FLAGS[cls]), 20000)
    assert list(fns[:20000].vectors()) == list(slow)


def test_packed_class_is_a_read_only_sequence(chain3):
    fns = enumerate_class(chain3, 2, "idempotent")
    tables = list(fns)
    values = [f.values for f in tables]
    assert len(fns) == len(tables) == 64 and fns
    for i in (0, 1, 37, 63, -1, -2, -64):
        assert fns[i] == tables[i] and fns[i].values == values[i]
    for i in (64, 1000, -65):
        with pytest.raises(IndexError):
            fns[i]
    with pytest.raises(TypeError):
        fns["1"]
    for part in (slice(None), slice(None, None, -1), slice(3, 40, 7), slice(50, 5, -3),
                 slice(-10, None), slice(5, 2), slice(100, None), slice(None, None, 64)):
        sliced = fns[part]
        assert isinstance(sliced, PackedClass)
        assert [f.values for f in sliced] == values[part] == list(sliced.vectors())
        assert len(sliced) == len(values[part])
    twice = fns[::-3][2:9:2]
    assert [f.values for f in twice] == values[::-3][2:9:2]
    assert twice[-1].values == values[::-3][2:9:2][-1]
    with pytest.raises(ValueError):
        fns[::0]
    sample = random.Random(1).sample(fns, 10)
    assert len({f.values for f in sample}) == 10 and all(f in fns for f in sample)
    extra = projection(chain3, 2, 1)
    joined = fns + [extra]
    assert type(joined) is list and joined == tables + [extra]
    assert fns[:2] + fns[-1:] == [tables[0], tables[1], tables[-1]]
    assert [f.values for f in reversed(fns)] == values[::-1]
    assert fns.index(tables[5]) == 5 and fns.count(tables[5]) == 1
    assert fns.lattice is chain3 and fns.arity == 2
    with pytest.raises(TypeError):
        fns[0] = tables[1]
    with pytest.raises(AttributeError):
        fns.extra = 1
    with pytest.raises(AttributeError):
        fns.lattice = chain(2)
    with pytest.raises(AttributeError):
        fns.arity = 1
    assert fns.lattice is chain3 and fns.arity == 2 and fns[0] == tables[0]
    with pytest.raises(TypeError, match="only by enumerate_class"):
        PackedClass(chain3, 1, bytes(3), None, range(1))


def test_packed_class_takes_wider_fields_beyond_256_elements():
    lat = chain(300)
    identity = enumerate_class(lat, 1, "idempotent", cell_budget=300)
    # values 256 .. 299 need two-byte fields
    assert len(identity) == 1 and identity[0].values == tuple(range(300))
    assert identity[0] == FnTable(lat, 1, tuple(range(300)))
    with pytest.raises(BudgetExceeded, match="count budget 10"):
        enumerate_class(lat, 1, "aggregation", cell_budget=300, count_budget=10)
    # past 65536 elements a field would need more than two bytes; such a
    # lattice's tables are too large to build, so a stand-in gives its size
    with pytest.raises(InvalidSize, match="65536"):
        enumerate_class(SimpleNamespace(size=65537), 1, "idempotent")


def test_calling_a_table_checks_arity_and_elements(chain3):
    f = meet_fn(chain3)
    assert [f(xs) for xs in f.tuples()] == list(f.values)
    assert f([2, 1]) == 1
    with pytest.raises(ArityMismatch, match="expected 2 arguments, got 3"):
        f((0, 1, 2))
    for xs in ((0, 3), (-1, 0), (3, -1)):
        with pytest.raises(IndexOutOfRange, match=re.escape(f"argument {xs} outside 0..2")):
            f(xs)


def test_function_tables_are_immutable(chain3):
    for f in (enumerate_class(chain3, 2, "idempotent")[0], meet_fn(chain3)):
        with pytest.raises(AttributeError):
            f.values = (0,) * 9
        assert not hasattr(f, "__dict__")
    f = meet_fn(chain3)
    assert f.lookup is f.lookup  # built once
    assert len({f, FnTable(chain3, 2, f.values, name="other")}) == 1


def test_function_tables_refuse_every_assignment(chain3):
    for f in (enumerate_class(chain3, 2, "idempotent")[0], meet_fn(chain3)):
        for name in ("values", "name", "_lookup", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(f, name)
        assert f.lookup((1, 2)) == f((1, 2))  # the lazy slot still fills
    assert meet_fn(chain3).values == tuple(min(a, b) for a, b in all_tuples(3, 2))


def test_is_intermediate_matches_per_cell_bounds(chain3, diamond):
    random.seed(7)
    for lat in (chain3, diamond):
        lows, highs = _cells(lat, 2).lows, _cells(lat, 2).highs
        assert _cells(lat, 2) is _cells(lat, 2)  # built once
        assert lows == tuple(lat.meet_all(xs) for xs in all_tuples(lat.size, 2))
        assert highs == tuple(lat.join_all(xs) for xs in all_tuples(lat.size, 2))
        leq = lat.leq_table
        for _ in range(300):
            f = FnTable(lat, 2, tuple(random.randrange(lat.size) for _ in range(lat.size**2)))
            slow = all(
                leq[lat.meet_all(xs)][v] and leq[v][lat.join_all(xs)]
                for xs, v in zip(f.tuples(), f.values)
            )
            assert is_intermediate(f) == slow


@pytest.mark.parametrize("lat", [chain(3), n5(), m_lattice(7)],
                         ids=lambda lat: lat.name)
def test_packed_masks_do_meet_join_and_order_at_every_cell(lat):
    # m7 has nine elements, so its masks take two-byte fields
    random.seed(5)
    down, up, point = (_packer(lat, kind) for kind in ("down", "up", "point"))
    leq, cells = lat.leq_table, 12
    for _ in range(100):
        x, y = (tuple(random.randrange(lat.size) for _ in range(cells)) for _ in "xy")
        assert down.unpack(down.pack(x), cells) == x == up.unpack(up.pack(x), cells)
        meet = tuple(lat.meet(a, b) for a, b in zip(x, y))
        join = tuple(lat.join(a, b) for a, b in zip(x, y))
        assert down.pack(x) & down.pack(y) == down.pack(meet)
        assert up.pack(x) & up.pack(y) == up.pack(join)
        below = all(leq[a][b] for a, b in zip(x, y))
        assert (down.pack(x) & ~down.pack(y) == 0) is below
        assert (point.pack(x) & ~point.pack(y) == 0) is (x == y)


def test_is_intermediate_on_two_byte_fields():
    lat = m_lattice(7)
    random.seed(11)
    bounds = list(zip(_cells(lat, 2).lows, _cells(lat, 2).highs))
    inside = [[v for v in range(lat.size) if lat.leq(lo, v) and lat.leq(v, hi)]
              for lo, hi in bounds]
    for _ in range(200):
        values = [random.choice(vs) for vs in inside]
        assert is_intermediate(FnTable(lat, 2, tuple(values)))
        k = random.randrange(len(values))
        values[k] = random.randrange(lat.size)
        assert is_intermediate(FnTable(lat, 2, tuple(values))) == (values[k] in inside[k])


def test_iter_monotone_values_interval_equals_idempotent(diamond):
    # interval confinement alone pins the diagonal and the boundary
    via_interval = set(iter_monotone_values(diamond, 2, interval=True))
    via_pins = set(
        iter_monotone_values(diamond, 2, boundary=True, diagonal=True, interval=True)
    )
    assert via_interval == via_pins


def test_function_file_round_trip(chain3):
    f = from_callable(chain3, 2, lambda xs: chain3.join_all(xs), name="sup")
    text = format_function(f)
    back = parse_function(text, chain3)
    assert back.values == f.values
    assert back.name == "sup"
    assert back.arity == 2


def test_function_file_errors(chain2):
    header = "function f arity 2 lattice chain2\n"
    body = "0 0 -> 0\n0 1 -> 1\n1 0 -> 1\n1 1 -> 1\n"
    parse_function(header + body + "end\n", chain2)
    with pytest.raises(ParseError, match="missing tuple"):
        parse_function(header + "0 0 -> 0\nend\n", chain2)
    with pytest.raises(ParseError, match="duplicate tuple"):
        parse_function(header + body + "0 0 -> 1\nend\n", chain2)
    with pytest.raises(ParseError, match="lattice"):
        parse_function("function f arity 2 lattice other\nend\n", chain2)
    with pytest.raises(ParseError):
        parse_function(header + "0 zzz -> 0\n" + body + "end\n", chain2)


ROWS = "0 -> 0\n1 -> 1\n"


@pytest.mark.parametrize("text,message,line", [
    ("function f arity 1 lattice chain2\n" + ROWS + "end\n0 -> 0\n", "content after 'end'", 5),
    ("# a comment\n\nfunc f arity 1 lattice chain2\n",
     "expected 'function <name> arity <n> lattice <lattice-name>'", 3),
    ("function f arity 1 lattice chain2 extra\n",
     "expected 'function <name> arity <n> lattice <lattice-name>'", 1),
    ("function f arity one lattice chain2\n", "bad arity 'one'", 1),
    ("function f arity 0 lattice chain2\n", "arity must be >= 1, got 0", 1),
    ("function f arity 1 lattice chain3\n", "function is on lattice 'chain3', expected 'chain2'", 1),
    ("function f arity 1 lattice chain2\n0 0\n", "expected '<labels> -> <label>'", 2),
    ("function f arity 1 lattice chain2\n0 1 -> 0\n",
     "expected 1 input labels and one output label", 2),
    ("function f arity 1 lattice chain2\n0 -> 0 1\n",
     "expected 1 input labels and one output label", 2),
    ("function f arity 1 lattice chain2\n0 -> 2\n",
     "\"unknown element label '2' in lattice 'chain2'\"", 2),
    ("function f arity 1 lattice chain2\n0 -> 0\n0 -> 1\n", "duplicate tuple (0)", 3),
    ("", "missing function header", None),
    ("# only a comment\n", "missing function header", None),
    ("function f arity 1 lattice chain2\n" + ROWS, "missing 'end' directive", None),
    ("function f arity 1 lattice chain2\n0 -> 0\nend\n", "missing tuple (1)", None),
    ("\nfunction a->b arity 1 lattice chain2\n" + ROWS + "end\n",
     "bad function name 'a->b': it must be nonempty, without whitespace, '->' or any of #", 2),
])
def test_function_file_errors_name_their_line(chain2, text, message, line):
    with pytest.raises(ParseError) as caught:
        parse_function(text, chain2)
    assert (str(caught.value), caught.value.line) == (
        message if line is None else f"line {line}: {message}", line)


@pytest.mark.parametrize("name", ["", "a b", "x#y", "a->b", "tab\there", "#"])
def test_function_names_that_do_not_read_back_are_refused(chain2, name):
    with pytest.raises(InvalidArgument):
        from_callable(chain2, 1, lambda xs: xs[0], name=name)
    with pytest.raises(InvalidArgument):
        projection(chain2, 1, 1).renamed(name)


@pytest.mark.parametrize("name", ["", "a b", "x#y", "a->b", "tab\there", "#", 5, None])
def test_a_table_refuses_a_name_that_does_not_read_back(chain2, name):
    with pytest.raises(InvalidArgument, match="bad function name"):
        FnTable(chain2, 1, (0, 1), name=name)


@pytest.mark.parametrize("name", ["iota[0,1,2;1]", "p1^2", "f(x)", "a-b", "g>"])
def test_function_names_round_trip(chain3, name):
    f = from_callable(chain3, 2, lambda xs: chain3.join_all(xs), name=name)
    for g in (f, meet_fn(chain3).renamed(name)):
        back = parse_function(format_function(g), chain3)
        assert back.name == name and back.values == g.values
