import gc
import itertools
import random
import time
from functools import reduce
from operator import and_, getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latclone import (
    boolean,
    certify,
    chain,
    closure,
    decompose_id_reduced,
    enumerate_class,
    format_closure_report,
    format_verification_report,
    from_covers,
    is_idempotent,
    is_monotone,
    join_fn,
    m_lattice,
    make_chi,
    meet_fn,
    n5,
    projection,
    reduced_generator_set,
    to_table,
    verify_generation,
)
from latclone import clone
from latclone.clone import DEFAULT_CLOSURE_BUDGET
from latclone.errors import (
    ArityMismatch,
    BudgetExceeded,
    InvalidArgument,
    LatticeMismatch,
    NotIdempotent,
)
from latclone.decompose import _anchor_operand
from latclone.functable import (
    FnTable,
    PackedClass,
    _cells,
    _packer,
    all_tuples,
    compose_values,
    from_callable,
)
from latclone.terms import _children, _interned


def test_meet_join_closure_on_chain2(chain2):
    report = closure([meet_fn(chain2), join_fn(chain2)], 2)
    # binary lattice terms over a 2-chain: the two projections, meet, join
    assert not report.budget_hit
    got = {f.values for f in report.reached}
    assert got == {(0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 0, 1), (0, 1, 1, 1)}


def test_projections_only_base(chain3):
    base = [projection(chain3, 2, 1)]
    report = closure(base, 2)
    assert not report.budget_hit
    assert {f.values for f in report.reached} == {
        projection(chain3, 2, 1).values,
        projection(chain3, 2, 2).values,
    }


def test_base_functions_enter_closure(chain3):
    report = closure([meet_fn(chain3), join_fn(chain3)], 2)
    got = {f.values for f in report.reached}
    assert meet_fn(chain3).values in got
    assert join_fn(chain3).values in got


def test_closure_invariant_under_base_order(chain3):
    base = [meet_fn(chain3), join_fn(chain3)]
    a = closure(base, 2)
    b = closure(base[::-1], 2)
    assert {f.values for f in a.reached} == {f.values for f in b.reached}


def test_idempotent_base_stays_idempotent(diamond):
    base = [meet_fn(diamond), join_fn(diamond)]
    report = closure(base, 2)
    assert not report.budget_hit
    for f in report.reached:
        assert is_idempotent(f)
        assert is_monotone(f)


def test_closure_mixed_arities(chain2):
    base = [meet_fn(chain2), projection(chain2, 1, 1)]
    report = closure(base, 2)
    assert not report.budget_hit
    assert meet_fn(chain2).values in {f.values for f in report.reached}


def test_closure_budget_hit_partial_result(chain3):
    base = [meet_fn(chain3), join_fn(chain3)]
    base += [spec.table(chain3) for spec in reduced_generator_set(chain3)]
    report = closure(base, 2, budget=50)
    assert report.budget_hit
    assert report.attempts == 50
    assert len(report.reached) >= 2


def test_closure_budget_counts_compositions_made(chain3):
    base = [meet_fn(chain3), join_fn(chain3)]
    base += [spec.table(chain3) for spec in reduced_generator_set(chain3)]
    report = closure(base, 2, budget=5)
    assert report.budget_hit
    assert report.attempts == 5


def test_closure_early_stop_on_target_keys(chain3):
    ids = enumerate_class(chain3, 2, "idempotent")
    base = [meet_fn(chain3), join_fn(chain3)]
    base += [spec.table(chain3) for spec in reduced_generator_set(chain3)]
    keys = {f.key() for f in ids}
    report = closure(base, 2, until_keys=keys)
    assert not report.budget_hit
    assert keys <= report.keys


def test_closure_rejects_mixed_lattices(chain2, chain3):
    with pytest.raises(LatticeMismatch):
        closure([meet_fn(chain2), meet_fn(chain3)], 2)


def test_closure_rejects_empty_base():
    with pytest.raises(ValueError):
        closure([], 2)


def test_closure_argument_errors_are_domain_errors(chain2):
    with pytest.raises(InvalidArgument):
        closure([], 2)
    with pytest.raises(InvalidArgument):
        closure([meet_fn(chain2)], 2, budget=0)
    for n in (0, -1):
        with pytest.raises(ArityMismatch):
            closure([meet_fn(chain2)], n)


def test_verify_generation_rejects_arity_zero(chain2):
    with pytest.raises(ArityMismatch):
        verify_generation(chain2, 0)


@pytest.mark.parametrize(
    "lat,n,count",
    [pytest.param(chain(2), 2, 4, id="chain2-4"),
     pytest.param(chain(3), 2, 64, id="chain3-64"),
     pytest.param(m_lattice(2), 2, 1296, id="m2-1296"),
     pytest.param(chain(3), 3, 116211, id="chain3-arity3-116211")],
)
def test_verify_generation_binary(lat, n, count):
    """verify_generation passes at arity 2, and on chain3 at arity 3."""
    report = verify_generation(lat, n)
    assert report.id_count == count
    assert report.closure_pass
    assert report.decomposition_pass
    assert report.ok
    assert not report.counterexamples


@pytest.mark.parametrize(
    "lat,n",
    [(chain(3), 2), (m_lattice(2), 2), (chain(2), 4), (chain(4), 2)],
    ids=lambda v: getattr(v, "name", v),
)
def test_part_b_agrees_with_tabulating_each_members_term(lat, n):
    """Part B's verdict and counterexamples equal the slow path's: to_table
    of each member's reduced decomposition term, member by member."""
    ids = enumerate_class(lat, n, "idempotent")
    slow = [f for f in ids if to_table(decompose_id_reduced(f), lat, n).values != f.values]
    report = verify_generation(lat, n)
    assert report.closure_pass
    assert report.decomposition_pass == (not slow)
    assert report.counterexamples == slow


@pytest.mark.parametrize("v", [1, 2])
def test_part_b_flags_exactly_the_members_of_a_wrong_operand(v, monkeypatch):
    # cell 2 is the tuple (0, 2): meet 0, join 2, so v = 1 and v = 2 are
    # admissible; serve the operand of (2, 0) in place of that of (2, v).
    # A lattice of its own: no anchor tables on it predate the patch
    chain3 = chain(3)
    k, lo = 2, 0
    real = clone._anchor_operand
    monkeypatch.setattr(
        clone, "_anchor_operand",
        lambda lat, n, j, w, reduced: real(lat, n, j, lo if (j, w) == (k, v) else w, reduced),
    )
    report = verify_generation(chain3, 2)
    assert report.closure_pass and not report.decomposition_pass
    ids = enumerate_class(chain3, 2, "idempotent")
    assert report.counterexamples == [f for f in ids if f.values[k] == v]
    assert report.counterexamples


def test_part_b_leaves_only_the_operand_cache_interned():
    # M2 under labels no other test uses, so that its nodes are new
    lat = from_covers(["lo", "p", "q", "hi"],
                      [("lo", "p"), ("lo", "q"), ("p", "hi"), ("q", "hi")], name="m2")
    gc.collect()
    before = set(_interned.values())
    verify_generation(lat, 2)
    gc.collect()
    new = [t for t in _interned.values() if t not in before]
    kept, stack = set(), [_anchor_operand(lat, 2, k, v, True)
                          for k, v in clone._admissible_pairs(lat, 2)]
    while stack:
        node = stack.pop()
        if node not in kept:
            kept.add(node)
            stack += _children(node)
    assert new and set(new) <= kept


def test_verify_generation_raises_on_budget(chain3):
    with pytest.raises(BudgetExceeded):
        verify_generation(chain3, 2, budget=10)


def test_report_formats(chain2):
    report = verify_generation(chain2, 2)
    text = format_verification_report(report)
    assert text.startswith("lattice=chain2 arity=2 id_count=4 A=pass B=pass")
    inner = format_closure_report(report.closure_report)
    assert inner.startswith("reached=4 ")
    assert "budget_hit=false" in inner


def _reference_tuples_with_max(d, k):
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


def _reference_closure(base, n, budget, until_keys=None):
    """The closure one attempt at a time, one composition per base and
    argument tuple, as before the gather kernel: the slow reference for
    order, counters and the budget rule.  Returns the report's fields."""
    lat = base[0].lattice
    reached = [projection(lat, n, i) for i in range(1, n + 1)]
    keys = {f.key() for f in reached}
    vectors = [f.values for f in reached]
    by_arity = {}
    for f in base:
        by_arity.setdefault(f.arity, []).append(f.lookup)
    # per stream: [arity, lookups, level, pending tuples]
    streams = [[k, by_arity[k], 0, None] for k in sorted(by_arity)]
    missing = None if until_keys is None else set(until_keys) - keys
    insertions = attempts = 0
    budget_hit = False
    done = missing is not None and not missing
    while not budget_hit and not done:
        progressed = False
        for stream in streams:
            if budget_hit or done:
                break
            served = 0
            while served < 64:
                if stream[2] >= len(vectors):
                    break
                if stream[3] is None:
                    stream[3] = _reference_tuples_with_max(stream[2], stream[0])
                idxs = next(stream[3], None)
                if idxs is None:
                    stream[2], stream[3] = stream[2] + 1, None
                    continue
                progressed = True
                gvals = [vectors[i] for i in idxs]
                for lookup in stream[1]:
                    if attempts == budget:
                        budget_hit = True
                        break
                    attempts += 1
                    served += 1
                    values = compose_values(lookup, gvals)
                    if (n, values) not in keys:
                        keys.add((n, values))
                        reached.append(FnTable(lat, n, values))
                        vectors.append(values)
                        insertions += 1
                        if missing is not None:
                            missing.discard((n, values))
                            if not missing:
                                done = True
                                break
                if budget_hit or done:
                    break
        if not progressed and not done:
            break
    rounds = min(stream[2] for stream in streams)
    return ([f.values for f in reached], rounds, insertions, attempts, budget_hit, keys)


def _fields(report):
    return ([f.values for f in report.reached], report.rounds, report.insertions,
            report.attempts, report.budget_hit, report.keys)


def _reduced_base(lat):
    base = [meet_fn(lat), join_fn(lat)]
    return base + [spec.table(lat) for spec in reduced_generator_set(lat)]


def _tables(lat, n):
    """The anchor tables of the reduced set, built or read from the lattice."""
    return clone._anchor_tables(lat, n, tuple(reduced_generator_set(lat)),
                                DEFAULT_CLOSURE_BUDGET)


@pytest.mark.parametrize("budget", [1, 5, 50, 1000, 12345])
def test_closure_matches_reference_on_chain4_cover(chain4, budget):
    base = _reduced_base(chain4)
    keys = {f.key() for f in enumerate_class(chain4, 2, "idempotent")}
    got = closure(base, 2, budget, until_keys=keys)
    assert _fields(got) == _reference_closure(base, 2, budget, keys)
    assert got.budget_hit


@pytest.mark.parametrize("budget", [5512, 5513, 10**6])
def test_closure_matches_reference_when_target_is_covered(chain3, budget):
    # the chain3 cover is complete at attempt 5513, inside a chunk of tuples
    base = _reduced_base(chain3)
    keys = {f.key() for f in enumerate_class(chain3, 2, "idempotent")}
    got = closure(base, 2, budget, until_keys=keys)
    assert _fields(got) == _reference_closure(base, 2, budget, keys)
    assert got.attempts == min(budget, 5513)
    assert got.budget_hit is (budget < 5513)


@pytest.mark.parametrize("budget,hit", [(647, True), (648, False), (649, False)])
def test_closure_budget_equal_to_attempt_count_is_not_hit(chain3, budget, hit):
    base = [meet_fn(chain3), join_fn(chain3)]
    got = closure(base, 3, budget)
    assert _fields(got) == _reference_closure(base, 3, budget)
    assert got.budget_hit is hit
    assert got.attempts == min(budget, 648)


def _meet_join(lat):
    return [meet_fn(lat), join_fn(lat)]


def _min4_and_join(lat):
    return [from_callable(lat, 4, min, name="min4"), join_fn(lat)]


def _six_ary_and_meet(lat):
    six = from_callable(lat, 6, lambda xs: (xs[0] + 2 * xs[1] + xs[5]) % lat.size, name="six")
    return [six, meet_fn(lat)]


@pytest.mark.parametrize(
    "make,n,budget",
    [
        # 8**3 = 512 table cells for the ternary iotas: two-byte index fields
        (lambda: _reduced_base(boolean(3)), 2, 5000),
        # 4**4 = 256 entries: the widest table whose indices fit one byte
        (lambda: _min4_and_join(chain(4)), 3, 3000),
        # 3**6 = 729 entries, just past it: two-byte index fields
        (lambda: _six_ary_and_meet(chain(3)), 2, 2000),
        # one element, so every arity has a single cell
        (lambda: _meet_join(from_covers(["0"], [])), 3, 10**6),
        (lambda: _meet_join(m_lattice(2)), 3, 10**6),
        (lambda: _meet_join(m_lattice(3)), 3, 10**6),
        (lambda: _meet_join(n5()), 3, 10**6),
        (lambda: [meet_fn(chain(2)), projection(chain(2), 1, 1)], 2, 10**6),
        (lambda: _reduced_base(chain(3)), 2, 10**6),
    ],
    ids=["boolean3-reduced", "chain4-256-entries", "chain3-729-entries", "one-element",
         "m2-fixpoint", "m3-fixpoint", "n5-fixpoint", "mixed-arities", "chain3-reduced"],
)
def test_closure_matches_reference(make, n, budget):
    base = make()
    assert _fields(closure(base, n, budget)) == _reference_closure(base, n, budget)


@st.composite
def closure_cases(draw):
    lat = draw(st.sampled_from([chain(2), chain(3), chain(4), m_lattice(2), n5()]))
    base = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 3))
        values = draw(st.lists(st.integers(0, lat.size - 1),
                               min_size=lat.size**k, max_size=lat.size**k))
        base.append(FnTable(lat, k, tuple(values)))
    return base, draw(st.integers(1, 3)), draw(st.integers(1, 2000))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(closure_cases())
def test_closure_matches_reference_on_arbitrary_bases(case):
    base, n, budget = case
    assert _fields(closure(base, n, budget)) == _reference_closure(base, n, budget)


# ------------------------------------------------- mirrored commutative levels


def _reference_trace(base, n):
    """The reference's fixpoint fields and the argument tuple, as indices
    into its reached list, of each of its attempts in order."""
    calls = []

    def traced(lookup, gvals, compose=compose_values):
        calls.append(gvals)
        return compose(lookup, gvals)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(globals(), "compose_values", traced)
        fields = _reference_closure(base, n, DEFAULT_CLOSURE_BUDGET)
    index = {values: i for i, values in enumerate(fields[0])}
    return fields, [tuple(index[v] for v in gvals) for gvals in calls]


def _composed_tuples(monkeypatch) -> list:
    """Patches the closure's kernel to record the size of every batch of
    argument tuples it composes; returns the list of sizes."""
    sizes, kernel = [], clone._gather_kernel

    def counting(*args):
        pack, form, table, compose = kernel(*args)

        def counted(idx_tuples, tables):
            idx_tuples = list(idx_tuples)
            sizes.append(len(idx_tuples))
            return compose(idx_tuples, tables)

        return pack, form, table, counted

    monkeypatch.setattr(clone, "_gather_kernel", counting)
    return sizes


@pytest.mark.parametrize("lat,n", [(n5(), 3), (m_lattice(3), 3), (chain(2), 4)],
                         ids=["n5-3", "m3-3", "chain2-4"])
def test_mirrored_fixpoint_and_cuts_match_reference(lat, n, monkeypatch):
    base = _meet_join(lat)
    assert all(clone._commutes(f.values, lat.size) for f in base)
    fields, trace = _reference_trace(base, n)
    sizes = _composed_tuples(monkeypatch)
    got = closure(base, n)
    assert _fields(got) == fields and not got.budget_hit
    # the tuples (x, d) of every level d are counted, not composed
    levels = got.rounds
    assert sum(sizes) == got.attempts // 2 - levels * (levels - 1) // 2
    # budgets cut at each table of (d, 1), of (1, d) and of (d, d) for one
    # level d: inside the composed half, the counted half and at the diagonal
    d = levels // 2
    at = {}
    for attempt, idxs in enumerate(trace, 1):
        at.setdefault(idxs, []).append(attempt)
    budgets = [b for t in [(d, 1), (1, d), (d, d)] for b in at[t]]
    assert len(budgets) == 6 and budgets == sorted(budgets)
    for budget in budgets:
        got = closure(base, n, budget)
        assert _fields(got) == _reference_closure(base, n, budget)
        assert got.budget_hit and got.attempts == budget


def _meet_with_join_a(lat, a):
    """x meet (y join a): idempotent, and not commutative unless a is the
    bottom or the top."""
    return from_callable(lat, 2, lambda xs: lat.meet(xs[0], lat.join(xs[1], a)),
                         name="mja")


@pytest.mark.parametrize("lat", [chain(3), m_lattice(2)], ids=lambda lat: lat.name)
@pytest.mark.parametrize("others", [[], ["meet"], ["meet", "join"]])
def test_a_noncommutative_table_turns_the_mirror_off(lat, others, monkeypatch):
    mja = _meet_with_join_a(lat, 1)
    assert is_idempotent(mja) and not clone._commutes(mja.values, lat.size)
    base = [{"meet": meet_fn, "join": join_fn}[name](lat) for name in others] + [mja]
    sizes = _composed_tuples(monkeypatch)
    got = closure(base, 2)
    assert _fields(got) == _reference_closure(base, 2, DEFAULT_CLOSURE_BUDGET)
    assert not got.budget_hit
    assert sum(sizes) * len(base) == got.attempts  # every tuple composed
    for budget in (got.attempts // 3, got.attempts // 2 + 1, got.attempts - 1):
        assert _fields(closure(base, 2, budget)) == _reference_closure(base, 2, budget)


@st.composite
def mixed_stream_cases(draw):
    lat = draw(st.sampled_from([chain(3), m_lattice(2)]))
    m = lat.size
    cell = st.integers(0, m - 1)
    base = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):  # a commutative table, drawn on and below the diagonal
            low = draw(st.lists(cell, min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2))
            tri = iter(low)
            grid = [[0] * m for _ in range(m)]
            for x in range(m):
                for y in range(x + 1):
                    grid[x][y] = grid[y][x] = next(tri)
            values = tuple(itertools.chain.from_iterable(grid))
        else:
            values = tuple(draw(st.lists(cell, min_size=m * m, max_size=m * m)))
        base.append(FnTable(lat, 2, values))
    if draw(st.booleans()):
        base.append(FnTable(lat, 3, tuple(draw(st.lists(cell, min_size=m**3,
                                                        max_size=m**3)))))
    return base, draw(st.integers(1, 3)), draw(st.integers(1, 3000)), draw(st.randoms())


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(mixed_stream_cases(), st.booleans())
def test_closure_matches_reference_on_mixed_binary_streams(case, with_keys):
    base, n, budget, rng = case
    keys = None
    if with_keys:  # a target drawn from what the run reaches, maybe one unreachable key
        reached = sorted(closure(base, n, budget).keys)
        keys = set(rng.sample(reached, rng.randint(1, len(reached))))
        if rng.random() < 0.3:
            keys.add((n, ()))
    assert _fields(closure(base, n, budget, keys)) == _reference_closure(base, n, budget, keys)


# ---------------------------------------------------------------- certificate


@pytest.mark.parametrize(
    "lat,n",
    [(chain(2), 2), (chain(2), 3), (chain(2), 4), (chain(3), 2), (m_lattice(2), 2)],
    ids=lambda v: getattr(v, "name", v),
)
def test_certificate_agrees_with_the_brute_force_closure(lat, n):
    ids = enumerate_class(lat, n, "idempotent")
    keys = {f.key() for f in ids}
    base = _reduced_base(lat)
    cert = certify(base, ids)
    brute = closure(base, n, until_keys=keys)
    assert not brute.budget_hit
    assert cert.keys == brute.keys == keys
    assert [f.values for f in cert.reached] == [f.values for f in ids]
    assert not cert.budget_hit and cert.rounds in (0, 1)


def _join_iotas(lat):
    """The reduced iotas iota[a,b,1;1]: each equals the ternary join."""
    top = lat.labels[lat.top]
    return [spec.table(lat) for spec in reduced_generator_set(lat) if spec.target == top]


@pytest.mark.parametrize("extra", [lambda lat: [], _join_iotas],
                         ids=["meet-join", "meet-join-join-iotas"])
def test_certificate_and_closure_fail_alike_on_a_weakened_base(chain3, extra):
    ids = enumerate_class(chain3, 2, "idempotent")
    base = _meet_join(chain3) + extra(chain3)
    keys = {f.key() for f in ids}
    brute = closure(base, 2)  # the fixpoint: everything the base generates
    assert not brute.budget_hit
    cert = certify(base, ids)
    unreached = keys - brute.keys
    uncertified = keys - cert.keys
    assert unreached and uncertified == unreached
    assert cert.keys == brute.keys  # the four lattice polynomials
    assert cert.rounds == (1 if extra(chain3) else 0)


@pytest.mark.parametrize("lat", [chain(3), m_lattice(2), n5()], ids=lambda lat: lat.name)
def test_certificate_of_meet_and_join_is_the_closure(lat):
    # with both in the base, G = P certifies exactly P, which is the closure
    ids = enumerate_class(lat, 2, "idempotent")
    cert = certify(_meet_join(lat), ids)
    brute = closure(_meet_join(lat), 2)
    assert not brute.budget_hit
    assert cert.keys == brute.keys and cert.rounds == 0


def test_certificate_join_alone_leaves_the_meet_uncertified(diamond):
    # only x1, x2 and x1 v x2 lie in the clone of the join: nothing in it
    # takes a value <= 0 at (a1, a2), so that majorant set is empty
    join, meet = join_fn(diamond), meet_fn(diamond)
    fns = {f.values for f in (projection(diamond, 2, 1), projection(diamond, 2, 2), join)}
    upper = clone._majorants(diamond, fns, True)
    a1a2 = diamond.index("a1") * diamond.size + diamond.index("a2")
    assert upper[a1a2][diamond.bottom] == -1
    members = [projection(diamond, 2, 1), meet, join]
    report = certify([join], members)
    assert [f.values for f in report.reached] == [members[0].values, join.values]


def _reference_majorants(lat, fns: set, has_join: bool) -> list[list[int]]:
    """The majorant table walked pair by pair: upper[c][v] is the pointwise
    join of {g in fns : g(c) <= v} packed as down-set masks, or 0 when that
    set is empty or, without the join, when its join is not in fns.  The
    join at cell x is read off the distinct pairs (g(c), g(x))."""
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


@pytest.mark.parametrize(
    "lat,n",
    [(chain(3), 2), (m_lattice(2), 2), (n5(), 2), (m_lattice(3), 2), (chain(3), 3)],
    ids=lambda v: getattr(v, "name", v),
)
@pytest.mark.parametrize("has_join", [True, False], ids=["join", "no-join"])
def test_majorants_match_the_pair_walk(lat, n, has_join):
    # G is the seed plus one generator level; the reference's 0 and the
    # table's -1 both mark an entry that certifies nothing
    base = _reduced_base(lat)
    seed = clone._seed(lat, n, True, True)
    level = sorted(set(seed) | clone._generator_level(base[2:], seed, lat, n))
    cells = lat.size**n
    up, down = _packer(lat, "up"), _packer(lat, "down")
    rng = random.Random(f"{lat.name}:{n}")
    kept = 0
    for size in (1, 2, 7, len(level) // 8, len(level)):
        fns = set(rng.sample(level, size))
        got = clone._majorants(lat, fns, has_join)
        want = _reference_majorants(lat, fns, has_join)
        assert [[None if h == -1 else up.unpack(h, cells) for h in row] for row in got] \
            == [[None if h == 0 else down.unpack(h, cells) for h in row] for row in want]
        kept += sum(h != -1 for row in got for h in row)
    assert kept


def test_certificate_needs_the_meet_in_the_base(chain2):
    # on chain2 every majorant set of the meet is nonempty and their meet is
    # the meet itself, but the join alone does not generate it
    meet = meet_fn(chain2)
    assert not closure([join_fn(chain2)], 2).keys >= {meet.key()}
    assert certify([join_fn(chain2)], [meet]).reached == []
    assert certify([meet_fn(chain2), join_fn(chain2)], [meet]).reached == [meet]


def test_certificate_needs_the_join_in_the_base(chain2):
    join = join_fn(chain2)
    assert certify([meet_fn(chain2)], [join]).reached == []
    assert certify([meet_fn(chain2), join], [join]).reached == [join]


def test_certificate_leaves_a_function_below_the_meet_uncertified(diamond):
    # constant bottom is not idempotent: every clone member takes 1 at
    # (1, 1), so its majorant set there is empty
    bottom = FnTable(diamond, 2, (diamond.bottom,) * 16)
    report = certify(_reduced_base(diamond), [bottom, meet_fn(diamond)])
    assert [f.values for f in report.reached] == [meet_fn(diamond).values]


@pytest.mark.parametrize("lat,n", [(chain(4), 2), (chain(3), 3), (n5(), 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_certificate_covers_the_class(lat, n):
    ids = enumerate_class(lat, n, "idempotent")
    report = certify(_reduced_base(lat), ids)
    assert len(report.reached) == len(ids)
    assert report.rounds == 1 and report.attempts <= DEFAULT_CLOSURE_BUDGET


def test_certificate_on_two_byte_fields():
    # nine elements: every down-set mask takes two bytes per cell
    lat = m_lattice(7)
    a1, a2 = lat.index("a1"), lat.index("a2")
    members = [projection(lat, 2, 1), meet_fn(lat), join_fn(lat),
               make_chi(lat, (a1, a2), a1), make_chi(lat, (a2, lat.top), a2)]
    report = certify(_reduced_base(lat), members)
    assert report.reached == members and report.rounds == 1
    outside = FnTable(lat, 2, (lat.bottom,) * 81)
    assert certify(_reduced_base(lat), [outside]).reached == []


def test_part_b_on_two_byte_fields():
    # nine elements: every down-set mask takes two bytes per cell, and the 81
    # cells are over the enumerator's budget, so the members are given
    lat = m_lattice(7)
    a1, a2 = lat.index("a1"), lat.index("a2")
    members = [projection(lat, 2, 1), meet_fn(lat), join_fn(lat),
               make_chi(lat, (a1, a2), a1), make_chi(lat, (a2, lat.top), a2)]
    _, _, tables = _tables(lat, 2)

    def unrecovered(fns):
        buffer = bytes(itertools.chain.from_iterable(f.values for f in fns))
        return [fns[i] for i in clone._member_pass(lat, 2, buffer, [tables])[0]]

    assert unrecovered(members) == []
    # x1 with (a1, a2) moved from a1 to a2, inside [bottom, top]: (a1, bottom)
    # below it still maps to a1, so the table is no longer monotone
    values = list(members[0].values)
    values[a1 * lat.size + a2] = a2
    moved = FnTable(lat, 2, tuple(values))
    assert not is_monotone(moved)
    assert unrecovered([*members, moved]) == [moved]


def test_certificate_skips_the_generator_level_when_p_suffices():
    lat = chain(2)
    ids = enumerate_class(lat, 4, "idempotent")
    report = certify(_reduced_base(lat), ids, budget=1)
    assert (report.rounds, report.attempts, len(report.reached)) == (0, 0, 166)


def test_certificate_budget_counts_generator_applications(chain3):
    ids = enumerate_class(chain3, 2, "idempotent")
    assert certify(_reduced_base(chain3), ids, budget=896).attempts == 896
    with pytest.raises(BudgetExceeded):
        certify(_reduced_base(chain3), ids, budget=895)


def test_certificate_refuses_a_base_outside_the_idempotent_class(chain3):
    ids = enumerate_class(chain3, 2, "idempotent")
    constant = FnTable(chain3, 2, (1,) * 9)
    with pytest.raises(NotIdempotent):
        certify(_meet_join(chain3) + [constant], ids)
    # idempotent but not monotone: swaps the order off the diagonal
    swap = FnTable(chain3, 2, tuple(x if x == y else 2 - x for x in range(3) for y in range(3)))
    assert is_idempotent(swap) and not is_monotone(swap)
    with pytest.raises(NotIdempotent):
        certify(_meet_join(chain3) + [swap], ids)


def test_certificate_argument_errors(chain2, chain3):
    ids = enumerate_class(chain2, 2, "idempotent")
    with pytest.raises(InvalidArgument):
        certify([], ids)
    with pytest.raises(InvalidArgument):
        certify(_meet_join(chain2), [])
    with pytest.raises(InvalidArgument):
        certify(_meet_join(chain2), ids, budget=0)
    with pytest.raises(LatticeMismatch):
        certify(_meet_join(chain3), ids)
    with pytest.raises(ArityMismatch):
        certify(_meet_join(chain2), ids + [projection(chain2, 3, 1)])


@pytest.mark.parametrize(
    "lat,chis,attempts,insertions",
    [(m_lattice(3), 497, 4750, 360), (chain(4), 184, 3750, 294),
     (boolean(2), 196, 3125, 219), (n5(), 467, 5375, 435), (chain(3), 63, 1750, 108)],
    ids=lambda v: getattr(v, "name", v),
)
def test_part_a_certifies_every_chi_at_arity_3(lat, chis, attempts, insertions):
    # the classes are past the count budget; the chis alone are certified
    report, a, b = _tables(lat, 3)
    assert len(clone._admissible_pairs(lat, 3)) == len(report.reached) == chis
    assert (report.rounds, report.attempts, report.insertions) == (1, attempts, insertions)
    assert sum(map(bool, itertools.chain.from_iterable(a))) == chis and a == b


def _without(drop):
    """reduced_generator_set without the iota labelled drop."""
    return lambda lat: [s for s in reduced_generator_set(lat) if s.format() != drop]


@pytest.mark.parametrize(
    "lat,n,drop,uncertified,chis",
    [(chain(3), 2, "iota[0,1,2;0]", 2, 17), (chain(3), 3, "iota[0,1,2;0]", 12, 63),
     (n5(), 2, "iota[0,a,1;0]", 2, 67), (n5(), 2, "iota[a,b,1;a]", 2, 67)],
    ids=lambda v: getattr(v, "name", v),
)
def test_part_a_fails_without_a_needed_iota(lat, n, drop, uncertified, chis, monkeypatch):
    # the seed and its level are not a vacuous certificate: without one
    # needed iota, part A leaves chis uncertified while every operand of
    # part B still tabulates to its chi
    monkeypatch.setattr(clone, "reduced_generator_set", _without(drop))
    base = [meet_fn(lat), join_fn(lat), *(s.table(lat) for s in clone.reduced_generator_set(lat))]
    specs = tuple(clone.reduced_generator_set(lat))
    report, a, b = clone._anchor_tables(lat, n, specs, DEFAULT_CLOSURE_BUDGET)
    assert len(base) == len(_reduced_base(lat)) - 1
    assert [sum(map(bool, itertools.chain.from_iterable(t))) for t in (a, b)] \
        == [chis - uncertified, chis]
    assert len(clone._admissible_pairs(lat, n)) - len(report.reached) == uncertified


def test_verify_generation_fails_part_a_alone_without_a_needed_iota(chain3, monkeypatch):
    monkeypatch.setattr(clone, "reduced_generator_set", _without("iota[0,1,2;0]"))
    # 55 of the 64 members need one of the two chis left uncertified
    report = verify_generation(chain3, 2)
    assert not report.closure_pass and report.decomposition_pass
    assert len(report.counterexamples) == 55


def test_verify_generation_on_chain2_at_arity_5():
    # the seed certifies every chi at once: no generator level is built
    report = verify_generation(chain(2), 5)
    assert report.ok and report.id_count == 7579
    assert report.closure_report.rounds == 0
    assert len(report.closure_report.reached) == 7579


def test_verify_generation_reports_uncertified_members(chain3, monkeypatch):
    # part A over {meet, join} alone: only 9 of the 17 chis lie in P, and
    # only the join is the meet of its own chis among them; the other 63
    # members come back as counterexamples, while every operand is right
    monkeypatch.setattr(clone, "reduced_generator_set", lambda lat: [])
    _, a, b = clone._anchor_tables(chain3, 2, (), DEFAULT_CLOSURE_BUDGET)
    assert [sum(1 for row in t for chi in row if chi) for t in (a, b)] == [9, 17]
    report = verify_generation(chain3, 2)
    assert not report.closure_pass and report.decomposition_pass
    assert report.closure_report.reached == [join_fn(chain3)]
    assert len(report.counterexamples) == 63
    assert not {f.key() for f in report.counterexamples} & report.closure_report.keys


@pytest.mark.parametrize(
    "lat,n",
    [(chain(3), 2), (m_lattice(2), 2), (chain(2), 4), (chain(4), 2)],
    ids=lambda v: getattr(v, "name", v),
)
def test_anchor_route_reaches_what_the_member_certificate_certifies(lat, n):
    # the member-wise certificate is the reference for part A's reached set
    ids = enumerate_class(lat, n, "idempotent")
    report = verify_generation(lat, n)
    reached = report.closure_report.reached
    assert report.closure_report.keys == certify(_reduced_base(lat), ids).keys
    assert isinstance(reached, PackedClass)
    assert list(reached.vectors()) == list(ids.vectors())


@pytest.mark.parametrize("v", [1, 2])
def test_a_pair_taken_as_inadmissible_fails_both_parts(v, monkeypatch):
    # cell 2 is the tuple (0, 2), which admits v = 1 and v = 2: with the pair
    # (2, v) missing, its chi is neither certified nor checked.  A lattice
    # of its own: no anchor tables on it predate the patch
    chain3 = chain(3)
    real = clone._admissible_pairs
    monkeypatch.setattr(clone, "_admissible_pairs",
                        lambda lat, n: [p for p in real(lat, n) if p != (2, v)])
    report = verify_generation(chain3, 2)
    assert not report.closure_pass and not report.decomposition_pass
    ids = enumerate_class(chain3, 2, "idempotent")
    flagged = [f for f in ids if f.values[2] == v]
    assert flagged and report.counterexamples == flagged
    assert report.closure_report.keys == {f.key() for f in ids} - {f.key() for f in flagged}


def test_a_wrong_chi_fails_part_b(monkeypatch):
    # serve chi_{(0,2),0} for the pair of cell 2 and value 1: the operand of
    # (2, 1) no longer tabulates to it, and the members with f(0, 2) = 1 are
    # not its meet with their other chis either.  A lattice of its own: no
    # anchor tables on it predate the patch
    chain3 = chain(3)
    real = clone.make_chi
    monkeypatch.setattr(clone, "make_chi",
                        lambda lat, a, b: real(lat, a, 0 if (a, b) == ((0, 2), 1) else b))
    report = verify_generation(chain3, 2)
    assert not report.decomposition_pass and not report.closure_pass
    ids = enumerate_class(chain3, 2, "idempotent")
    assert report.counterexamples == [f for f in ids if f.values[2] == 1]


def test_closure_refuses_a_base_on_two_lattices(chain2, chain3):
    with pytest.raises(LatticeMismatch, match="operands live on different lattices"):
        closure([meet_fn(chain2), join_fn(chain3)], 2)


def _reference_unrecovered(lat, n, rows, vectors):
    """The member pass as a scalar fold, one vector at a time: the indices
    of the vectors f whose meet over the cells k of the chi of (k, f(k)),
    or of nothing where rows[k][f(k)] is 0, is not f.  The meets are
    big-int ands of down-set masks, as down(x meet y) = down(x) & down(y)."""
    pack, points = _packer(lat, "down").pack, all_tuples(lat.size, n)
    chis = [[pack(make_chi(lat, points[k], v).values) if row[v] else 0
             for v in range(lat.size)] for k, row in enumerate(rows)]
    return [i for i, values in enumerate(vectors)
            if reduce(and_, map(getitem, chis, values)) != pack(values)]


def _failed(rows, k, v):
    """rows with the pair (k, v) failed."""
    return [row[:v] + b"\0" + row[v + 1:] if j == k else row for j, row in enumerate(rows)]


@pytest.mark.parametrize(
    "lat,n",
    [(chain(3), 2), (m_lattice(2), 2), (chain(2), 4), (chain(4), 2), (chain(3), 3)],
    ids=lambda v: getattr(v, "name", v),
)
def test_member_pass_matches_the_scalar_fold(lat, n):
    # chain3^3's 116 211 members take four blocks of the pass
    ids = enumerate_class(lat, n, "idempotent")
    _, a, b = _tables(lat, n)
    pairs = clone._admissible_pairs(lat, n)
    k, v = pairs[len(pairs) // 2]
    failed = _failed(a, k, v)
    got = clone._member_pass(lat, n, ids._buffer, [a, b, failed])
    vectors = list(ids.vectors())
    assert got == [[], [], _reference_unrecovered(lat, n, failed, vectors)]
    assert got[2] == [i for i, f in enumerate(vectors) if f[k] == v] != []


def _planted(lat, n, anywhere):
    """Value vectors of lat at arity n: each cell's value anywhere in lat,
    or only between the meet and the join of its tuple."""
    cells = _cells(lat, n)
    between = [[v for v in range(lat.size) if lat.leq(lo, v) and lat.leq(v, hi)]
               for lo, hi in zip(cells.lows, cells.highs)]
    return st.tuples(*(st.sampled_from(range(lat.size) if anywhere else vs) for vs in between))


_MUTANT_CASES = [(chain(3), 2), (m_lattice(2), 2), (chain(4), 2), (chain(2), 3)]


@pytest.mark.parametrize("anywhere", [False, True])
@pytest.mark.parametrize("lat,n", _MUTANT_CASES, ids=lambda v: getattr(v, "name", v))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_member_pass_marks_a_planted_vector_outside_the_class(lat, n, anywhere, data):
    # a vector planted among members is marked exactly when it is not in
    # Id^n: in the cells' intervals, exactly when it is not monotone
    ids = enumerate_class(lat, n, "idempotent")
    _, a, _ = _tables(lat, n)
    members = list(itertools.islice(ids.vectors(), 30))
    planted = data.draw(_planted(lat, n, anywhere))
    at = data.draw(st.integers(0, len(members)))
    vectors = [*members[:at], planted, *members[at:]]
    buffer = bytes(itertools.chain.from_iterable(vectors))
    got = clone._member_pass(lat, n, buffer, [a])[0]
    inside = is_monotone(FnTable(lat, n, planted)) and all(
        lat.leq(lo, x) and lat.leq(x, hi)
        for lo, hi, x in zip(_cells(lat, n).lows, _cells(lat, n).highs, planted))
    assert got == ([] if inside else [at]) == _reference_unrecovered(lat, n, a, vectors)


@pytest.mark.parametrize("lat,n", _MUTANT_CASES, ids=lambda v: getattr(v, "name", v))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_member_pass_marks_the_members_of_a_failed_pair(lat, n, data):
    # one pair failed in A and another in B: each marks exactly the members
    # that take its value at its cell
    ids = enumerate_class(lat, n, "idempotent")
    _, a, b = _tables(lat, n)
    pairs = clone._admissible_pairs(lat, n)
    (ka, va), (kb, vb) = data.draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2))
    missed, wrong = clone._member_pass(lat, n, ids._buffer,
                                       [_failed(a, ka, va), _failed(b, kb, vb)])
    vectors = list(ids.vectors())
    assert missed == [i for i, f in enumerate(vectors) if f[ka] == va] != []
    assert wrong == [i for i, f in enumerate(vectors) if f[kb] == vb] != []


def _report_fields(report):
    r = report.closure_report
    return (report.lattice_name, report.arity, report.id_count, report.closure_pass,
            report.decomposition_pass, report.counterexamples, r.rounds, r.attempts,
            r.insertions, r.budget_hit, list(r.reached.vectors()))


@pytest.mark.parametrize("lat,n", [(m_lattice(2), 2), (chain(2), 4)],
                         ids=lambda v: getattr(v, "name", v))
def test_a_warm_verify_reports_what_the_cold_one_does(lat, n):
    reports = []
    for _ in range(2):
        start = time.monotonic()
        reports.append(verify_generation(lat, n))
        # elapsed is the time of this call, not that of the call that built the tables
        assert 0 < reports[-1].closure_report.elapsed <= time.monotonic() - start
    cold, warm = reports
    assert _report_fields(cold) == _report_fields(warm)
    assert _tables(lat, n) is _tables(lat, n)


def test_a_generator_set_patched_after_a_passing_run_still_fails_part_a(chain3, monkeypatch):
    assert verify_generation(chain3, 2).ok
    monkeypatch.setattr(clone, "reduced_generator_set", _without("iota[0,1,2;0]"))
    report = verify_generation(chain3, 2)
    assert not report.closure_pass and len(report.counterexamples) == 55
    monkeypatch.undo()
    assert verify_generation(chain3, 2).ok


def test_verify_past_the_generator_budget_keeps_no_tables():
    lat = chain(3)
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            verify_generation(lat, 2, budget=895)
    assert verify_generation(lat, 2, budget=896).ok
