import functools
import itertools

import pytest

from latclone import (
    chain,
    enumerate_class,
    from_covers,
    h_agg,
    h_id,
    h_majorant,
    is_aggregation,
    is_idempotent,
    join_fn,
    m_lattice,
    make_chi,
    make_chi_unchecked,
    make_iota,
    make_mu,
    make_oplus,
    meet_fn,
    n5,
    pointwise_meet,
    projection,
    reduce_iota_pair,
    reduced_generator_set,
)
from latclone.errors import (
    ArityMismatch,
    EmptyAgreementSet,
    IndexOutOfRange,
    InvalidSize,
    InvalidSpec,
    LatticeMismatch,
    NotAggregation,
    NotIdempotent,
    PreconditionViolated,
    TermSyntaxError,
)
from latclone import functable
from latclone.functable import (FnTable, all_tuples, from_callable, is_monotone, leq_pointwise,
                                tuple_index)
from latclone.generators import (
    GeneratorSpec,
    chi_spec,
    count_generators_chain,
    count_generators_m,
    iota_spec,
    mu_spec,
    oplus_spec,
    parse_spec,
)
from latclone.terms import parse_term


def test_chi_cases(chain3):
    chi = make_chi(chain3, (1, 2), 1)
    assert chi((0, 2)) == 1  # (0,2) <= (1,2): 1 meet 2
    assert chi((2, 0)) == 2  # (2,0) not<= (1,2): join
    assert chi((1, 1)) == 1


def test_chi_with_top_threshold_is_join(diamond):
    top = diamond.top
    chi = make_chi(diamond, (top, top), top)
    assert chi.values == join_fn(diamond).values


def test_chi_precondition(chain3):
    with pytest.raises(PreconditionViolated):
        make_chi(chain3, (1, 2), 0)
    # the unchecked variant builds the (non-idempotent) table anyway
    bad = make_chi_unchecked(chain3, (1, 2), 0)
    assert not is_idempotent(bad)


@pytest.mark.parametrize(
    "lat", [chain(2), chain(3), m_lattice(2)], ids=lambda l: l.name
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_chi_idempotent_aggregation_exhaustive(lat, n):
    for a in all_tuples(lat.size, n):
        wa = lat.meet_all(a)
        for b in range(lat.size):
            if not lat.leq(wa, b):
                continue
            chi = make_chi(lat, a, b)
            assert is_aggregation(chi)
            assert is_idempotent(chi)


def test_iota_cases(chain3):
    io = make_iota(chain3, 0, 1, 2, 1)
    assert io((0, 1, 2)) == 1
    with pytest.raises(PreconditionViolated):
        make_iota(chain3, 0, 2, 1, 1)


def test_iota_trivial_threshold_is_ternary_join(chain3):
    io = make_iota(chain3, 0, 0, chain3.top, chain3.top)
    tj = from_callable(chain3, 3, lambda xs: chain3.join_all(xs))
    assert io.values == tj.values


def test_iota_equals_ternary_chi(diamond):
    for a, b, c, d in itertools.product(range(diamond.size), repeat=4):
        if not (
            diamond.leq(a, b) and diamond.leq(b, c)
            and diamond.leq(a, d) and diamond.leq(d, c)
        ):
            continue
        assert make_iota(diamond, a, b, c, d).values == make_chi(
            diamond, (a, b, c), d
        ).values


def test_mu_cases(chain3):
    mu1 = make_mu(chain3, 1)
    assert [mu1((x,)) for x in range(3)] == [0, 0, 2]
    mu_top = make_mu(chain3, chain3.top)
    assert [mu_top((x,)) for x in range(3)] == [0, 0, 2]


def test_oplus_cases(chain3):
    op = make_oplus(chain3, 1)
    assert op((0, 2)) == 1
    assert op((2, 2)) == 2
    assert op((0, 0)) == 0
    assert op((1, 2)) == 1


def test_h_majorant_hand_example(chain2):
    pool = enumerate_class(chain2, 2, "idempotent")
    h = h_majorant(pool, meet_fn(chain2), (0, 1))
    # agreeing at (0,1) with value 0: meet and p1; their join is p1
    assert h.values == projection(chain2, 2, 1).values


def test_h_majorant_majorizes_pool_member(chain3):
    pool = enumerate_class(chain3, 2, "idempotent")
    members = list(pool)
    for f in pool[::7]:
        for a in all_tuples(3, 2):
            h = h_majorant(pool, f, a)
            assert leq_pointwise(f, h)
            assert h == h_majorant(members, f, a)  # the packed pool reads its vectors


def test_h_majorant_empty_agreement(chain2):
    pool = [join_fn(chain2)]
    outside = FnTable(chain2, 2, (0, 0, 0, 1))  # meet; disagrees at (0,1)
    with pytest.raises(EmptyAgreementSet):
        h_majorant(pool, outside, (0, 1))


def test_h_majorant_rejects_a_pool_member_of_another_shape(chain2, chain3):
    f = meet_fn(chain3)
    pool = [f, join_fn(chain3)]
    with pytest.raises(ArityMismatch):
        h_majorant(pool + [projection(chain3, 3, 1)], f, (0, 1))
    with pytest.raises(LatticeMismatch):
        h_majorant(pool + [join_fn(chain2)], f, (0, 1))
    with pytest.raises(ArityMismatch):
        h_majorant(enumerate_class(chain3, 1, "idempotent"), f, (0, 1))
    with pytest.raises(LatticeMismatch):
        h_majorant(enumerate_class(chain2, 2, "idempotent"), f, (0, 1))


def test_recovery_from_majorants(chain3):
    pool = enumerate_class(chain3, 2, "idempotent")
    for f in pool:
        hs = (h_majorant(pool, f, a) for a in all_tuples(3, 2))
        assert functools.reduce(pointwise_meet, hs).values == f.values


def test_h_id_equals_join_on_chain2(chain2):
    chi = h_id(join_fn(chain2), (0, 1))
    assert chi.values == (0, 1, 1, 1)


def test_h_id_at_all_bottom_is_join_all(chain3):
    f = from_callable(chain3, 2, lambda xs: chain3.meet_all(xs))
    h = h_id(f, (0, 0))
    assert h.values == join_fn(chain3).values


def test_h_id_matches_h_majorant(chain3):
    pool = enumerate_class(chain3, 2, "idempotent")
    for f in pool:
        for a in all_tuples(3, 2):
            assert h_id(f, a).values == h_majorant(pool, f, a).values


def test_h_id_rejects_non_idempotent(chain2):
    with pytest.raises(NotIdempotent):
        h_id(FnTable(chain2, 2, (0, 0, 0, 0)), (0, 0))


def test_h_agg_hand_example(chain2):
    h = h_agg(join_fn(chain2), (0, 1))
    assert h.values == (0, 1, 1, 1)


def test_h_agg_all_top_anchor(chain3):
    # with a = (1,...,1) every x > 0 falls in the f(a) branch, and f(a) = top
    h = h_agg(join_fn(chain3), (chain3.top, chain3.top))
    for xs in all_tuples(3, 2):
        assert h(xs) == (0 if xs == (0, 0) else chain3.top)


def test_h_agg_recovery(chain2, chain3):
    for lat in (chain2, chain3):
        for f in enumerate_class(lat, 2, "aggregation"):
            hs = (h_agg(f, a) for a in all_tuples(lat.size, 2))
            assert functools.reduce(pointwise_meet, hs).values == f.values


def test_h_agg_rejects_non_aggregation(chain2):
    with pytest.raises(NotAggregation):
        h_agg(FnTable(chain2, 2, (1, 1, 1, 1)), (0, 0))


def test_h_agg_checks_aggregation_once_per_table(chain2, monkeypatch):
    calls = []
    monkeypatch.setattr(functable, "is_monotone",
                        lambda f: calls.append(f) or is_monotone(f))
    g = FnTable(chain2, 2, join_fn(chain2).values)
    hs = [h_agg(g, a) for a in all_tuples(2, 2)]
    assert functools.reduce(pointwise_meet, hs).values == g.values
    assert calls == [g]
    f = FnTable(chain2, 2, (1, 1, 1, 1))
    for a in all_tuples(2, 2):  # the kept verdict refuses f at every anchor
        with pytest.raises(NotAggregation):
            h_agg(f, a)


def test_reduce_iota_pair_specs(chain3):
    s1, s2 = reduce_iota_pair(chain3, 0, 1, 2, 1)
    assert s1.format() == "iota[0,1,2;1]"
    assert s2.format() == "iota[0,2,2;1]"
    with pytest.raises(PreconditionViolated):
        reduce_iota_pair(chain3, 0, 2, 1, 1)


@pytest.mark.parametrize("lat", [chain(3), m_lattice(2)], ids=lambda l: l.name)
def test_reduce_iota_identity_on_comparable_triples(lat):
    for a, b, c, d in itertools.product(range(lat.size), repeat=4):
        if not (
            lat.leq(a, b) and lat.leq(b, c) and lat.leq(a, d) and lat.leq(d, c)
        ):
            continue
        full = make_iota(lat, a, b, c, d)
        s1, s2 = reduce_iota_pair(lat, a, b, c, d)
        for x in itertools.product(range(lat.size), repeat=3):
            if not (lat.leq(x[0], x[1]) and lat.leq(x[1], x[2])):
                continue
            rhs = lat.join(s1.apply(lat, x), s2.apply(lat, (x[0], x[2], x[2])))
            assert full(x) == rhs


def test_reduced_generator_set_counts(chain2, chain3, diamond):
    assert len(reduced_generator_set(chain2)) == 5
    assert len(reduced_generator_set(chain3)) == 14
    assert len(reduced_generator_set(diamond)) == 25


def test_reduced_generator_set_shape(chain3):
    specs = reduced_generator_set(chain3)
    assert len(set(specs)) == len(specs)
    top_label = chain3.labels[chain3.top]
    for spec in specs:
        assert spec.kind == "iota"
        a, b, c = (chain3.index(lab) for lab in spec.bound)
        assert c == chain3.top
        assert chain3.leq(a, b)
        assert chain3.leq(a, chain3.index(spec.target))
        assert spec.bound[2] == top_label


def test_counting_closed_forms():
    assert count_generators_chain(3) == 16
    assert count_generators_m(6) == 55
    for n in range(2, 11):
        assert count_generators_chain(n) == sum(i * i for i in range(1, n + 1)) + 2
        assert (
            count_generators_chain(n)
            == len(reduced_generator_set(chain(n))) + 2
        )
    for n in range(4, 11):
        assert count_generators_m(n) == n * n + 4 * n - 5
        assert (
            count_generators_m(n)
            == len(reduced_generator_set(m_lattice(n - 2))) + 2
        )
    with pytest.raises(InvalidSize):
        count_generators_chain(1)
    with pytest.raises(InvalidSize):
        count_generators_m(3)


def test_spec_text_round_trip(pentagon):
    for spec in reduced_generator_set(pentagon)[:10]:
        assert parse_spec(spec.format()) == spec
    mu = parse_spec("mu[a]")
    assert mu.kind == "mu" and mu.bound == ("a",)
    chi = parse_spec("chi[a,b;1]")
    assert chi.arity == 2 and chi.target == "1"


@pytest.mark.parametrize("token", [
    "iota[0,,1,2;1]", "iota[,0,1,2;1]", "chi[0,1,;1]", "mu[a,]", "oplus[,1]",
    "mu[]", "chi[;1]", "chi[0;]",
])
def test_parse_spec_refuses_empty_labels(token):
    with pytest.raises(InvalidSpec, match="malformed generator spec"):
        parse_spec(token)


@pytest.mark.parametrize("kind, bound, target", [
    ("mu", ("a b",), None), ("oplus", ("a#",), None), ("mu", ("",), None),
    ("chi", ("0;1",), "2"), ("chi", ("0", "1"), "x->y"), ("iota", ("0", "1", "(2)"), "1"),
    ("iota", ("0", "1", "2"), "1\n"),
])
def test_spec_refuses_labels_outside_the_label_grammar(kind, bound, target):
    with pytest.raises(InvalidSpec, match="bad generator label"):
        GeneratorSpec(kind, bound, target)


def test_parse_spec_refuses_a_label_holding_a_delimiter():
    # 'chi[0;1;2]' would otherwise give a chi with the label '0;1'
    with pytest.raises(InvalidSpec, match="bad generator label '0;1'"):
        parse_spec("chi[0;1;2]")
    with pytest.raises(TermSyntaxError, match="bad generator label"):
        parse_term("(chi[0;1;2] x1)", 1)


def reference_apply(spec, lat, args):
    """Slow reference: each generator's defining formula, resolving the
    labels on every call."""
    bound = tuple(lat.index(lab) for lab in spec.bound)
    if spec.kind in ("chi", "iota"):
        jx = lat.join_all(args)
        if lat.leq_tuple(args, bound):
            return lat.meet(lat.index(spec.target), jx)
        return jx
    (a,) = bound
    if spec.kind == "mu":
        (x,) = args
        return lat.bottom if lat.leq(x, a) and x != lat.top else lat.top
    x, y = args
    if x == lat.top and y == lat.top:
        return lat.top
    if x == lat.bottom and y == lat.bottom:
        return lat.bottom
    return a


@pytest.mark.parametrize(
    "lat",
    [chain(2), chain(3), m_lattice(2), m_lattice(3), n5(), from_covers(["0"], [], name="one")],
    ids=lambda l: l.name,
)
def test_spec_tables_and_apply_match_reference(lat):
    m = lat.size
    specs = [mu_spec(lat, a) for a in range(m)] + [oplus_spec(lat, a) for a in range(m)]
    specs += [chi_spec(lat, a, b) for n in (1, 2, 3) for a in all_tuples(m, n) for b in range(m)]
    specs += [iota_spec(lat, *p) for p in all_tuples(m, 4)]
    for spec in specs:
        table = spec.table(lat)
        assert table.name == spec.format()
        for xs, v in zip(table.tuples(), table.values):
            assert v == reference_apply(spec, lat, xs) == spec.apply(lat, xs)
        assert spec.apply(lat, list(table.tuples()[-1])) == table.values[-1]


def reference_h_agg(lat, a, fa, xs):
    """Slow reference: the largest aggregation function taking fa at a."""
    if all(x == lat.bottom for x in xs):
        return lat.bottom
    return fa if lat.leq_tuple(xs, a) else lat.top


@pytest.mark.parametrize("lat", [chain(3), m_lattice(2)], ids=lambda l: l.name)
def test_h_agg_matches_reference_at_every_anchor(lat):
    points = all_tuples(lat.size, 2)
    expected = {}  # by definition h_agg(f, a) depends on a and f(a) alone
    for f in enumerate_class(lat, 2, "aggregation"):
        for a in points:
            key = a, f(a)
            if key not in expected:
                expected[key] = tuple(reference_h_agg(lat, *key, xs) for xs in points)
            assert h_agg(f, a).values == expected[key]


def test_h_agg_keeps_one_table_per_anchor_and_value():
    lat = chain(3)
    members = enumerate_class(lat, 2, "aggregation")
    a = (1, 2)
    by_value = {}
    for f in members:
        by_value.setdefault(f(a), []).append(f)
    assert len(by_value) > 1
    for fa, fs in by_value.items():
        assert all(h_agg(f, a) is h_agg(fs[0], a) for f in fs)
        assert h_agg(fs[0], a).values[tuple_index(lat.size, a)] == fa
    assert h_agg(by_value[1][0], a) is not h_agg(by_value[2][0], a)
    # the same anchor and value on another lattice instance is another table
    other = chain(3)
    assert h_agg(join_fn(other), a) == h_agg(join_fn(lat), a)
    assert h_agg(join_fn(other), a) is not h_agg(join_fn(lat), a)


def memo_keys(lat):
    """Every (builder, arguments) that lat's per-lattice memo holds."""
    return {(build, args) for build, values in lat._memo.items() for args in values}


def test_h_agg_checks_every_call_whatever_it_keeps():
    lat = chain(3)
    join = join_fn(lat)
    h_agg(join, (1, 1))
    keys = memo_keys(lat)
    for bad, error in (((0, 5), IndexOutOfRange), ((1, 1, 1), ArityMismatch)):
        for _ in range(2):
            with pytest.raises(error):
                h_agg(join, bad)
    # f(1, 1) = 1 like the join, so a kept table fits, but f is no aggregation
    not_agg = from_callable(lat, 2, lambda xs: 1)
    for _ in range(2):
        with pytest.raises(NotAggregation):
            h_agg(not_agg, (1, 1))
    assert memo_keys(lat) == keys
    assert h_agg(join, (0, 2)).values == tuple(
        reference_h_agg(lat, (0, 2), 2, xs) for xs in all_tuples(lat.size, 2))


def test_a_spec_table_that_fails_keeps_nothing():
    lat = chain(3)
    good, bad = parse_spec("iota[0,1,2;1]"), parse_spec("iota[0,1,9;1]")
    keys = memo_keys(lat)
    for _ in range(2):
        with pytest.raises(InvalidSpec, match="'9'"):
            bad.table(lat)
    assert memo_keys(lat) == keys
    assert good.table(lat).values == tuple(
        reference_apply(good, lat, xs) for xs in all_tuples(lat.size, 3))


def test_out_of_range_points_are_refused(chain2):
    join = join_fn(chain2)
    for call in (
        lambda: join((0, 2)),
        lambda: join((1, -1)),
        lambda: h_id(join, (1, -1)),
        lambda: h_agg(join, (0, 5)),
        lambda: iota_spec(chain2, 0, 0, 1, 1).apply(chain2, (0, 1, 2)),
    ):
        with pytest.raises(IndexOutOfRange):
            call()


def test_apply_argument_errors(chain3):
    with pytest.raises(InvalidSpec, match="takes 3 arguments"):
        iota_spec(chain3, 0, 1, 2, 1).apply(chain3, (0, 1))
    with pytest.raises(InvalidSpec, match="unknown element label"):
        GeneratorSpec("iota", ("0", "1", "zz"), "1").apply(chain3, (0, 0, 0))
    with pytest.raises(InvalidSpec, match="unknown element label"):
        GeneratorSpec("mu", ("zz",)).table(chain3)
