import copy
import itertools
import pickle
from dataclasses import fields

import pytest

from latclone import (
    boolean,
    chain,
    decompose_id_reduced,
    enumerate_class,
    format_function,
    format_lattice,
    from_covers,
    m_lattice,
    n5,
    parse_function,
    parse_lattice,
    print_term,
    simplify,
    to_table,
)
from latclone.errors import (
    ArityMismatch,
    EmptyTuple,
    InvalidArgument,
    InvalidSize,
    LatcloneError,
    NotALattice,
    NotAPartialOrder,
    ParseError,
)
from latclone.decompose import _operand_slots
from latclone.functable import (_cells, _packer, _walk_memos, _walk_tables, from_callable, join_fn,
                                meet_fn)
from latclone.generators import parse_spec
from latclone.lattice import Lattice, per_lattice
from latclone.terms import format_term_file, parse_term_file


def test_diamond_from_covers():
    lat = from_covers("0 a b 1".split(), [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert lat.size == 4
    a, b = lat.index("a"), lat.index("b")
    assert lat.meet(a, b) == lat.bottom
    assert lat.join(a, b) == lat.top
    assert not lat.leq(a, b) and not lat.leq(b, a)


def test_two_maximal_elements_is_not_a_lattice():
    with pytest.raises(NotALattice, match="join"):
        from_covers(["x", "y"], [])


def test_cycle_is_not_a_partial_order():
    with pytest.raises(NotAPartialOrder):
        from_covers(["x", "y"], [("x", "y"), ("y", "x")])


def test_three_chain_from_covers():
    lat = from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
    for x, y in itertools.product(range(3), repeat=2):
        assert lat.meet(x, y) == min(x, y)
        assert lat.join(x, y) == max(x, y)


def test_duplicate_and_implied_covers_accepted():
    lat = from_covers(
        ["0", "1", "2"], [("0", "1"), ("0", "1"), ("1", "2"), ("0", "2")]
    )
    assert lat.size == 3
    assert lat.leq(0, 2)


def test_chain_family():
    lat = chain(3)
    assert lat.meet(1, 2) == 1
    assert lat.join(0, 2) == 2
    assert (lat.bottom, lat.top) == (0, 2)
    assert chain(2).size == 2
    with pytest.raises(InvalidSize):
        chain(1)


def test_m_lattice_family():
    assert m_lattice(2).size == 4
    m3 = m_lattice(3)
    c1, c2 = m3.index("a1"), m3.index("a2")
    assert m3.join(c1, c2) == m3.top
    assert m3.meet(c1, c2) == m3.bottom
    assert m_lattice(4).size == 6
    with pytest.raises(InvalidSize):
        m_lattice(0)


def test_pentagon_shape():
    lat = n5()
    a, b, c = lat.index("a"), lat.index("b"), lat.index("c")
    assert lat.leq(a, b)
    assert not lat.leq(a, c) and not lat.leq(c, a)
    # non-modularity witness: c join (a meet b') patterns differ
    assert lat.join(a, c) == lat.top and lat.meet(b, c) == lat.bottom


def test_boolean_family():
    lat = boolean(3)
    assert lat.size == 8
    x, y = lat.index("110"), lat.index("011")
    assert lat.labels[lat.meet(x, y)] == "010"
    assert lat.labels[lat.join(x, y)] == "111"


@pytest.mark.parametrize(
    "lat", [chain(2), chain(4), m_lattice(2), m_lattice(3), n5(), boolean(3)],
    ids=lambda l: l.name,
)
def test_meet_join_are_bounds(lat):
    for x, y in itertools.product(range(lat.size), repeat=2):
        mj, jj = lat.meet(x, y), lat.join(x, y)
        assert lat.leq(mj, x) and lat.leq(mj, y)
        assert lat.leq(x, jj) and lat.leq(y, jj)
        for z in range(lat.size):
            if lat.leq(z, x) and lat.leq(z, y):
                assert lat.leq(z, mj)
            if lat.leq(x, z) and lat.leq(y, z):
                assert lat.leq(jj, z)


@pytest.mark.parametrize(
    "lat", [chain(3), m_lattice(3), n5(), boolean(3)], ids=lambda l: l.name
)
def test_absorption(lat):
    for x, y in itertools.product(range(lat.size), repeat=2):
        assert lat.meet(x, lat.join(x, y)) == x
        assert lat.join(x, lat.meet(x, y)) == x


@pytest.mark.parametrize(
    "lat", [chain(4), m_lattice(3), n5(), boolean(3)], ids=lambda l: l.name
)
def test_indices_form_linear_extension(lat):
    for i, j in itertools.product(range(lat.size), repeat=2):
        if lat.leq(i, j) and i != j:
            assert i < j


def test_bottom_top_bound_everything(pentagon):
    for x in range(pentagon.size):
        assert pentagon.leq(pentagon.bottom, x)
        assert pentagon.leq(x, pentagon.top)


def test_meet_all_join_all(chain3, diamond):
    assert chain3.meet_all((0, 1, 2)) == 0
    assert chain3.join_all((0, 1, 2)) == 2
    a, b = diamond.index("a1"), diamond.index("a2")
    assert diamond.meet_all((a, b)) == diamond.bottom
    assert diamond.join_all((a, b)) == diamond.top
    for lat in (chain3, diamond):
        for x in range(lat.size):
            assert lat.meet_all((x,)) == x == lat.join_all((x,))
    with pytest.raises(EmptyTuple):
        chain3.meet_all(())
    with pytest.raises(EmptyTuple):
        chain3.join_all(())


def test_leq_tuple(chain3):
    assert chain3.leq_tuple((0, 1), (1, 2))
    assert not chain3.leq_tuple((2, 0), (1, 2))
    for xs in itertools.product(range(3), repeat=2):
        assert chain3.leq_tuple(xs, xs)
    with pytest.raises(ArityMismatch):
        chain3.leq_tuple((0, 1), (0, 1, 2))


def test_leq_tuple_is_partial_order(diamond):
    pairs = list(itertools.product(range(diamond.size), repeat=2))
    for x in pairs:
        assert diamond.leq_tuple(x, x)
        for y in pairs:
            if diamond.leq_tuple(x, y) and diamond.leq_tuple(y, x):
                assert x == y
            for z in pairs:
                if diamond.leq_tuple(x, y) and diamond.leq_tuple(y, z):
                    assert diamond.leq_tuple(x, z)


def test_lattice_file_round_trip(pentagon):
    text = format_lattice(pentagon)
    back = parse_lattice(text)
    assert back == pentagon


@pytest.mark.parametrize("bad", ["a,b", "a#b", "a;b", "a[b", "a]b", "a(b", "a)b", "a->b"])
def test_labels_with_format_delimiters_are_refused(bad):
    with pytest.raises(InvalidArgument):
        from_covers(["0", bad, "1"], [("0", bad), (bad, "1")])
    with pytest.raises(ValueError):
        from_covers([bad, "1"], [(bad, "1")])


@pytest.mark.parametrize("bad", ["a b", "a#b", "a,b", "a(b", "a->b", "", " "])
def test_lattice_names_follow_the_label_grammar(bad):
    with pytest.raises(InvalidArgument):
        from_covers(["0", "1"], [("0", "1")], name=bad)


def test_builtin_and_unusual_names_round_trip():
    for lat in (chain(3), m_lattice(2), n5(), boolean(3)):
        assert parse_lattice(format_lattice(lat)) == lat
    lat = from_covers(["0", "1"], [("0", "1")], name="end>")
    assert parse_lattice(format_lattice(lat)) == lat
    f = from_callable(lat, 2, lat.join_all, name="sup")
    assert parse_function(format_function(f), lat).values == f.values


@pytest.mark.parametrize(
    "labels,covers",
    [(["0", "0"], []), ([], []), (["0", "1"], [("0", "2")])],
    ids=["duplicate-labels", "no-labels", "unknown-cover-label"],
)
def test_from_covers_argument_errors_are_domain_errors(labels, covers):
    with pytest.raises(LatcloneError):
        from_covers(labels, covers)


def test_files_round_trip_with_unusual_labels():
    # accepted labels that look like directives, variables or arrows
    labels = ["cover", "x1", "-", "end>"]
    lat = from_covers(
        labels, [("cover", "x1"), ("cover", "-"), ("x1", "end>"), ("-", "end>")],
        name="odd",
    )
    assert parse_lattice(format_lattice(lat)) == lat
    f = from_callable(lat, 2, lat.join_all, name="sup")
    back = parse_function(format_function(f), lat)
    assert (back.name, back.values) == ("sup", f.values)
    t = decompose_id_reduced(f)
    arity, lattice_name, parsed = parse_term_file(format_term_file(t, 2, lat.name))
    assert (arity, lattice_name, parsed) == (2, "odd", t)
    assert to_table(parsed, lat, 2).values == f.values


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_lattice("lattice x\nbogus directive\nend\n")
    with pytest.raises(ParseError, match="elements"):
        parse_lattice("lattice x\nend\n")
    with pytest.raises(ParseError):
        parse_lattice("lattice x\nelements a b\ncover a z\nend\n")


def test_upper_covers(pentagon):
    a = pentagon.index("a")
    assert pentagon.upper_covers(pentagon.bottom) == (
        pentagon.index("a"), pentagon.index("c"),
    ) or set(pentagon.upper_covers(pentagon.bottom)) == {
        pentagon.index("a"), pentagon.index("c"),
    }
    assert pentagon.upper_covers(a) == (pentagon.index("b"),)


def test_per_lattice_builds_once_per_instance_and_key():
    calls = []

    @per_lattice
    def build(lat, n, kind):
        calls.append((lat, n, kind))
        return [n, kind]

    one, two = chain(3), chain(3)
    assert one == two and one is not two
    first = build(one, 2, "a")
    assert build(one, 2, "a") is first
    assert build(one, 3, "a") is not first and build(one, 2, "b") is not first
    # equal lattice instances share no entry
    assert build(two, 2, "a") == first and build(two, 2, "a") is not first
    assert [(lat is one, n, kind) for lat, n, kind in calls] == [
        (True, 2, "a"), (True, 3, "a"), (True, 2, "b"), (False, 2, "a"),
    ]


def test_the_library_builders_keep_one_value_per_instance_and_key():
    one, two = chain(3), chain(3)
    spec = parse_spec("iota[0,1,2;1]")
    for build in (
        lambda lat: _cells(lat, 2),
        lambda lat: _packer(lat, "down"),
        lambda lat: _walk_tables(lat, 2, True, False, True),
        lambda lat: _walk_memos(lat, 2, True, False, True),
        lambda lat: meet_fn(lat),
        lambda lat: join_fn(lat),
        lambda lat: spec.table(lat),
        lambda lat: _operand_slots(lat, 2, True),
    ):
        assert build(one) is build(one)
        assert build(two) is not build(one)
    assert meet_fn(one) is not join_fn(one)
    assert _operand_slots(one, 2, True) is not _operand_slots(one, 2, False)
    assert _cells(one, 2) is not _cells(one, 3)


def test_a_builder_that_raises_keeps_nothing():
    calls = []

    @per_lattice
    def build(lat, n):
        calls.append(n)
        if len(calls) < 3:
            raise InvalidArgument(f"call {len(calls)} fails")
        return n

    lat = chain(3)
    for _ in range(2):
        with pytest.raises(InvalidArgument):
            build(lat, 2)
    assert build(lat, 2) == 2 and build(lat, 2) == 2
    assert calls == [2, 2, 2]


@pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_used_lattice_and_its_tables_copy_without_memos(copy_of):
    lat = chain(3)
    fresh_pickle = pickle.dumps(chain(3))
    f = enumerate_class(lat, 2, "idempotent")[3]
    term = decompose_id_reduced(f)
    short = simplify(term, lat, 2)
    g = to_table(short, lat, 2)
    assert g.values == f.values
    field_names = {fl.name for fl in fields(Lattice)}
    # a pickle of a used lattice is that of a fresh one: it carries no memo
    assert pickle.dumps(lat) == fresh_pickle
    for table in (f, g, meet_fn(lat), parse_spec("iota[0,1,2;1]").table(lat)):
        dup = copy_of(table)
        assert dup == table and dup is not table
        assert dup.lattice == lat and dup.lattice is not lat
        assert set(vars(dup.lattice)) == field_names
    dup_lat = copy_of(lat)
    assert dup_lat == lat and set(vars(dup_lat)) == field_names
    dup_f = copy_of(f)
    again = decompose_id_reduced(dup_f)
    assert print_term(again) == print_term(term)
    assert print_term(simplify(again, dup_f.lattice, 2)) == print_term(short)
    assert to_table(again, dup_f.lattice, 2) == f
