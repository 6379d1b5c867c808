"""Property tests: every file format parses back what it prints, and the
term parser fails only with domain errors.  Derandomized, so a run is
reproducible and its cost is fixed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latclone import (
    Apply,
    FnTable,
    Join,
    Meet,
    Var,
    boolean,
    chain,
    format_function,
    format_lattice,
    from_covers,
    m_lattice,
    n5,
    parse_function,
    parse_lattice,
    parse_term,
    print_term,
    projection,
)
from latclone.errors import InvalidArgument, InvalidSpec, LatcloneError, ParseError
from latclone.functable import from_callable
from latclone.lattice import LABEL_RESERVED, check_label
from latclone.generators import (
    KINDS,
    GeneratorSpec,
    chi_spec,
    iota_spec,
    mu_spec,
    oplus_spec,
    parse_spec,
)
from latclone.terms import format_term_file, parse_term_file

LATTICES = [chain(2), chain(3), chain(4), m_lattice(1), m_lattice(2), m_lattice(3), n5()]

SETTINGS = settings(derandomize=True, max_examples=120, deadline=None, database=None)


@st.composite
def specs(draw, lat):
    element = st.integers(0, lat.size - 1)
    kind = draw(st.sampled_from(KINDS))
    if kind == "iota":
        return iota_spec(lat, *draw(st.tuples(element, element, element, element)))
    if kind == "chi":
        return chi_spec(lat, draw(st.lists(element, min_size=1, max_size=3)), draw(element))
    return (mu_spec if kind == "mu" else oplus_spec)(lat, draw(element))


def shapes(lat, n):
    """Terms as nested tuples: ("x", i), (Meet|Join, left, right) or
    (spec, args), built into nodes only by the test."""
    def extend(children):
        binary = st.tuples(st.sampled_from([Meet, Join]), children, children)
        apply = specs(lat).flatmap(
            lambda spec: st.tuples(st.just(spec), st.lists(
                children, min_size=spec.arity, max_size=spec.arity).map(tuple))
        )
        return binary | apply

    return st.recursive(st.tuples(st.just("x"), st.integers(1, n)), extend, max_leaves=16)


def build(shape):
    if shape[0] == "x":
        return Var(shape[1])
    if shape[0] in (Meet, Join):
        return shape[0](build(shape[1]), build(shape[2]))
    return Apply(shape[0], [build(arg) for arg in shape[1]])


def text(shape):
    """The s-expression of a shape, written without latclone."""
    if shape[0] == "x":
        return f"x{shape[1]}"
    if shape[0] in (Meet, Join):
        head = "meet" if shape[0] is Meet else "join"
        return f"({head} {text(shape[1])} {text(shape[2])})"
    return "(" + " ".join([shape[0].format(), *map(text, shape[1])]) + ")"


@st.composite
def lattice_shapes(draw):
    lat = draw(st.sampled_from(LATTICES))
    n = draw(st.integers(1, 3))
    return lat, n, draw(shapes(lat, n))


@SETTINGS
@given(lattice_shapes())
def test_term_files_parse_back_to_the_same_node(case):
    lat, n, shape = case
    t = build(shape)
    file_text = format_term_file(t, n, lat.name)
    assert file_text == f"term arity {n} lattice {lat.name}\n{text(shape)}\n"
    arity, name, back = parse_term_file(file_text)
    assert (arity, name) == (n, lat.name)
    assert back is t and build(shape) is t


@st.composite
def function_tables(draw):
    lat = draw(st.sampled_from(LATTICES))
    n = draw(st.integers(1, 3 if lat.size <= 3 else 2))
    values = draw(st.lists(st.integers(0, lat.size - 1),
                           min_size=lat.size**n, max_size=lat.size**n))
    return FnTable(lat, n, tuple(values)), draw(st.text(min_size=0, max_size=8))


@SETTINGS
@given(function_tables())
def test_function_files_parse_back(case):
    f, name = case
    try:
        f = f.renamed(name)
    except InvalidArgument:
        return  # a name that would not read back is refused up front
    back = parse_function(format_function(f), f.lattice)
    assert (back.lattice, back.arity, back.values, back.name) == (
        f.lattice, f.arity, f.values, f.name)


# Names from the characters the function-name rule treats specially, and
# from any text.
NAMES = st.text("fa1[;]^-># \t\n\x85", max_size=6) | st.text(max_size=4)


@SETTINGS
@given(NAMES)
def test_tables_renames_and_function_files_share_one_name_rule(name):
    lat = chain(2)
    text = f"function {name} arity 1 lattice chain2\n0 -> 0\n1 -> 1\nend\n"
    try:
        f = FnTable(lat, 1, (0, 1), name=name)
    except InvalidArgument:
        with pytest.raises(InvalidArgument):
            projection(lat, 1, 1).renamed(name)
        with pytest.raises(InvalidArgument):
            from_callable(lat, 1, lambda xs: xs[0], name=name)
        try:
            back = parse_function(text, lat)
        except ParseError:
            return
        # whitespace around the name separates header fields: another name
        assert back.name != name
        return
    assert format_function(f) == text
    for g in (parse_function(text, lat), projection(lat, 1, 1).renamed(name),
              from_callable(lat, 1, lambda xs: xs[0], name=name)):
        assert (g.values, g.name) == ((0, 1), name)


TOKENS = ["(", ")", " ", "\n", "meet", "join", "x1", "x2", "x0", "x9", "x", "x²",
          "iota[0,1,2;1]", "iota[0;1]", "mu[0]", "oplus[a1]", "chi[0,1;1]", "chi[;]",
          "bogus[1]", "[", "]"]


@SETTINGS
@given(st.one_of(st.text(max_size=40), st.lists(st.sampled_from(TOKENS), max_size=24)
                 .map("".join)), st.integers(1, 3))
def test_parse_term_raises_only_domain_errors(source, n):
    try:
        parse_term(source, n)
    except LatcloneError:
        pass


ROUND_TRIP_LATTICES = [*map(chain, range(2, 6)), *map(m_lattice, (1, 2, 3)), n5(),
                       boolean(2), boolean(3)]
# Labels are drawn distinct from characters the label grammar allows, with
# '-' and '>' among them; sometimes one label, and often the name, is drawn
# from any text or from the grammar's reserved delimiters and whitespace.
GRAMMAR_LABELS = st.text("01ab_.é+->", min_size=1, max_size=4)
ANY_LABELS = st.text("01a" + LABEL_RESERVED + " \t\n\x85", max_size=3) | st.text(max_size=3)


@st.composite
def relabelled_lattices(draw):
    lat = draw(st.sampled_from(ROUND_TRIP_LATTICES))
    labels = draw(st.lists(GRAMMAR_LABELS, min_size=lat.size, max_size=lat.size, unique=True))
    if draw(st.booleans()):
        labels[draw(st.integers(0, lat.size - 1))] = draw(ANY_LABELS)
    covers = [(labels[x], labels[y]) for x in range(lat.size) for y in lat.upper_covers(x)]
    return lat, labels, covers, draw(GRAMMAR_LABELS | ANY_LABELS)


@SETTINGS
@given(relabelled_lattices())
def test_lattice_files_parse_back(case):
    lat, labels, covers, name = case
    try:
        relabelled = from_covers(labels, covers, name=name)
    except InvalidArgument:
        return  # a label or name that would not read back is refused up front
    # the builtins list their labels in a linear extension, so the order
    # and the indices carry over unchanged
    assert relabelled.labels == tuple(labels)
    assert relabelled.leq_table == lat.leq_table
    back = parse_lattice(format_lattice(relabelled))
    assert (back.name, back.labels, back.leq_table) == (name, relabelled.labels, lat.leq_table)
    assert [back.upper_covers(x) for x in range(back.size)] == [
        lat.upper_covers(x) for x in range(lat.size)]


def _grammatical(label):
    try:
        check_label("label", label)
    except InvalidArgument:
        return False
    return True


@st.composite
def spec_parameters(draw):
    kind = draw(st.sampled_from(KINDS))
    arity = {"iota": 3, "mu": 1, "oplus": 1}.get(kind) or draw(st.integers(1, 3))
    labels = GRAMMAR_LABELS | ANY_LABELS
    bound = tuple(draw(st.lists(labels, min_size=arity, max_size=arity)))
    return kind, bound, None if kind in ("mu", "oplus") else draw(labels)


@SETTINGS
@given(spec_parameters())
def test_generator_specs_print_back_or_are_refused(case):
    kind, bound, target = case
    labels = bound if target is None else (*bound, target)
    try:
        spec = GeneratorSpec(kind, bound, target)
    except InvalidSpec:
        assert not all(map(_grammatical, labels))
        return
    assert all(map(_grammatical, labels))
    assert parse_spec(spec.format()) == spec
    term = Apply(spec, [Var(i) for i in range(1, spec.arity + 1)])
    assert parse_term(print_term(term), spec.arity) is term
