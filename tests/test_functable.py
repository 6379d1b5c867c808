import itertools
import random

import pytest

from latclone import (
    FnTable,
    chain,
    compose,
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
    parse_function,
    pointwise_join,
    pointwise_meet,
    projection,
)
from latclone.errors import (
    ArityMismatch,
    BudgetExceeded,
    IndexOutOfRange,
    LatticeMismatch,
    ParseError,
)
from latclone.functable import compose_values, from_callable, iter_monotone_values


def brute_force_binary(lat, predicate):
    """Independent oracle: scan all m^(m^2) binary tables (tiny m only)."""
    m = lat.size
    out = []
    for vals in itertools.product(range(m), repeat=m * m):
        f = FnTable(lat, 2, vals)
        if predicate(f):
            out.append(f)
    return out


def test_projection_tables(chain2, chain3):
    p1 = projection(chain2, 2, 1)
    assert p1.values == (0, 0, 1, 1)
    p2 = projection(chain3, 3, 2)
    assert p2((0, 2, 1)) == 2
    ident = projection(chain3, 1, 1)
    assert ident.values == (0, 1, 2)
    with pytest.raises(IndexOutOfRange):
        projection(chain3, 2, 3)


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


def test_monotone_matches_pairwise_definition():
    random.seed(20240817)
    for lat in (chain(3), m_lattice(2)):
        m = lat.size
        leq = lat.leq_table
        for _ in range(200):
            f = FnTable(lat, 2, tuple(random.randrange(m) for _ in range(m * m)))
            tuples = f.tuples()
            brute = all(
                leq[f.values[j]][f.values[k]]
                for j, x in enumerate(tuples)
                for k, y in enumerate(tuples)
                if all(leq[a][b] for a, b in zip(x, y))
            )
            assert is_monotone(f) == brute


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


def test_count_budget(chain2):
    with pytest.raises(BudgetExceeded):
        enumerate_class(chain2, 2, "monotone", count_budget=3)


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
