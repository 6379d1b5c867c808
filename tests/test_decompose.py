import functools
import random

import pytest

from latclone import (
    FnTable,
    Join,
    Meet,
    Var,
    chain,
    decompose_id,
    decompose_id_reduced,
    enumerate_class,
    h_agg,
    h_agg_term,
    join_fn,
    m_lattice,
    n5,
    pointwise_meet,
    print_term,
    projection,
    simplify,
    to_table,
)
from latclone.errors import NotAggregation, NotIdempotent, UnsupportedArity
from latclone.functable import all_tuples, from_callable
from latclone.terms import Apply


def median3(lat):
    def med(xs):
        x, y, z = xs
        return lat.join(
            lat.join(lat.meet(x, y), lat.meet(y, z)), lat.meet(x, z)
        )

    return from_callable(lat, 3, med, name="median")


def collect_applies(t):
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Apply):
            out.append(node)
            stack.extend(node.args)
        elif hasattr(node, "left"):
            stack.extend((node.left, node.right))
    return out


def test_decompose_projection_round_trip(chain2):
    p1 = projection(chain2, 2, 1)
    t = decompose_id(p1)
    assert to_table(t, chain2, 2).values == p1.values


def test_decompose_median_round_trip(chain3):
    f = median3(chain3)
    for build in (decompose_id, decompose_id_reduced):
        t = build(f)
        assert to_table(t, chain3, 3).values == f.values


@pytest.mark.parametrize(
    "lat", [chain(2), chain(3), m_lattice(2)], ids=lambda l: l.name
)
def test_decompose_exhaustive_binary(lat):
    for f in enumerate_class(lat, 2, "idempotent"):
        assert to_table(decompose_id(f), lat, 2).values == f.values
        assert to_table(decompose_id_reduced(f), lat, 2).values == f.values


def test_decompose_random_ternary(chain3):
    random.seed(20240817)
    ids = enumerate_class(chain3, 3, "idempotent")
    for f in random.sample(ids, 10):
        assert to_table(decompose_id_reduced(f), chain3, 3).values == f.values


def test_reduced_terms_use_only_top_threshold_iotas(chain3):
    f = median3(chain3)
    top_label = chain3.labels[chain3.top]
    applies = collect_applies(decompose_id_reduced(f))
    assert applies
    for node in applies:
        assert node.spec.kind == "iota"
        assert node.spec.bound[2] == top_label


def test_decompose_rejects_non_idempotent(chain2):
    with pytest.raises(NotIdempotent):
        decompose_id(FnTable(chain2, 2, (0, 0, 0, 0)))
    with pytest.raises(NotIdempotent):
        decompose_id_reduced(FnTable(chain2, 1, (1, 1)))


def test_h_agg_term_matches_h_agg(chain2, chain3):
    for lat in (chain2, chain3):
        for f in enumerate_class(lat, 2, "aggregation"):
            for a in all_tuples(lat.size, 2):
                built = to_table(h_agg_term(f, a), lat, 2)
                assert built.values == h_agg(f, a).values


def test_h_agg_term_all_top_anchor_drops_mu(chain3):
    # mu factors only appear for coordinates strictly below top
    t = h_agg_term(join_fn(chain3), (chain3.top, chain3.top))
    assert all(node.spec.kind == "oplus" for node in collect_applies(t))
    t2 = h_agg_term(join_fn(chain3), (0, chain3.top))
    kinds = sorted(node.spec.kind for node in collect_applies(t2))
    assert kinds == ["mu", "oplus"]


def test_h_agg_term_arity_one_unsupported(chain3):
    f = projection(chain3, 1, 1)
    with pytest.raises(UnsupportedArity):
        h_agg_term(f, (0,))


def test_h_agg_term_rejects_non_aggregation(chain2):
    with pytest.raises(NotAggregation):
        h_agg_term(FnTable(chain2, 2, (1, 1, 1, 1)), (0, 0))


def test_h_agg_recovery_via_terms(chain2):
    for f in enumerate_class(chain2, 2, "aggregation"):
        hs = (
            to_table(h_agg_term(f, a), chain2, 2)
            for a in all_tuples(2, 2)
        )
        assert functools.reduce(pointwise_meet, hs).values == f.values


def test_simplify_preserves_table_and_shrinks(chain3):
    f = median3(chain3)
    t = decompose_id_reduced(f)
    s = simplify(t, chain3, 3)
    assert to_table(s, chain3, 3).values == f.values
    assert len(print_term(s)) < len(print_term(t))


def reference_simplify(t, lat, n):
    """simplify with a fresh memo, comparing operand tables with lat.leq
    cell by cell."""
    memo = {}

    def below(lo, hi):
        return all(lat.leq(a, b) for a, b in zip(lo, hi))

    def walk(u):
        if u not in memo:
            if isinstance(u, Var):
                memo[u] = u
            elif isinstance(u, Apply):
                memo[u] = Apply(u.spec, [walk(arg) for arg in u.args])
            else:
                kind, ops, stack = type(u), [], [u]
                while stack:
                    node = stack.pop()
                    if type(node) is kind:
                        stack += [node.right, node.left]
                    else:
                        ops.append(walk(node))
                tables = [to_table(o, lat, n).values for o in ops]

                def drops(j, i):
                    if tables[i] == tables[j]:
                        return j < i
                    return below(tables[j], tables[i]) if kind is Meet else \
                        below(tables[i], tables[j])

                memo[u] = functools.reduce(kind, [
                    o for i, o in enumerate(ops)
                    if not any(drops(j, i) for j in range(len(ops)) if j != i)])
        return memo[u]

    return walk(t)


@pytest.mark.parametrize("name, n", [("chain3", 2), ("m2", 2), ("n5", 2), ("chain3", 3)])
def test_packed_simplify_matches_the_scalar_reference(name, n):
    lat = {"chain3": chain(3), "m2": m_lattice(2), "n5": n5()}[name]
    rng = random.Random(f"simplify:{name}:{n}")
    ids = enumerate_class(lat, n, "idempotent")
    for f in (ids[k] for k in rng.sample(range(len(ids)), 6)):
        for t in (decompose_id(f), decompose_id_reduced(f)):
            s = simplify(t, lat, n)
            assert s is reference_simplify(t, lat, n)
            assert to_table(s, lat, n).values == f.values


def test_simplify_drops_duplicate_operands(chain3):
    t = Meet(Meet(Var(1), Var(1)), Join(Var(1), Var(2)))
    s = simplify(t, chain3, 2)
    assert s == Var(1)
