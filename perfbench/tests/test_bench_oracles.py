"""The oracles reproduce closed forms and brute force on small cases."""

import itertools

import numpy as np
import pytest

import oracles
import workloads
from workloads import lattice


def brute_force_count(lat, n, cls):
    tab = oracles.Tables(lat, n)
    rows = np.array(list(itertools.product(range(lat.size), repeat=tab.cells)), dtype=np.uint8)
    masks = oracles.property_masks(tab, rows, idempotent=cls == "idempotent")
    return int(np.logical_and.reduce(list(masks.values())).sum())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_row_count_gives_dedekind_numbers_on_chain2(n):
    assert oracles.count_class(lattice("chain2"), n, "monotone") == oracles.DEDEKIND[n]
    assert oracles.count_class(lattice("chain2"), n, "idempotent") == oracles.DEDEKIND[n] - 2


def test_macmahon_box_formula():
    assert [oracles.macmahon(m, m, m - 1) for m in (2, 3, 4)] == [6, 175, 24696]
    assert oracles.macmahon(1, 1, 1) == 2


@pytest.mark.parametrize("m", [2, 3, 4])
def test_row_count_gives_macmahon_on_chains(m):
    assert oracles.count_class(lattice(f"chain{m}"), 2, "monotone") == oracles.macmahon(m, m, m - 1)


@pytest.mark.parametrize("name,n,cls", [
    ("chain2", 2, "monotone"), ("chain2", 3, "idempotent"), ("chain3", 2, "idempotent"),
    ("chain3", 2, "monotone"), ("m2", 1, "monotone"), ("n5", 1, "idempotent"),
])
def test_row_count_matches_brute_force(name, n, cls):
    lat = lattice(name)
    assert oracles.count_class(lat, n, cls) == brute_force_count(lat, n, cls)


def test_row_count_on_the_ladder():
    got = [oracles.count_class(lattice(name), 2, "idempotent")
           for name in ("chain3", "m2", "chain4", "n5", "m3")]
    assert got == [64, 1296, 4096, 280592, 816958]
    assert oracles.count_class(lattice("chain3"), 3, "idempotent") == 116211


@pytest.mark.parametrize("key", sorted(oracles.FREE_LATTICE))
def test_meet_join_closure_has_free_lattice_size(key):
    rows = oracles.meet_join_closure(lattice(key[0]), key[1])
    assert len(rows) == oracles.FREE_LATTICE[key]
    assert len(np.unique(rows, axis=0)) == len(rows)


def test_property_checker():
    lat = lattice("n5")
    tab = oracles.Tables(lat, 2)
    meet = np.array([lat.meet[x][y] for x, y in workloads.all_tuples(5, 2)], dtype=np.uint8)
    join = np.array([lat.join[x][y] for x, y in workloads.all_tuples(5, 2)], dtype=np.uint8)
    assert oracles.property_failures(tab, np.stack([meet, join, tab.x[:, 0]]), True) == []
    lowered = meet.copy()
    lowered[-1] = 0  # f(1, 1) = 0: breaks monotonicity, the diagonal and the boundary
    assert {"not monotone", "not fixed diagonal", "not boundary values"} \
        <= set(oracles.property_failures(tab, lowered[None], True))
    constant = np.full(tab.cells, lat.top, dtype=np.uint8)
    assert oracles.property_failures(tab, constant[None], False) == []
    assert "not within [meet x, join x]" in oracles.property_failures(tab, constant[None], True)


def evaluate(text, name, n, reduced=True):
    tab = oracles.Tables(lattice(name), n)
    nodes, root, tree = oracles.parse_term(text)
    return oracles.evaluate_term(nodes, root, tab, reduced), tree, len(nodes)


def test_term_evaluator_applies_the_iota_formula():
    lat = lattice("chain3")
    got, tree, distinct = evaluate("(iota[0,1,2;1] (meet x1 x2) x2 (join x1 x2))", "chain3", 2)
    want = []
    for x, y in workloads.all_tuples(3, 2):
        s, t, u = min(x, y), y, max(x, y)
        jx = max(s, t, u)
        want.append(min(1, jx) if (s <= 0 and t <= 1 and u <= 2) else jx)
    assert list(got) == want
    assert (tree, distinct) == (8, 5)  # x1 and x2 are shared
    assert lat.top == 2


def test_term_evaluator_rejects_unreduced_iotas():
    for op in ("iota[0,1,1;1]", "iota[1,0,2;1]", "iota[1,1,2;0]"):
        with pytest.raises(oracles.TermError):
            evaluate(f"({op} x1 x2 x2)", "chain3", 2)
    evaluate("(iota[0,1,1;1] x1 x2 x2)", "chain3", 2, reduced=False)


def test_term_parser_rejects_malformed_text():
    for text in ("(meet x1", "x1 x2", "(meet x1 x2))", "((meet) x1 x2)"):
        with pytest.raises(oracles.TermError):
            evaluate(text, "chain2", 2)


def test_input_drawer_makes_idempotent_aggregation_functions():
    for (name, n), vectors in workloads.draw_inputs(seed=3).items():
        tab = oracles.Tables(lattice(name), n)
        assert oracles.property_failures(tab, np.array(vectors, dtype=np.uint8), True) == []
        assert len(set(vectors)) > 1
    assert workloads.draw_inputs(seed=3) == workloads.draw_inputs(seed=3)
    assert workloads.draw_inputs(seed=3) != workloads.draw_inputs(seed=4)
