import copy
import gc
import pickle
import random
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latclone import (
    Apply,
    Join,
    Meet,
    Var,
    compose,
    decompose_id,
    decompose_id_reduced,
    enumerate_class,
    evaluate,
    from_covers,
    is_idempotent,
    join_fn,
    make_iota,
    meet_fn,
    parse_term,
    print_term,
    projection,
    simplify,
    to_table,
)
from latclone.errors import (
    ArityMismatch,
    IndexOutOfRange,
    InvalidSpec,
    ParseError,
    TermSyntaxError,
)
from latclone.cli import load_lattice, main
from latclone.decompose import _anchor_operand
from latclone.generators import iota_spec, parse_spec
from latclone.functable import all_tuples, format_function
from latclone.terms import (
    _children,
    _interned,
    _table_memo,
    _texts,
    _tokenize,
    depth,
    format_term_file,
    join_of,
    meet_of,
    parse_term_file,
    size,
)


def iota_term(lat, a, b, c, d, args):
    return Apply(iota_spec(lat, a, b, c, d), args)


def slow_eval(t, lat, xs):
    """Scalar per-point evaluator, independent of the composition kernel."""
    if isinstance(t, Var):
        return xs[t.index - 1]
    if isinstance(t, Meet):
        return lat.meet(slow_eval(t.left, lat, xs), slow_eval(t.right, lat, xs))
    if isinstance(t, Join):
        return lat.join(slow_eval(t.left, lat, xs), slow_eval(t.right, lat, xs))
    return t.spec.apply(lat, tuple(slow_eval(arg, lat, xs) for arg in t.args))


def test_eval_basics(chain3):
    assert evaluate(Join(Var(1), Var(2)), chain3, (1, 2)) == 2
    assert evaluate(Meet(Var(1), Var(2)), chain3, (1, 2)) == 1
    t = iota_term(chain3, 0, 1, 2, 1, (Var(1), Var(2), Var(3)))
    assert evaluate(t, chain3, (0, 1, 2)) == 1
    assert evaluate(t, chain3, (2, 2, 2)) == 2


def test_eval_arity_error(chain3):
    with pytest.raises(ArityMismatch):
        evaluate(Var(3), chain3, (0, 1))


def test_eval_refuses_points_outside_the_lattice(chain2):
    for t, xs in ((Var(1), (7,)), (Meet(Var(1), Var(2)), (0, 7)), (Var(1), (-1,))):
        with pytest.raises(IndexOutOfRange):
            evaluate(t, chain2, xs)


def test_deep_term_tabulates_without_recursion(chain3):
    t = Var(1)
    for _ in range(3000):
        t = Meet(t, Var(1))
    assert to_table(t, chain3, 2).values == projection(chain3, 2, 1).values
    assert evaluate(t, chain3, (2, 0)) == 2


def test_deep_term_walks_without_recursion(chain3):
    t = Var(1)
    for _ in range(3000):
        t = Meet(t, Var(1))
    assert depth(t) == 3001
    assert size(t) == 6001  # 3000 Meet nodes over 3001 variables
    assert print_term(t) == "(meet " * 3000 + "x1" + " x1)" * 3000
    assert simplify(t, chain3, 2) == Var(1)


def test_deep_terms_parse_back_without_recursion(chain3):
    left = Var(1)
    for _ in range(3000):
        left = Meet(left, Var(1))
    right = iota_term(chain3, 0, 1, 2, 1, (Var(1), Var(1), Var(1)))
    for i in range(3000):
        right = (Join if i % 2 else Meet)(Var(1), right)
    for t in (left, right):
        assert parse_term(print_term(t), 1) is t


def test_separately_built_deep_terms_are_one_node():
    t, u = Var(1), Var(1)
    for _ in range(3000):
        t = Meet(t, Var(1))
    for _ in range(3000):
        u = Meet(u, Var(1))
    assert t is u
    assert hash(t) == hash(u) and t == u
    assert t in {u} and {t: 1}[u] == 1
    assert repr(t) == "Meet<" + print_term(t) + ">"
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert t != Meet(u, Var(1)) and t != Join(u.left, Var(1))


@pytest.mark.parametrize("make", ["chain3", "diamond"])
def test_reduced_decompositions_parse_back_to_the_same_node(make, request):
    lat = request.getfixturevalue(make)
    for f in enumerate_class(lat, 2, "idempotent")[::5]:
        t = decompose_id_reduced(f)
        assert parse_term(print_term(t), 2) is t


def test_copies_and_pickles_are_the_same_node(chain3):
    f = enumerate_class(chain3, 2, "idempotent")[7]
    shallow = iota_term(chain3, 0, 1, 2, 1, (Var(1), Meet(Var(1), Var(2)), Var(2)))
    for t in (Var(2), shallow, decompose_id_reduced(f)):
        assert copy.copy(t) is t and copy.deepcopy(t) is t
        assert copy.deepcopy([t, t]) == [t, t]
        assert pickle.loads(pickle.dumps(t)) is t


def test_term_nodes_refuse_assignment(chain3):
    nodes = [Var(1), Meet(Var(1), Var(2)), Join(Var(1), Var(2)),
             iota_term(chain3, 0, 1, 2, 1, (Var(1), Var(2), Var(1)))]
    for t in nodes:
        with pytest.raises(FrozenInstanceError):
            t.extra = 1
        with pytest.raises(FrozenInstanceError):
            del t.extra
    with pytest.raises(FrozenInstanceError):
        nodes[0].index = 2
    with pytest.raises(FrozenInstanceError):
        nodes[1].left = Var(2)
    with pytest.raises(FrozenInstanceError):
        del nodes[3].args
    assert nodes[0].index == 1 and nodes[1].left is Var(1)


def test_var_index_checked():
    with pytest.raises(ArityMismatch):
        Var(0)


def test_simplify_alternating_deep_term(chain3):
    t = Var(1)
    for i in range(3000):
        t = (Join if i % 2 else Meet)(t, Var(2))
    s = simplify(t, chain3, 2)
    assert to_table(s, chain3, 2).values == to_table(t, chain3, 2).values
    assert print_term(s) == "x2"


def test_simplify_shares_the_result_of_a_shared_node(chain3):
    shared = Meet(Meet(Var(1), Var(2)), Var(1))
    t = iota_term(chain3, 0, 1, 2, 1, (shared, shared, shared))
    s = simplify(t, chain3, 2)
    assert s.args[0] is s.args[1] is s.args[2]
    assert print_term(s.args[0]) == "(meet x1 x2)"


def test_to_table_matches_scalar_evaluation(chain3):
    # decompositions share their meet(x)/join(x) nodes
    for f in enumerate_class(chain3, 2, "idempotent"):
        t = decompose_id_reduced(f)
        for u in (t, parse_term(print_term(t), 2)):
            expected = tuple(slow_eval(u, chain3, xs) for xs in all_tuples(3, 2))
            assert to_table(u, chain3, 2).values == expected
            assert evaluate(u, chain3, (2, 1)) == expected[7]


def test_tabulation_memo_keeps_no_term_alive():
    # M2 under labels no other test uses, so that its nodes are new
    lat = from_covers(["b", "l", "r", "t"], [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")],
                      name="m2")
    gc.collect()
    before = set(_interned.values())
    sample = enumerate_class(lat, 2, "idempotent")[::50]
    for f in sample:
        for t in (decompose_id(f), decompose_id_reduced(f)):
            s = simplify(t, lat, 2)
            assert to_table(s, lat, 2).values == f.values
            assert to_table(t, lat, 2).values == f.values
            assert simplify(s, lat, 2) is s  # drops nothing: s maps to itself
    del t, s
    gc.collect()
    new = [t for t in _interned.values() if t not in before]
    operands = [_anchor_operand(lat, 2, k, v, reduced) for reduced in (False, True)
                for f in sample for k, v in enumerate(f.values)]
    # the simplify memo keeps the simplified node of each otherwise live node,
    # and nothing more: no value keeps its own key or a dead node alive
    memo = _table_memo(lat, 2, "simplify")
    kept, stack = set(), operands + [k for k in memo.keys() if k in before]
    while stack:
        node = stack.pop()
        if node not in kept:
            kept.add(node)
            stack += _children(node)
            if memo.get(node) is not None:
                stack.append(memo[node])
    assert new and set(new) == kept - before
    assert set(memo) <= kept
    # the operands stay tabulated and simplified for the next call
    assert all(op in _table_memo(lat, 2, "table") for op in operands)
    assert all(op in memo for op in operands)


def test_table_memos_are_one_per_arity_and_kind():
    lat = from_covers(["u", "v", "w"], [("u", "v"), ("v", "w")], name="chain3")
    keys = [(2, "table"), (2, "simplify"), (3, "table")]
    memos = [_table_memo(lat, n, kind) for n, kind in keys]
    assert len({id(memo) for memo in memos}) == 3
    assert all(_table_memo(lat, n, kind) is memo for (n, kind), memo in zip(keys, memos))
    # to_table and simplify fill the memos that these calls return
    t = Join(Var(1), Meet(Var(2), Var(1)))
    assert simplify(t, lat, 2) is Var(1)
    assert to_table(t, lat, 2).values == projection(lat, 2, 1).values
    assert t in memos[0] and t in memos[1] and t not in memos[2]


def test_tabulation_memo_is_kept_per_arity():
    lat = from_covers(["u", "v", "w"], [("u", "v"), ("v", "w")], name="chain3")
    t = Join(Var(1), Meet(Var(1), Var(1)))
    for n in (1, 2, 1, 3):
        assert to_table(t, lat, n).values == projection(lat, n, 1).values
        assert simplify(t, lat, n) is Var(1)


def test_apply_argument_count_checked(chain3):
    with pytest.raises(InvalidSpec):
        Apply(iota_spec(chain3, 0, 1, 2, 1), (Var(1), Var(2)))


def test_to_table_projection_and_meet(chain3):
    assert to_table(Var(1), chain3, 2).values == projection(chain3, 2, 1).values
    assert to_table(Meet(Var(1), Var(2)), chain3, 2).values == meet_fn(chain3).values
    assert to_table(Join(Var(1), Var(2)), chain3, 2).values == join_fn(chain3).values


def test_eval_agrees_with_compose_tabulation(chain3):
    # (x1 meet x2) join iota[0,1,2;1](x1, x2, x1 join x2)
    spec = iota_spec(chain3, 0, 1, 2, 1)
    t = Join(
        Meet(Var(1), Var(2)),
        Apply(spec, (Var(1), Var(2), Join(Var(1), Var(2)))),
    )
    via_term = to_table(t, chain3, 2)
    p1, p2 = projection(chain3, 2, 1), projection(chain3, 2, 2)
    inner = compose(make_iota(chain3, 0, 1, 2, 1), [p1, p2, join_fn(chain3)])
    via_compose = compose(join_fn(chain3), [meet_fn(chain3), inner])
    assert via_term.values == via_compose.values


def test_idempotency_closed_under_term_composition(chain3, diamond):
    # meet/join/iota combinators stay idempotent
    for lat in (chain3, diamond):
        spec = iota_spec(lat, lat.bottom, lat.bottom, lat.top, lat.top)
        t = Meet(
            Apply(spec, (Meet(Var(1), Var(2)), Var(1), Join(Var(1), Var(2)))),
            Join(Var(2), Var(1)),
        )
        assert is_idempotent(to_table(t, lat, 2))


def test_print_forms(chain3):
    assert print_term(Meet(Var(1), Var(2))) == "(meet x1 x2)"
    t = iota_term(chain3, 0, 1, 2, 1, (Var(1), Var(2), Var(3)))
    assert print_term(t) == "(iota[0,1,2;1] x1 x2 x3)"
    assert print_term(Apply(parse_spec("mu[0]"), (Var(2),))) == "(mu[0] x2)"


def reference_print(t):
    """The s-expression of t, node by node with no memo and no sharing."""
    out, stack = [], [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(f"x{item.index}")
        elif isinstance(item, Apply):
            stack.append(")")
            for arg in reversed(item.args):
                stack += [arg, " "]
            stack.append(f"({item.spec.format()}")
        else:
            stack += [")", item.right, " ", item.left,
                      "(meet " if isinstance(item, Meet) else "(join "]
    return "".join(out)


def random_term(lat, rng, leaves):
    """A seeded term mixing meet, join and iota nodes, with shared subterms."""
    nodes = [Var(i) for i in range(1, 4)]
    for _ in range(leaves):
        kind = rng.choice("mjmja")
        a, b = rng.choice(nodes), rng.choice(nodes)
        if kind == "a":
            node = iota_term(lat, 0, 1, 2, rng.randrange(3), (a, b, rng.choice(nodes)))
        else:
            node = (Meet if kind == "m" else Join)(a, b) if rng.random() < 0.5 else \
                (Meet if kind == "m" else Join)(b, a)
        nodes.append(node)
    return nodes[-1]


def test_print_follows_the_left_spine_only():
    assert print_term(Meet(Var(1), Meet(Var(2), Var(3)))) == "(meet x1 (meet x2 x3))"
    assert print_term(Meet(Meet(Var(1), Var(2)), Var(3))) == "(meet (meet x1 x2) x3)"
    assert print_term(Join(Meet(Var(1), Var(2)), Var(3))) == "(join (meet x1 x2) x3)"


def test_print_matches_the_node_by_node_rendering(chain3):
    right = Var(2)
    for _ in range(3000):
        right = Meet(Var(1), right)
    assert print_term(right) == "(meet x1 " * 3000 + "x2" + ")" * 3000
    rng = random.Random(16)
    mixed = [random_term(chain3, rng, leaves) for leaves in (1, 2, 5, 40, 300)]
    chains = [meet_of(mixed), join_of(mixed), Meet(meet_of(mixed), join_of(mixed[::-1])),
              Join(Var(1), meet_of(mixed))]
    for t in [right, *mixed, *chains]:
        expected = reference_print(t)
        assert print_term(t) == expected  # the texts of t's operands are now kept
        assert print_term(t) == expected
        _texts.clear()
        assert print_term(t) == expected
        assert parse_term(expected, 3) is t


def test_print_keeps_one_text_per_chain_operand():
    gc.collect()
    operands = [Join(Var(i), Var(i + 1)) for i in range(1, 60)]
    before = len(_texts)
    t = meet_of(operands)
    assert print_term(t) == reference_print(t)
    assert len(_texts) - before <= len(operands)
    assert t not in _texts and all(op in _texts for op in operands)
    lone = Apply(parse_spec("mu[0]"), (t,))
    assert print_term(lone) == f"(mu[0] {reference_print(t)})"
    assert lone not in _texts and len(_texts) - before <= len(operands)


def test_simplify_and_text_memos_pin_no_term(tmp_path):
    lat = load_lattice("m:2")
    f = enumerate_class(lat, 2, "idempotent")[1234]
    fn_file, term_file = tmp_path / "f.fn", tmp_path / "f.term"
    fn_file.write_text(format_function(f))
    argv = ["decompose", "--lattice", "m:2", "--reduced", "--simplify", str(fn_file),
            "--out", str(term_file)]
    memo = _table_memo(lat, 2, "simplify")

    def decompose_and_simplify():
        """Weak references to the top terms of the two simplify calls."""
        # the CLI's simplify drops operands from the decomposition's top chain
        top = decompose_id_reduced(f)  # the node the CLI builds
        assert main(argv) == 0
        assert top in memo and memo[top] is not None
        # simplifying the CLI's simplified term again drops no operand, so
        # its nodes simplify to themselves and are kept as None
        _, _, simplified = parse_term_file(term_file.read_text())
        assert simplify(simplified, lat, 2) is simplified and memo[simplified] is None
        assert format_term_file(simplified, 2, "m2") == term_file.read_text()
        return weakref.ref(top), weakref.ref(simplified)

    decompose_and_simplify()  # warms the anchor operands and their simplified nodes
    gc.collect()
    sizes = len(memo), len(_texts)
    refs = decompose_and_simplify()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert (len(memo), len(_texts)) == sizes


def test_parse_round_trip(chain3):
    t = Join(
        Meet(Var(1), Var(2)),
        iota_term(chain3, 0, 1, 2, 1, (Var(1), Var(2), Join(Var(1), Var(2)))),
    )
    assert parse_term(print_term(t), 2) is t
    assert parse_term("  ( meet   x1\n x2 ) ", 2) is Meet(Var(1), Var(2))


def _scanned_tokens(s):
    """The hand scanner that _tokenize replaced, kept as its reference."""
    tokens = []  # (token, position)
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append((ch, i))
            i += 1
        else:
            j = i
            while j < len(s) and not s[j].isspace() and s[j] not in "()":
                j += 1
            tokens.append((s[i:j], i))
            i = j
    return tokens


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.text(st.sampled_from("()x0129 \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u1680\u2028\u3000"
                               "\u200b\ufeff"), max_size=40))
def test_tokens_match_the_hand_scanner(text):
    # \x1c-\x1f, \x85, \xa0, \u2028 and \u3000 are str.isspace(); the zero
    # width space and the byte order mark are not, and stay inside a token
    assert _tokenize(text) == _scanned_tokens(text)


def test_parse_errors_report_position():
    with pytest.raises(TermSyntaxError):
        parse_term("(meet x1", 2)
    with pytest.raises(TermSyntaxError):
        parse_term("(meet x1 x2 x3)", 3)
    with pytest.raises(TermSyntaxError):
        parse_term("(bogus x1)", 2)
    with pytest.raises(TermSyntaxError):
        parse_term("x1 x2", 2)
    with pytest.raises(TermSyntaxError):
        parse_term("x5", 2)
    for text in ("x²", "(meet x1 x١)", "x" + "1" * 5000):
        with pytest.raises(TermSyntaxError):
            parse_term(text, 2)
    with pytest.raises(TermSyntaxError, match="malformed generator spec"):
        parse_term("(iota[0,,1,2;1] x1 x2 x3)", 3)


def test_size_and_depth(chain3):
    assert size(Var(1)) == 1 and depth(Var(1)) == 1
    t = Meet(Var(1), Var(2))
    assert size(t) == 3 and depth(t) == 2
    u = iota_term(chain3, 0, 1, 2, 1, (Var(1), t, Var(3)))
    assert size(u) == 1 + 1 + 3 + 1
    assert depth(u) == 3


def test_size_and_depth_walk_distinct_nodes():
    # 40 rounds of t = meet(t, t): 41 distinct nodes, a tree of 2**41 - 1
    t = Var(1)
    for _ in range(40):
        t = Meet(t, t)
    assert (size(t), depth(t)) == (2**41 - 1, 41)


def test_meet_of_join_of_left_nesting():
    t = meet_of([Var(1), Var(2), Var(3)])
    assert t == Meet(Meet(Var(1), Var(2)), Var(3))
    u = join_of([Var(1)])
    assert u == Var(1)
    with pytest.raises(ArityMismatch):
        meet_of([])


def test_term_file_round_trip(chain3):
    t = iota_term(chain3, 0, 1, 2, 1, (Var(1), Var(2), Var(3)))
    text = format_term_file(t, 3, chain3.name)
    arity, lattice_name, back = parse_term_file(text)
    assert (arity, lattice_name, back) == (3, "chain3", t)


@pytest.mark.parametrize("text,n,message,pos", [
    ("(iota[0,1,2;1] x1 x2)", 2, "iota[0,1,2;1] takes 3 arguments, got 2", 1),
    ("(meet x1 (mu[0] x1 x2))", 2, "mu[0] takes 1 arguments, got 2", 10),
    ("(meet x1 x2 x1)", 2, "'meet' takes two operands", 1),
    ("(join x1)", 2, "'join' takes two operands", 1),
    ("(bogus[1] x1)", 1, "unknown generator kind 'bogus'", 1),
    ("x3", 2, "variable x3 outside 1..2", 0),
    ("(meet x1", 2, "expected ')', got end of input", 8),
    (" )", 1, "unexpected ')'", 1),
    ("x1 x2", 2, "trailing input after term", 3),
])
def test_term_syntax_errors_name_their_position(text, n, message, pos):
    with pytest.raises(TermSyntaxError) as caught:
        parse_term(text, n)
    assert (str(caught.value), caught.value.pos) == (f"at position {pos}: {message}", pos)


@pytest.mark.parametrize("text,message,line", [
    ("\n  \n", "empty term file", None),
    ("\nterm arity 2 lattice\nx1\n", "expected 'term arity <n> lattice <name>'", 2),
    ("terms arity 2 lattice c\nx1\n", "expected 'term arity <n> lattice <name>'", 1),
    ("term arity two lattice c\nx1\n", "bad arity 'two'", 1),
    ("\n\nterm arity 0 lattice c\nx1\n", "arity must be >= 1, got 0", 3),
    ("term arity -1 lattice c\nx1\n", "arity must be >= 1, got -1", 1),
])
def test_term_file_errors_name_their_line(text, message, line):
    with pytest.raises(ParseError) as caught:
        parse_term_file(text)
    assert (str(caught.value), caught.value.line) == (
        message if line is None else f"line {line}: {message}", line)


def test_term_file_header_errors():
    with pytest.raises(ParseError):
        parse_term_file("")
    with pytest.raises(ParseError):
        parse_term_file("term arity x lattice c\nx1\n")
    with pytest.raises(ParseError):
        parse_term_file("bogus header line\nx1\n")
