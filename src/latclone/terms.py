"""Expression trees over variables, binary meet/join, and generator nodes.

Grammar (whitespace-insensitive s-expressions):

    term := (meet term term) | (join term term) | (<spec> term...) | x<k>

where <spec> is a generator spec token such as iota[0,1,2;1].  Meets and
joins of more than two operands are built as left-nested binary nodes.
"""

from __future__ import annotations

import re
import weakref
from functools import reduce

from .errors import ArityMismatch, IndexOutOfRange, InvalidSpec, ParseError, TermSyntaxError
from .functable import (
    FnTable,
    _refuse_delattr,
    _refuse_setattr,
    all_tuples,
    compose_values,
    join_fn,
    meet_fn,
)
from .generators import GeneratorSpec, parse_spec
from .lattice import Lattice, per_lattice

# The unique table behind the hash-consed constructors: one live node per
# structure.  Keys hold the ids of the children, which stay valid while the
# entry lives because its node holds those children.
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_set = object.__setattr__


class Term:
    """A term node.  Constructors are hash-consed: building a node equal in
    structure to a live one returns that node, so equality and hashing go by
    identity and never walk the term."""

    __slots__ = ("__weakref__",)
    __setattr__ = _refuse_setattr
    __delattr__ = _refuse_delattr

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        """Pickle as the flat list of distinct nodes in post-order, each its
        type, its variable index or spec and its children's positions, so
        any depth pickles without recursion and shared nodes stay shared."""
        position: dict[Term, int] = {}
        entries = []
        for node, kids in _post_order(self, position):
            position[node] = len(entries)
            head = node.index if type(node) is Var else getattr(node, "spec", None)
            entries.append((type(node), head, [position[k] for k in kids]))
        return _rebuild, (entries,)

    def __repr__(self):
        return f"{type(self).__name__}<{print_term(self)}>"


def _intern(cls, key: tuple, **fields) -> Term:
    """The live node under key, or a new node of cls holding fields."""
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = object.__new__(cls)
        for name, value in fields.items():
            _set(node, name, value)
    return node


class Var(Term):
    __slots__ = ("index",)  # 1-based

    def __new__(cls, index: int):
        if index < 1:
            raise ArityMismatch(f"variable index must be >= 1, got {index}")
        return _intern(cls, (cls, index), index=index)


class _Binary(Term):
    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        return _intern(cls, (cls, id(left), id(right)), left=left, right=right)


class Meet(_Binary):
    __slots__ = ()


class Join(_Binary):
    __slots__ = ()


class Apply(Term):
    __slots__ = ("spec", "args")

    def __new__(cls, spec: GeneratorSpec, args):
        args = tuple(args)
        if len(args) != spec.arity:
            raise spec._arity_error(len(args))
        return _intern(cls, (cls, spec, tuple(map(id, args))), spec=spec, args=args)


def _left_nested(node_type, terms, name: str) -> Term:
    terms = list(terms)
    if not terms:
        raise ArityMismatch(f"{name} needs at least one operand")
    return reduce(node_type, terms)


def meet_of(terms) -> Term:
    """Left-nested meet of one or more terms."""
    return _left_nested(Meet, terms, "meet_of")


def join_of(terms) -> Term:
    """Left-nested join of one or more terms."""
    return _left_nested(Join, terms, "join_of")


def _children(node: Term) -> tuple[Term, ...]:
    kind = type(node)
    return node.args if kind is Apply else () if kind is Var else (node.left, node.right)


def _post_order(t: Term, done, children=_children):
    """Yield (node, children(node)) for each node of t that is not in done,
    once and after its children, from an explicit stack, so any depth
    works.  The caller puts each node in done before taking the next."""
    stack = [t]
    while stack:
        node = stack.pop()
        if node in done:
            continue
        kids = children(node)
        pending = [k for k in kids if k not in done]
        if pending:
            stack.append(node)
            stack += pending
        else:
            yield node, kids


def _rebuild(entries: list[tuple]) -> Term:
    """The term that Term.__reduce__ flattened into entries, built through
    the interning constructors, so it is the live node of that structure
    if there is one."""
    nodes: list[Term] = []
    for kind, head, kids in entries:
        args = [nodes[i] for i in kids]
        nodes.append(Var(head) if kind is Var else Apply(head, args) if kind is Apply
                     else kind(*args))
    return nodes[-1]


def _tabulate(t: Term, lat: Lattice, points, memo) -> tuple[int, ...]:
    """Values of t at every point: a post-order walk that composes each
    distinct node's outer table with its children's vectors once.  memo
    maps nodes to their vectors; walks over the same points may share it.
    """
    columns = tuple(zip(*points))
    lookups = {Meet: meet_fn(lat).lookup, Join: join_fn(lat).lookup}
    for node, kids in _post_order(t, memo):
        if isinstance(node, Var):
            if node.index > len(columns):
                raise ArityMismatch(f"variable x{node.index} outside arity {len(columns)}")
            memo[node] = columns[node.index - 1]
        else:
            lookup = lookups.get(type(node)) or node.spec.table(lat).lookup
            memo[node] = compose_values(lookup, [memo[k] for k in kids])
    return memo[t]


def evaluate(t: Term, lat: Lattice, xs) -> int:
    """Evaluate the term at the tuple xs of element indices."""
    xs, m = tuple(xs), lat.size
    if not all(0 <= x < m for x in xs):
        raise IndexOutOfRange(f"argument {xs} outside 0..{m - 1}")
    return _tabulate(t, lat, [xs], {})[0]


@per_lattice
def _table_memo(lat: Lattice, n: int, kind: str) -> weakref.WeakKeyDictionary:
    """A memo of lat at arity n: with kind "table" node -> its values at
    every n-tuple, with kind "simplify" node -> its simplified node.  Keys
    are weak, so an entry lasts as long as its node; the anchor operands,
    which the lattice keeps, stay tabulated and simplified across calls."""
    return weakref.WeakKeyDictionary()


def to_table(t: Term, lat: Lattice, n: int) -> FnTable:
    """Tabulate the term as an n-ary function table."""
    memo = _table_memo(lat, n, "table")
    return FnTable(lat, n, _tabulate(t, lat, all_tuples(lat.size, n), memo))


# The texts of the operands of printed meet/join chains (a decomposition's
# anchor operands recur from call to call); a text holds no node.
_texts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def print_term(t: Term) -> str:
    """The s-expression of t, built without recursion.  The operands of
    t's own meet (join) chain, down its left spine, keep their texts in
    _texts; the chain's heads are written on every call."""
    kind, node, rights = type(t), t, []
    while kind in (Meet, Join) and type(node) is kind:
        rights.append(node.right)
        node = node.left
    parts: list[str] = []
    spans: dict[Term, tuple[int, int]] = {}  # shared by this call's renderings
    texts = []
    for operand in (node, *reversed(rights)):
        text = _texts.get(operand)
        if text is None:
            start = len(parts)
            _render(operand, parts, spans)
            text = "".join(parts[start:])
            if rights:  # a root that is no chain keeps no text
                _texts[operand] = text
        texts.append(text)
    head = "(meet " if kind is Meet else "(join "
    return head * len(rights) + texts[0] + "".join([f" {text})" for text in texts[1:]])


def _render(t: Term, parts: list[str], spans: dict) -> None:
    """Append the s-expression of t to parts.  A node met a second time
    (decompositions share their meet(x), join(x) and tail subterms) copies
    the text of its first rendering, which spans maps to its slice of parts."""
    stack: list = [t]  # terms, literal text and end marks, next item last
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            parts.append(item)
        elif kind is tuple:
            node, start = item
            spans[node] = (start, len(parts))
        elif item in spans:
            start, stop = spans[item]
            parts += parts[start:stop]
        elif kind is Var:
            parts.append(f"x{item.index}")
        elif kind is Apply:
            stack += ((item, len(parts)), ")")
            for arg in reversed(item.args[1:]):
                stack += (arg, " ")
            stack += (item.args[0], f"({item.spec.format()} ")
        else:
            head = "(meet " if kind is Meet else "(join "
            stack += ((item, len(parts)), ")", item.right, " ", item.left, head)


def _tokenize(s: str):
    r"""(token, position) for each parenthesis and each run of other
    non-space characters; \s matches just what str.isspace() holds."""
    return [(t.group(), t.start()) for t in re.finditer(r"[()]|[^\s()]+", s)]


def parse_term(s: str, n: int) -> Term:
    """Parse an s-expression into a Term over variables x1..xn.

    A descent on an explicit stack of open '(' frames, so any nesting depth
    parses without recursion.
    """
    tokens = _tokenize(s)
    pos = 0

    def need(what):
        if pos >= len(tokens):
            raise TermSyntaxError(f"expected {what}, got end of input", len(s))
        return tokens[pos]

    def atom_var(token, at):
        digits = token[1:]
        if not token.startswith("x") or not (digits.isascii() and digits.isdigit()):
            raise TermSyntaxError(f"expected variable or '(', got {token!r}", at)
        try:
            k = int(digits)
        except ValueError:  # more digits than int() converts
            raise TermSyntaxError(f"variable {token} outside 1..{n}", at)
        if not 1 <= k <= n:
            raise TermSyntaxError(f"variable x{k} outside 1..{n}", at)
        return Var(k)

    def node(head, head_at, args):
        if head in ("meet", "join"):
            if len(args) != 2:
                raise TermSyntaxError(f"'{head}' takes two operands", head_at)
            return (Meet if head == "meet" else Join)(*args)
        try:  # Apply refuses a wrong number of arguments
            return Apply(parse_spec(head), args)
        except InvalidSpec as exc:
            raise TermSyntaxError(str(exc), head_at)

    frames: list = []  # (head, head position, operands so far) per open '('
    while True:
        token, at = need("a term")
        if token == ")":
            raise TermSyntaxError("unexpected ')'", at)
        pos += 1
        if token == "(":
            head, head_at = need("an operator")
            pos += 1
            frames.append((head, head_at, []))
        elif frames:
            frames[-1][2].append(atom_var(token, at))
        else:
            result = atom_var(token, at)
            break
        # close every frame whose operands are complete
        while True:
            token, at = need("')'")
            if token != ")":
                break  # the next operand of the innermost frame
            pos += 1
            result = node(*frames.pop())
            if not frames:
                break
            frames[-1][2].append(result)
        if not frames:
            break

    if pos != len(tokens):
        raise TermSyntaxError("trailing input after term", tokens[pos][1])
    return result


def _fold_nodes(t: Term, combine) -> int:
    """1 + combine([0, *the children's values]) at each distinct node of t,
    by one post-order walk: linear in the distinct nodes."""
    values: dict[Term, int] = {}
    for node, kids in _post_order(t, values):
        values[node] = 1 + combine([0, *map(values.__getitem__, kids)])
    return values[t]


def size(t: Term) -> int:
    """Node count of t as a tree (a shared subterm counts at every use)."""
    return _fold_nodes(t, sum)


def depth(t: Term) -> int:
    return _fold_nodes(t, max)


def parse_term_file(text: str) -> tuple[int, str, Term]:
    """Parse 'term arity <n> lattice <name>' header plus one s-expression.

    Returns (arity, lattice name, term).
    """
    lines = text.splitlines()
    header_no = None
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            header_no = lineno
            break
    if header_no is None:
        raise ParseError("empty term file")
    fields = lines[header_no - 1].split()
    if (
        len(fields) != 5
        or fields[0] != "term"
        or fields[1] != "arity"
        or fields[3] != "lattice"
    ):
        raise ParseError("expected 'term arity <n> lattice <name>'", header_no)
    try:
        arity = int(fields[2])
    except ValueError:
        raise ParseError(f"bad arity {fields[2]!r}", header_no)
    if arity < 1:
        raise ParseError(f"arity must be >= 1, got {arity}", header_no)
    body = "\n".join(lines[header_no:])
    return arity, fields[4], parse_term(body, arity)


def format_term_file(t: Term, arity: int, lattice_name: str) -> str:
    return f"term arity {arity} lattice {lattice_name}\n{print_term(t)}\n"
