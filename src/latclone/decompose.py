"""Constructive decompositions of aggregation functions into generator terms.

decompose_id writes an idempotent aggregation function f as the meet, over
all tuples a, of the join over coordinates i of

    iota[(meet a, a_i, join a); f(a)](meet x, x_i, join x),

which tabulates back to f exactly.  decompose_id_reduced replaces each iota
node by a join of two top-threshold iota nodes, so the whole term only uses
the reduced generating set.  h_agg_term realizes the majorant of a (not
necessarily idempotent) aggregation function as a mu/oplus composite.
"""

from __future__ import annotations

from .errors import NotAggregation, UnsupportedArity
from .functable import (FnTable, _cells, _packer, all_tuples, check_idempotent_aggregation,
                        is_aggregation)
from .generators import iota_spec, mu_spec, oplus_spec
from .lattice import Lattice, per_lattice
from .terms import (Apply, Join, Meet, Term, Var, _post_order, _table_memo, _tabulate,
                    join_of, meet_of)


def _decompose(f: FnTable, reduced: bool) -> Term:
    """The meet-of-joins iota term shared by both decompositions: the meet,
    over the tuples a in lexicographic order, of the anchor operand of a."""
    check_idempotent_aggregation(f)
    lat, n = f.lattice, f.arity
    return meet_of([_anchor_operand(lat, n, k, v, reduced) for k, v in enumerate(f.values)])


@per_lattice
def _anchor_operand(lat: Lattice, n: int, k: int, v: int, reduced: bool) -> Term:
    """The operand of the k-th tuple a when f(a) = v: the join over
    coordinates i of iota[(meet a, a_i, join a); v](mx, x_i, jx).  When
    reduced the third threshold is top and each node is joined with the
    shared tail iota[(meet a, join a, 1); v](mx, jx, jx)."""
    cells, a = _cells(lat, n), all_tuples(lat.size, n)[k]
    wa, va = cells.lows[k], cells.highs[k]
    xs = [Var(i) for i in range(1, n + 1)]
    mx, jx = meet_of(xs), join_of(xs)
    third = lat.top if reduced else va
    inner = [Apply(iota_spec(lat, wa, a[i], third, v), (mx, xs[i], jx)) for i in range(n)]
    if reduced:
        tail = Apply(iota_spec(lat, wa, va, lat.top, v), (mx, jx, jx))
        inner = [Join(node, tail) for node in inner]
    return join_of(inner)


def decompose_id(f: FnTable) -> Term:
    """Meet-of-joins iota term tabulating to f; f idempotent aggregation."""
    return _decompose(f, reduced=False)


def decompose_id_reduced(f: FnTable) -> Term:
    """Like decompose_id but every iota node has top as its third threshold.

    Each original iota[(w, a_i, v); f(a)](mx, x_i, jx) becomes
    iota[(w, a_i, 1); f(a)](mx, x_i, jx) join iota[(w, v, 1); f(a)](mx, jx, jx).
    """
    return _decompose(f, reduced=True)


def h_agg_term(f: FnTable, a) -> Term:
    """mu/oplus composite tabulating to h_agg(f, a); needs arity >= 2.

    Join over the coordinates where a_i is below top of mu[a_i](x_i),
    joined with the left-nested chain of n-1 oplus[f(a)] applications
    over x_1..x_n.
    """
    if not is_aggregation(f):
        raise NotAggregation("input must be an aggregation function")
    lat, n = f.lattice, f.arity
    if n < 2:
        raise UnsupportedArity("the mu/oplus composite needs arity >= 2")
    a = tuple(a)
    fa = f(a)
    chain = Var(1)
    for i in range(2, n + 1):
        chain = Apply(oplus_spec(lat, fa), (chain, Var(i)))
    mus = [
        Apply(mu_spec(lat, a[i]), (Var(i + 1),))
        for i in range(n)
        if a[i] != lat.top
    ]
    return join_of([*mus, chain])


def _operands(t: Term):
    """The children of t in simplify: the operands of the meet (join) chain
    at a meet (join) node, left to right."""
    node_type = type(t)
    if node_type not in (Meet, Join):
        return getattr(t, "args", ())  # an Apply's arguments; a Var has none
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            stack += [node.right, node.left]
        else:
            out.append(node)
    return out


def simplify(t: Term, lat: Lattice, n: int) -> Term:
    """Drop dominated operands from meet/join chains; preserves the table.

    In a meet, an operand can go when another operand is pointwise below it;
    dually for joins.  Purely a size optimization, applied bottom-up by a
    post-order walk over _operands that simplifies each distinct node once.
    The simplified nodes persist per lattice and arity beside the
    tabulation memo; a node that simplifies to itself is kept as None, as
    a value holding its own weak key would keep that key alive.
    """
    points, tabulated = all_tuples(lat.size, n), _table_memo(lat, n, "table")
    memo = _table_memo(lat, n, "simplify")  # node -> its simplified node
    for node, kids in _post_order(t, memo, _operands):
        if isinstance(node, Var):
            new = node
        elif isinstance(node, Apply):
            new = Apply(node.spec, [memo[k] or k for k in kids])
        else:
            new = _prune([memo[k] or k for k in kids], type(node), lat, points, tabulated)
        memo[node] = None if new is node else new
    return memo[t] or t


def _prune(ops: list[Term], node_type, lat: Lattice, points, memo) -> Term:
    """The node_type chain over the operands that no other operand makes
    redundant; memo is the lattice's tabulation memo at the arity of points.
    lo <= hi at every cell iff lo & ~hi is 0 on their packed down-set masks."""
    pack = _packer(lat, "down").pack
    masks = [pack(_tabulate(o, lat, points, memo)) for o in ops]

    def drops(j: int, i: int) -> bool:
        """Whether operand j makes operand i redundant."""
        if masks[i] == masks[j]:
            return j < i  # keep only the first of equal operands
        lo, hi = (masks[j], masks[i]) if node_type is Meet else (masks[i], masks[j])
        return not lo & ~hi

    kept = [o for i, o in enumerate(ops)
            if not any(drops(j, i) for j in range(len(ops)) if j != i)]
    return (meet_of if node_type is Meet else join_of)(kept)
