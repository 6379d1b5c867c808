"""Independent oracles: class counts, free-lattice sizes, a property checker
and a term evaluator.

None of this calls latclone.  Value vectors use latclone's cell order (the
first coordinate most significant) and its element indices, which are the
positions of the labels in workloads.Lat.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from workloads import Lat, all_tuples

# Dedekind numbers D(n): monotone Boolean functions of n variables (OEIS A000372).
DEDEKIND = (2, 3, 6, 20, 168, 7581)

# Sizes of the {meet, join} fixpoint: the free algebra on n generators in the
# lattice variety the lattice generates.  Distributive lattices give the free
# distributive lattice (18 and 166 elements on 3 and 4 generators), M3 the
# free modular lattice on 3 generators (28), N5 the free lattice on 3
# generators in the variety generated by N5 (99).
FREE_LATTICE = {
    ("chain2", 3): 18, ("chain2", 4): 166,
    ("chain3", 3): 18, ("m2", 3): 18, ("chain4", 3): 18,
    ("m3", 3): 28, ("n5", 3): 99,
}


def macmahon(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box (MacMahon's product formula)."""
    acc = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                acc *= Fraction(i + j + k - 1, i + j + k - 2)
    return int(acc)


def closed_form_count(lat: Lat, n: int, cls: str):
    """The class size from a closed form, or None when none applies."""
    if lat.name == "chain2" and cls == "monotone":
        return DEDEKIND[n]
    if lat.name == "chain2" and cls == "idempotent":
        return DEDEKIND[n] - 2
    if lat.name.startswith("chain") and n == 2 and cls == "monotone":
        # monotone maps [m]^2 -> [m] are plane partitions in an m x m x (m-1) box
        return macmahon(lat.size, lat.size, lat.size - 1)
    return None


class Tables:
    """numpy views of a lattice at one arity: the cells, their meets and
    joins, and the cover steps of the product order."""

    def __init__(self, lat: Lat, n: int):
        self.lat, self.n = lat, n
        m = self.m = lat.size
        self.cells = m**n
        self.leq = np.array(lat.leq, dtype=bool)
        self.meet = np.array(lat.meet, dtype=np.uint8)
        self.join = np.array(lat.join, dtype=np.uint8)
        self.x = np.array(all_tuples(m, n), dtype=np.uint8).reshape(self.cells, n)
        self.meet_x = self.x[:, 0].copy()
        self.join_x = self.x[:, 0].copy()
        for i in range(1, n):
            self.meet_x = self.meet[self.meet_x, self.x[:, i]]
            self.join_x = self.join[self.join_x, self.x[:, i]]
        src, dst = [], []
        for t, xs in enumerate(all_tuples(m, n)):
            for i, xi in enumerate(xs):
                stride = m ** (n - 1 - i)
                for lo, hi in lat.covers:
                    if lo == xi:
                        src.append(t)
                        dst.append(t + (hi - lo) * stride)
        self.cover_src = np.array(src, dtype=np.intp)
        self.cover_dst = np.array(dst, dtype=np.intp)
        self.diagonal = np.array([sum(x * m ** (n - 1 - i) for i in range(n)) for x in range(m)],
                                 dtype=np.intp)


_CHUNK = 1 << 15


def property_masks(tab: Tables, v: np.ndarray, idempotent: bool) -> dict:
    """{property: boolean mask of the rows of v that have it}: monotone
    along cover steps and, for the idempotent class, a fixed diagonal, the
    boundary values and meet(x) <= f(x) <= join(x)."""
    masks = {"monotone": tab.leq[v[:, tab.cover_src], v[:, tab.cover_dst]].all(axis=1)}
    if idempotent:
        masks["fixed diagonal"] = (v[:, tab.diagonal] == np.arange(tab.m)).all(axis=1)
        masks["boundary values"] = (v[:, 0] == tab.lat.bottom) & (v[:, -1] == tab.lat.top)
        masks["within [meet x, join x]"] = \
            (tab.leq[tab.meet_x, v] & tab.leq[v, tab.join_x]).all(axis=1)
    return masks


def property_failures(tab: Tables, vectors: np.ndarray, idempotent: bool) -> list[str]:
    """The properties some row of vectors lacks; empty when all rows pass."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[1] != tab.cells:
        return [f"expected rows of {tab.cells} values, got shape {vectors.shape}"]
    if vectors.size and vectors.max() >= tab.m:
        return ["value outside the lattice"]
    for lo in range(0, len(vectors), _CHUNK):
        masks = property_masks(tab, vectors[lo:lo + _CHUNK], idempotent)
        bad = [f"not {name}" for name, mask in masks.items() if not mask.all()]
        if bad:
            return bad
    return []


def _candidate_rows(lat: Lat, n: int, x: int, cls: str) -> np.ndarray:
    """All rows f(x, .) of a class member, as vectors over the (n-1)-tuples."""
    m = lat.size
    k = m ** (n - 1)
    rows = np.array(list(itertools.product(range(m), repeat=k)), dtype=np.uint8)
    if n > 1:
        rows = rows[property_masks(Tables(lat, n - 1), rows, idempotent=False)["monotone"]]
    if cls == "idempotent":
        full = Tables(lat, n)
        sl = slice(x * k, (x + 1) * k)
        lo, hi = full.meet_x[sl], full.join_x[sl]
        keep = (full.leq[lo, rows] & full.leq[rows, hi]).all(axis=1)
        diag = x * (k - 1) // (m - 1) if n > 1 else 0  # index of (x, ..., x) among the (n-1)-tuples
        keep &= rows[:, diag] == x
        rows = rows[keep]
    elif cls != "monotone":
        raise ValueError(f"no row count for class {cls!r}")
    return rows


def _chains_between_bounds(lat: Lat):
    """The elements strictly between bottom and top as disjoint chains, or
    None when they do not split that way."""
    inner = [x for x in range(lat.size) if x not in (lat.bottom, lat.top)]
    succ = {x: [hi for lo, hi in lat.covers if lo == x and hi != lat.top] for x in inner}
    pred = {x: [lo for lo, hi in lat.covers if hi == x and lo != lat.bottom] for x in inner}
    if any(len(s) > 1 for s in succ.values()) or any(len(p) > 1 for p in pred.values()):
        return None
    chains = []
    for x in inner:
        if not pred[x]:
            chain = [x]
            while succ[chain[-1]]:
                chain.append(succ[chain[-1]][0])
            chains.append(chain)
    return chains


def count_class(lat: Lat, n: int, cls: str) -> int:
    """Class size by a row-by-row transfer count, without listing members.

    f is split into its rows r_x = f(x, .), one per element x.  f is in
    the class exactly when every r_x is an admissible row and r_x <= r_y
    pointwise whenever x is covered by y.  For a lattice whose inner
    elements form disjoint chains (chains, M_k, N5) the count is the sum
    over the bottom and top rows of the product, over the chains, of the
    number of monotone paths of rows from bottom to top through the chain.
    """
    chains = _chains_between_bounds(lat)
    if chains is None:
        raise ValueError(f"{lat.name}: inner elements are not disjoint chains")
    rows = {x: _candidate_rows(lat, n, x, cls) for x in range(lat.size)}

    leq = np.array(lat.leq, dtype=bool)

    def step(x: int, y: int) -> np.ndarray:
        """[i, j] = 1 when row i of x lies pointwise below row j of y."""
        return leq[rows[x][:, None, :], rows[y][None, :, :]].all(axis=2).astype(np.int64)

    total = step(lat.bottom, lat.top)
    for chain in chains:
        path = step(lat.bottom, chain[0])
        for lo, hi in zip(chain, chain[1:]):
            path = path @ step(lo, hi)
        total = total * (path @ step(chain[-1], lat.top))
    return int(total.sum())


def meet_join_closure(lat: Lat, n: int) -> np.ndarray:
    """The n-ary term functions of {meet, join}: the projections closed under
    pointwise meet and join (semi-naive: each pass pairs every row with the
    rows found in the pass before)."""
    tab = Tables(lat, n)
    rows = np.ascontiguousarray(tab.x.T)
    seen = {row.tobytes() for row in rows}
    frontier = rows
    while len(frontier):
        a, b = rows[:, None, :], frontier[None, :, :]
        found = np.concatenate([tab.meet[a, b], tab.join[a, b]]).reshape(-1, tab.cells)
        fresh = []
        for row in found:
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(row)
        frontier = np.array(fresh, dtype=np.uint8).reshape(-1, tab.cells)
        rows = np.concatenate([rows, frontier])
    return rows


# ---------------------------------------------------------------- terms

class TermError(ValueError):
    """A term file that does not parse, or that breaks the reduced form."""


def parse_term(text: str):
    """Parse an s-expression into hash-consed nodes.

    Returns (nodes, root, tree_size): nodes[i] is a variable name or a
    tuple of an operator and child node ids, each distinct subterm once and
    children before parents; tree_size counts the nodes of the tree the
    text spells out.  Iterative, so depth is no limit.
    """
    ids: dict = {}
    nodes: list = []
    sizes: list = []
    stack: list = [[]]
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            stack.append([])
            continue
        if token == ")":
            if len(stack) < 2 or not stack[-1] or isinstance(stack[-1][0], int):
                raise TermError("malformed application")
            op, *args = stack.pop()
            key, size = (op, *args), 1 + sum(sizes[a] for a in args)
        else:
            if len(stack) > 1 and not stack[-1]:  # operator position
                stack[-1].append(token)
                continue
            key, size = token, 1
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append(key)
            sizes.append(size)
        stack[-1].append(ids[key])
    if len(stack) != 1 or len(stack[0]) != 1:
        raise TermError("expected exactly one term")
    root = stack[0][0]
    return nodes, root, sizes[root]


def parse_term_file(text: str, lat: Lat, n: int):
    """parse_term of a term file's body, after checking its header."""
    head, _, body = text.strip().partition("\n")
    if head.split() != ["term", "arity", str(n), "lattice", lat.name]:
        raise TermError(f"bad header {head!r}")
    return parse_term(body)


def _iota_params(op: str, lat: Lat):
    if not (op.startswith("iota[") and op.endswith("]")):
        raise TermError(f"unexpected operator {op!r}")
    bound, sep, target = op[len("iota["):-1].partition(";")
    labels = bound.split(",")
    if not sep or len(labels) != 3:
        raise TermError(f"malformed iota {op!r}")
    try:
        return tuple(lat.labels.index(lab) for lab in (*labels, target))
    except ValueError:
        raise TermError(f"unknown label in {op!r}")


def evaluate_term(nodes, root: int, tab: Tables, reduced: bool = True) -> np.ndarray:
    """Tabulate a parsed term over every cell, each distinct subterm once.

    iota[a,b,c;d](s,t,u) is meet(d, s v t v u) where s <= a, t <= b and
    u <= c, and s v t v u elsewhere.  With reduced set, every iota must
    have top as c, a <= b and a <= d.
    """
    lat, leq, meet, join = tab.lat, tab.leq, tab.meet, tab.join
    vals = []
    for node in nodes:
        if isinstance(node, str):
            if not (node[:1] == "x" and node[1:].isdigit() and 1 <= int(node[1:]) <= tab.n):
                raise TermError(f"bad variable {node!r}")
            vals.append(tab.x[:, int(node[1:]) - 1])
            continue
        op, args = node[0], [vals[i] for i in node[1:]]
        if op in ("meet", "join"):
            if len(args) != 2:
                raise TermError(f"{op} takes two operands")
            vals.append((meet if op == "meet" else join)[args[0], args[1]])
            continue
        a, b, c, d = _iota_params(op, lat)
        if reduced and not (c == lat.top and lat.leq[a][b] and lat.leq[a][d]):
            raise TermError(f"{op} is not a reduced generator")
        if len(args) != 3:
            raise TermError(f"{op} takes three arguments")
        s, t, u = args
        jx = join[join[s, t], u]
        vals.append(np.where(leq[s, a] & leq[t, b] & leq[u, c], meet[d, jx], jx))
    return vals[root]
