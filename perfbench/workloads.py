"""The benchmark's lattices, cases, round schedules and seeded inputs.

Standard library only.  The worker process imports this module next to
latclone, and whatever it imports counts towards the worker's resident set.
The lattices are written down here as labels and covers rather than built
by latclone, so that the oracles and the input generator share no code with
the program under test.
"""

from __future__ import annotations

import itertools
import os
import random

WORKLOADS = ("enum", "decompose", "verify")

# Labels in the order latclone's constructors list them, and Hasse covers.
_LATTICE_DEFS = {
    "chain2": (("0", "1"), (("0", "1"),)),
    "chain3": (("0", "1", "2"), (("0", "1"), ("1", "2"))),
    "chain4": (("0", "1", "2", "3"), (("0", "1"), ("1", "2"), ("2", "3"))),
    "m2": (("0", "a1", "a2", "1"),
           (("0", "a1"), ("0", "a2"), ("a1", "1"), ("a2", "1"))),
    "m3": (("0", "a1", "a2", "a3", "1"),
           (("0", "a1"), ("0", "a2"), ("0", "a3"),
            ("a1", "1"), ("a2", "1"), ("a3", "1"))),
    "n5": (("0", "a", "b", "c", "1"),
           (("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1"))),
}

# latclone's lattice spec strings, as the command line takes them.
CLI_SPEC = {
    "chain2": "chain:2", "chain3": "chain:3", "chain4": "chain:4",
    "m2": "m:2", "m3": "m:3", "n5": "n5",
}


class Lat:
    """A finite lattice as plain order, meet and join tables."""

    def __init__(self, name: str, labels, covers):
        self.name = name
        self.labels = tuple(labels)
        m = self.size = len(self.labels)
        index = {lab: i for i, lab in enumerate(self.labels)}
        self.covers = tuple((index[lo], index[hi]) for lo, hi in covers)
        if any(lo >= hi for lo, hi in self.covers):
            raise ValueError(f"{name}: labels are not listed in a linear extension")
        leq = [[i == j for j in range(m)] for i in range(m)]
        for lo, hi in self.covers:
            leq[lo][hi] = True
        for k in range(m):  # Warshall's transitive closure
            for i in range(m):
                if leq[i][k]:
                    for j in range(m):
                        if leq[k][j]:
                            leq[i][j] = True
        self.leq = leq
        self.meet = [[self._extremum(x, y, below=True) for y in range(m)] for x in range(m)]
        self.join = [[self._extremum(x, y, below=False) for y in range(m)] for x in range(m)]
        self.bottom = self.meet[0][m - 1]
        self.top = self.join[0][m - 1]

    def _extremum(self, x: int, y: int, below: bool) -> int:
        leq, m = self.leq, self.size
        if below:
            bounds = [z for z in range(m) if leq[z][x] and leq[z][y]]
            best = [z for z in bounds if all(leq[w][z] for w in bounds)]
        else:
            bounds = [z for z in range(m) if leq[x][z] and leq[y][z]]
            best = [z for z in bounds if all(leq[z][w] for w in bounds)]
        if len(best) != 1:
            raise ValueError(f"{self.name} is not a lattice")
        return best[0]

    def meet_all(self, xs) -> int:
        acc = xs[0]
        for x in xs[1:]:
            acc = self.meet[acc][x]
        return acc

    def join_all(self, xs) -> int:
        acc = xs[0]
        for x in xs[1:]:
            acc = self.join[acc][x]
        return acc


def lattice(name: str) -> Lat:
    labels, covers = _LATTICE_DEFS[name]
    return Lat(name, labels, covers)


# ---------------------------------------------------------------- cases
# An op is a tuple whose first field names its kind:
#   ("enum", lattice, arity, class)
#   ("verify", lattice, arity)      verify_generation
#   ("fixpoint", lattice, arity)    closure of {meet, join}, no target
#   ("cover", lattice, arity)       part A of verify: closure with Id as target
#   ("decompose", lattice, arity, j, simplify)   j-th seeded input function

# Heavy ops run once a round, spread between passes of the cheap ops.  The
# cheap passes repeat through the round so that op_p50_ms is a median over
# samples spread across the whole run; the multiplicities put that median
# in the middle of one group of equal ops (enum: chain4 Id^2; verify: the
# m3 fixpoint) instead of on the edge between two groups.
ENUM_HEAVY = (("enum", "m3", 2, "idempotent"), ("enum", "n5", 2, "idempotent"),
              ("enum", "chain3", 3, "idempotent"))
ENUM_PASS = (("enum", "chain3", 2, "idempotent"), ("enum", "m2", 2, "idempotent"),
             ("enum", "chain4", 2, "idempotent"), ("enum", "chain4", 2, "idempotent"),
             ("enum", "chain2", 4, "idempotent"), ("enum", "chain2", 5, "monotone"),
             ("enum", "chain4", 2, "monotone"), ("enum", "chain4", 2, "monotone"))
ENUM_PASSES = 10

VERIFY_HEAVY = (("verify", "m2", 2), ("verify", "chain2", 4), ("cover", "chain4", 2))
VERIFY_PASS = (("fixpoint", "chain3", 3),) * 2 + (("fixpoint", "m2", 3),) * 3 \
    + (("fixpoint", "m3", 3),) * 2 + (("fixpoint", "n5", 3), ("fixpoint", "chain2", 4),
                                      ("verify", "chain3", 2), ("verify", "chain2", 3))
VERIFY_PASSES = 3

DECOMPOSE_CASES = (("m2", 2), ("chain4", 2), ("n5", 2), ("m3", 2), ("chain3", 3),
                   ("chain2", 4))
DECOMPOSE_FUNCTIONS = 16  # seeded input functions per case
SIMPLIFY_EVERY = 4  # input j is decomposed with --simplify when j % 4 == 0

# The smoke ladder keeps every op kind but drops the costly cases; the
# benchmark's own tests run it.
SMOKE = {
    "enum": ((("enum", "chain2", 5, "monotone"),),
             (("enum", "chain3", 2, "idempotent"), ("enum", "m2", 2, "idempotent"),
              ("enum", "chain2", 4, "idempotent")), 2),
    "verify": ((("cover", "chain4", 2),),
               (("verify", "chain3", 2), ("fixpoint", "m2", 3), ("fixpoint", "m3", 3)), 2),
}
SMOKE_DECOMPOSE = ((("m2", 2), ("chain2", 4)), 2)


def _interleave(heavy, cheap_pass, passes: int, rng: random.Random) -> list:
    """passes shuffled copies of cheap_pass with the heavy ops spread evenly
    between them, the j-th heavy op after pass floor(j * passes / len(heavy))."""
    after = [j * passes // len(heavy) for j in range(len(heavy))]
    ops = []
    for i in range(passes):
        block = list(cheap_pass)
        rng.shuffle(block)
        ops += block
        ops += [op for op, slot in zip(heavy, after) if slot == i]
    return ops


def decompose_plan(smoke: bool = False):
    """(cases, functions per case) of the decompose workload."""
    return SMOKE_DECOMPOSE if smoke else (DECOMPOSE_CASES, DECOMPOSE_FUNCTIONS)


def schedule(workload: str, seed: int, smoke: bool = False) -> list:
    """The ops of one round, in order.  Every round of a run repeats it."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "decompose":
        cases, per_case = decompose_plan(smoke)
        ops = []
        for j in range(per_case):
            block = [("decompose", lat, n, j, j % SIMPLIFY_EVERY == 0) for lat, n in cases]
            rng.shuffle(block)
            ops += block
        return ops
    if smoke:
        heavy, cheap, passes = SMOKE[workload]
    elif workload == "enum":
        heavy, cheap, passes = ENUM_HEAVY, ENUM_PASS, ENUM_PASSES
    else:
        heavy, cheap, passes = VERIFY_HEAVY, VERIFY_PASS, VERIFY_PASSES
    return _interleave(heavy, cheap, passes, rng)


# ---------------------------------------------------------------- inputs

def all_tuples(m: int, n: int):
    """n-tuples over 0..m-1 in latclone's cell order (first coordinate most
    significant), which is lexicographic order."""
    return list(itertools.product(range(m), repeat=n))


def draw_idempotent(lat: Lat, n: int, rng: random.Random) -> tuple:
    """A random idempotent aggregation function as a value vector.

    Cells are filled in index order, a linear extension of the product
    order.  Each value is drawn uniformly from the elements that are at
    least the join of the values one cover step below and meet(x), and at
    most join(x); the diagonal is pinned.  That range is never empty, and
    no later cell is left without a choice, so nothing is enumerated.
    """
    m = lat.size
    strides = [m ** (n - 1 - i) for i in range(n)]
    lower_covers = [[lo for lo, hi in lat.covers if hi == x] for x in range(m)]
    values = []
    for t, xs in enumerate(all_tuples(m, n)):
        lo = lat.meet_all(xs)
        for i, x in enumerate(xs):
            for c in lower_covers[x]:
                lo = lat.join[lo][values[t - (x - c) * strides[i]]]
        if all(x == xs[0] for x in xs):
            values.append(xs[0])
            continue
        hi = lat.join_all(xs)
        values.append(rng.choice([v for v in range(m) if lat.leq[lo][v] and lat.leq[v][hi]]))
    return tuple(values)


def draw_inputs(seed: int, smoke: bool = False) -> dict:
    """{(lattice, arity): [value vector, ...]} for the decompose workload."""
    cases, per_case = decompose_plan(smoke)
    out = {}
    for lat_name, n in cases:
        rng = random.Random(f"decompose:{seed}:{lat_name}:{n}")
        lat = lattice(lat_name)
        out[lat_name, n] = [draw_idempotent(lat, n, rng) for _ in range(per_case)]
    return out


def term_file(workdir: str, op) -> str:
    """Where the decompose op writes its term file."""
    _, lat_name, n, j, _ = op
    return os.path.join(workdir, f"{lat_name}-{n}-{j}.term")


def format_function(lat: Lat, n: int, values, name: str) -> str:
    """latclone's function file format: a header, one row per tuple, 'end'."""
    lines = [f"function {name} arity {n} lattice {lat.name}"]
    for xs, v in zip(all_tuples(lat.size, n), values):
        lines.append(" ".join(lat.labels[x] for x in xs) + " -> " + lat.labels[v])
    lines.append("end")
    return "\n".join(lines) + "\n"
