"""Command-line front end.

Subcommands: lattice check, enum, decompose, verify, closure, count.
All output is deterministic plain text on stdout (or --out).  Exit codes:
0 success, 2 domain/validation error, 3 budget exhausted, 4 internal
self-check failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import clone, decompose, functable, generators, lattice, terms
from .errors import BudgetExceeded, LatcloneError

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def load_lattice(spec: str) -> lattice.Lattice:
    """Resolve 'chain:<n>', 'm:<k>', 'boolean:<k>', 'n5' or 'file:<path>'.

    A named lattice is built once per process, so successive commands share
    the tables cached on it; a file is read again on every call."""
    family, _, param = spec.partition(":")
    if family in ("chain", "m", "boolean"):
        return _named_lattice(family, _int_param(spec, param))
    if spec == "n5":
        return _named_lattice(spec, None)
    if family == "file":
        with open(param, encoding="utf-8") as fh:
            return lattice.parse_lattice(fh.read())
    raise LatcloneError(f"unknown lattice spec {spec!r}")


@functools.cache
def _named_lattice(family: str, k: int | None) -> lattice.Lattice:
    if family == "n5":
        return lattice.n5()
    return {"chain": lattice.chain, "m": lattice.m_lattice, "boolean": lattice.boolean}[family](k)


def _int_param(spec: str, param: str) -> int:
    try:
        return int(param)
    except ValueError:
        raise LatcloneError(f"bad lattice spec {spec!r}: integer parameter expected")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_lattice_check(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        lat = lattice.parse_lattice(fh.read())
    relabeling = " ".join(lat.labels)
    print(f"size={lat.size} bottom={lat.labels[lat.bottom]} top={lat.labels[lat.top]}")
    print(f"order: {relabeling}")
    return EXIT_OK


def cmd_enum(args) -> int:
    lat = load_lattice(args.lattice)
    query = lat, args.arity, args.cls, args.cell_budget, args.count_budget
    if not args.emit:  # a count needs no members
        _emit(f"count={functable.count_class(*query)}\n", args.out)
        return EXIT_OK
    fns = functable.enumerate_class(*query)
    lines = [f"count={len(fns)}"]
    for i, f in enumerate(fns):
        lines.append(functable.format_function(f.renamed(f"f{i}")).rstrip("\n"))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    lat = load_lattice(args.lattice)
    with open(args.fn_file, encoding="utf-8") as fh:
        f = functable.parse_function(fh.read(), lat)
    build = decompose.decompose_id_reduced if args.reduced else decompose.decompose_id
    term = build(f)
    if args.simplify:
        term = decompose.simplify(term, lat, f.arity)
    if terms.to_table(term, lat, f.arity).values != f.values:
        print("internal error: decomposition self-check failed", file=sys.stderr)
        return EXIT_INTERNAL
    _emit(terms.format_term_file(term, f.arity, lat.name), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    lat = load_lattice(args.lattice)
    report = clone.verify_generation(lat, args.arity, args.budget)
    _emit(clone.format_verification_report(report), args.out)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_closure(args) -> int:
    lat = load_lattice(args.lattice)
    base = [functable.meet_fn(lat), functable.join_fn(lat)]
    if args.reduced:
        base += [s.table(lat) for s in generators.reduced_generator_set(lat)]
    for path in args.fn_file:
        with open(path, encoding="utf-8") as fh:
            base.append(functable.parse_function(fh.read(), lat))
    report = clone.closure(base, args.arity, args.budget)
    _emit(clone.format_closure_report(report), args.out)
    return EXIT_BUDGET if report.budget_hit else EXIT_OK


def _parse_n_range(raw: str) -> range:
    lo, sep, hi = raw.partition("..")
    try:
        span = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise LatcloneError(f"bad n range {raw!r}")
    if not span:
        raise LatcloneError(f"empty n range {raw!r}")
    return span


def cmd_count(args) -> int:
    lines = []
    for n in _parse_n_range(args.n):
        if args.family == "chain":
            closed = generators.count_generators_chain(n)
            enum = len(generators.reduced_generator_set(lattice.chain(n))) + 2
        else:
            closed = generators.count_generators_m(n)
            enum = len(generators.reduced_generator_set(lattice.m_lattice(n - 2))) + 2
        lines.append(f"n={n} count={closed} enum={enum}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    as it was, as the append action copies its default list."""
    parser = argparse.ArgumentParser(
        prog="latclone",
        description="Workbench for idempotent aggregation functions on finite lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lat = sub.add_parser("lattice", help="lattice file operations")
    lat_sub = p_lat.add_subparsers(dest="lattice_command", required=True)
    p_check = lat_sub.add_parser("check", help="parse and validate a lattice file")
    p_check.add_argument("path")
    p_check.set_defaults(func=cmd_lattice_check)

    p_enum = sub.add_parser("enum", help="enumerate a function class")
    p_enum.add_argument("--lattice", required=True)
    p_enum.add_argument("--arity", type=int, required=True)
    p_enum.add_argument("--class", dest="cls", required=True, choices=functable.CLASSES)
    p_enum.add_argument("--emit", action="store_true")
    p_enum.add_argument("--cell-budget", type=int, default=functable.DEFAULT_CELL_BUDGET)
    p_enum.add_argument("--count-budget", type=int, default=functable.DEFAULT_COUNT_BUDGET)
    p_enum.add_argument("--out")
    p_enum.set_defaults(func=cmd_enum)

    p_dec = sub.add_parser("decompose", help="decompose an idempotent function")
    p_dec.add_argument("--lattice", required=True)
    p_dec.add_argument("fn_file")
    p_dec.add_argument("--reduced", action="store_true")
    p_dec.add_argument("--simplify", action="store_true")
    p_dec.add_argument("--out")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="verify the reduced set generates Id^n")
    p_ver.add_argument("--lattice", required=True)
    p_ver.add_argument("--arity", type=int, required=True)
    p_ver.add_argument("--budget", type=int, default=clone.DEFAULT_CLOSURE_BUDGET,
                       help="bound on the certificate's generator applications")
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)

    p_clo = sub.add_parser("closure", help="bounded composition closure")
    p_clo.add_argument("--lattice", required=True)
    p_clo.add_argument("--arity", type=int, required=True)
    p_clo.add_argument("--reduced", action="store_true",
                       help="include the reduced iota generators in the base")
    p_clo.add_argument("--fn-file", action="append", default=[])
    p_clo.add_argument("--budget", type=int, default=clone.DEFAULT_CLOSURE_BUDGET)
    p_clo.add_argument("--out")
    p_clo.set_defaults(func=cmd_closure)

    p_cnt = sub.add_parser("count", help="generator counts per family")
    p_cnt.add_argument("--family", required=True, choices=("chain", "m"))
    p_cnt.add_argument("--n", required=True, help="single value or range lo..hi")
    p_cnt.add_argument("--out")
    p_cnt.set_defaults(func=cmd_count)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (LatcloneError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
