"""A corrupted result makes the check fail: a count off by one, one iota
target changed in a term, one reached function outside Id."""

import os
import re
import shutil

import pytest

import workloads
from checks import EXPECTED, OK, WRONG, Checker
from conftest import ROOT
from latclone import chain, closure, enumerate_class, join_fn, m_lattice, meet_fn, verify_generation
from latclone.cli import main as cli_main
from latclone.terms import parse_term_file, to_table


def pack(vectors):
    return b"".join(bytes(getattr(v, "values", v)) for v in vectors)


@pytest.fixture(scope="module")
def workdir():
    path = os.path.join(ROOT, ".perfbench_out", f"test-checks-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def verify_checker(workdir):
    return Checker("verify", seed=1, smoke=True, workdir=workdir)


def test_enum_count_off_by_one(workdir):
    checker = Checker("enum", seed=1, smoke=True, workdir=workdir)
    op = ("enum", "chain3", 2, "idempotent")
    fns = enumerate_class(chain(3), 2, "idempotent")
    assert checker.check(op, {"count": 64}, pack(fns)) == (OK, "")
    assert checker.check(op, {"count": 65}, pack(fns))[0] == WRONG
    assert checker.check(op, {"count": 63}, pack(fns[1:]))[0] == WRONG
    assert checker.check(op, {"count": 64}, pack(fns[::-1]))[0] == WRONG


def outside_id(vectors):
    """The vectors with the second one replaced by a constant function."""
    vectors = [list(getattr(v, "values", v)) for v in vectors]
    vectors[1] = [vectors[-1][-1]] * len(vectors[1])
    return vectors


def test_verify_reached_function_outside_id(verify_checker):
    report = verify_generation(chain(3), 2)
    meta = {"id_count": report.id_count, "closure_pass": report.closure_pass,
            "decomposition_pass": report.decomposition_pass}
    op = ("verify", "chain3", 2)
    reached = report.closure_report.reached
    assert verify_checker.check(op, meta, pack(reached)) == (OK, "")
    assert verify_checker.check(op, meta, pack(outside_id(reached)))[0] == WRONG
    assert verify_checker.check(op, dict(meta, id_count=63), pack(reached))[0] == WRONG
    assert verify_checker.check(op, dict(meta, decomposition_pass=False), pack(reached))[0] == WRONG


def test_fixpoint_reached_function_outside_id(verify_checker):
    lat = m_lattice(2)
    report = closure([meet_fn(lat), join_fn(lat)], 3)
    meta = {"budget_hit": report.budget_hit, "attempts": report.attempts}
    op = ("fixpoint", "m2", 3)
    assert verify_checker.check(op, meta, pack(report.reached)) == (OK, "")
    assert verify_checker.check(op, meta, pack(outside_id(report.reached)))[0] == WRONG
    assert verify_checker.check(op, meta, pack(report.reached[:-1]))[0] == WRONG


def test_cover_short_of_id_is_the_expected_failure(verify_checker):
    ids = enumerate_class(chain(4), 2, "idempotent")
    op = ("cover", "chain4", 2)
    full = {"budget_hit": False, "attempts": 10}
    assert verify_checker.check(op, full, pack(ids)) == (OK, "")
    short = {"budget_hit": True, "attempts": 1000001}
    assert verify_checker.check(op, short, pack(ids[:3131]))[0] == EXPECTED
    assert verify_checker.check(op, short, pack(outside_id(ids[:3131])))[0] == WRONG


def test_changed_iota_target(workdir):
    checker = Checker("decompose", seed=1, smoke=True, workdir=workdir)
    op = ("decompose", "m2", 2, 1, False)
    lat = workloads.lattice("m2")
    fn_path = os.path.join(workdir, "m2-2-1.fn")
    with open(fn_path, "w", encoding="utf-8") as fh:
        fh.write(workloads.format_function(lat, 2, checker.inputs["m2", 2][1], "f1"))
    out = workloads.term_file(workdir, op)
    assert cli_main(["decompose", "--lattice", "m:2", "--reduced", fn_path, "--out", out]) == 0
    assert checker.check(op, {"exit": 0}, b"") == (OK, "")
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    assert checker.check(op, {"exit": 3}, b"")[0] == WRONG

    # change one iota target so that latclone itself tabulates a different
    # function while the iota stays a reduced generator
    want = tuple(checker.inputs["m2", 2][1])
    for match in re.finditer(r"iota\[(\w+),(\w+),(\w+);(\w+)\]", text):
        a = lat.labels.index(match.group(1))
        for d in range(lat.size):
            if not lat.leq[a][d] or lat.labels[d] == match.group(4):
                continue
            corrupt = (text[:match.start(4)] + lat.labels[d] + text[match.end(4):])
            _, _, term = parse_term_file(corrupt)
            if to_table(term, m_lattice(2), 2).values != want:
                status, message = checker.check_term(corrupt, "m2", 2, 1, False)
                assert status == WRONG and "tabulate" in message
                return
    pytest.fail("no iota target changes the function")


def test_unreduced_iota_is_wrong(workdir):
    checker = Checker("decompose", seed=1, smoke=True, workdir=workdir)
    text = "term arity 2 lattice m2\n(iota[0,a1,a2;a1] x1 x2 x2)\n"
    status, message = checker.check_term(text, "m2", 2, 0, False)
    assert status == WRONG and "reduced" in message


def test_op_that_raised_is_wrong(verify_checker):
    meta = {"error": "Traceback ...\nBudgetExceeded: closure budget exhausted\n"}
    assert verify_checker.check(("verify", "chain3", 2), meta, b"") == \
        (WRONG, "raised BudgetExceeded: closure budget exhausted")
