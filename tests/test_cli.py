import io
import itertools
import os
import subprocess
import sys

import pytest

from latclone import (clone, enumerate_class, format_function, format_lattice, functable,
                      generators, n5, parse_function, terms, to_table)
from latclone.cli import load_lattice, main
from latclone.errors import LatcloneError
from latclone.functable import from_callable, projection
from latclone.lattice import chain, from_covers
from latclone.terms import parse_term_file


@pytest.fixture()
def pentagon_file(tmp_path):
    path = tmp_path / "n5.lat"
    path.write_text(format_lattice(n5()))
    return str(path)


@pytest.fixture()
def median_file(tmp_path):
    lat = chain(3)

    def med(xs):
        x, y, z = xs
        return sorted((x, y, z))[1]

    path = tmp_path / "median.fn"
    path.write_text(format_function(from_callable(lat, 3, med, name="median")))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_lattice_specs(pentagon_file):
    assert load_lattice("chain:4").size == 4
    assert load_lattice("m:3").size == 5
    assert load_lattice("boolean:3").size == 8
    assert load_lattice("n5").size == 5
    assert load_lattice(f"file:{pentagon_file}").size == 5
    with pytest.raises(LatcloneError):
        load_lattice("torus:3")
    with pytest.raises(LatcloneError):
        load_lattice("chain:x")


def test_named_lattices_are_built_once_per_process():
    assert load_lattice("chain:4") is load_lattice("chain:04")
    assert load_lattice("m:2") is load_lattice("m:+2")
    assert load_lattice("n5") is load_lattice("n5")
    assert load_lattice("chain:2") is not load_lattice("m:2")


def test_lattice_file_is_read_again_on_every_call(capsys, tmp_path):
    path = tmp_path / "l.lat"
    for lat in (chain(2), chain(3)):
        path.write_text(format_lattice(lat))
        code, out, _ = run(capsys, ["lattice", "check", str(path)])
        assert (code, out.split()[0]) == (0, f"size={lat.size}")
    # the same labels and name ordered as a chain, then as M2: the first
    # projection decomposes on both, to different terms
    fn_path = tmp_path / "p.fn"
    terms = []
    for covers in ([("0", "a"), ("a", "b"), ("b", "1")],
                   [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]):
        lat = from_covers(["0", "a", "b", "1"], covers, name="L")
        path.write_text(format_lattice(lat))
        fn_path.write_text(format_function(projection(lat, 2, 1)))
        code, out, _ = run(capsys, ["decompose", "--lattice", f"file:{path}", str(fn_path)])
        assert code == 0
        terms.append(parse_term_file(out)[2])
        assert load_lattice(f"file:{path}").leq_table == lat.leq_table
    assert terms[0] is not terms[1]


@pytest.mark.parametrize("spec, error", [
    ("torus:3", "LatcloneError: unknown lattice spec 'torus:3'"),
    ("n5:1", "LatcloneError: unknown lattice spec 'n5:1'"),
    ("chain:x", "LatcloneError: bad lattice spec 'chain:x': integer parameter expected"),
    ("m:", "LatcloneError: bad lattice spec 'm:': integer parameter expected"),
    ("chain:1", "InvalidSize: chain needs n >= 2, got 1"),
    ("boolean:0", "InvalidSize: boolean needs k >= 1, got 0"),
])
def test_bad_lattice_specs_exit_2(capsys, median_file, spec, error):
    for _ in range(2):  # a spec that failed once fails the same way again
        code, out, err = run(capsys, ["decompose", "--lattice", spec, median_file])
        assert (code, out, err) == (2, "", error + "\n")


def test_lattice_check(capsys, pentagon_file):
    code, out, err = run(capsys, ["lattice", "check", pentagon_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size=5 bottom=0 top=1"
    assert lines[1].startswith("order: 0 ")


def test_lattice_check_rejects_non_lattice(capsys, tmp_path):
    path = tmp_path / "bad.lat"
    path.write_text("lattice twins\nelements x y\nend\n")
    code, out, err = run(capsys, ["lattice", "check", str(path)])
    assert code == 2
    assert "join" in err


def test_lattice_check_missing_file(capsys):
    code, out, err = run(capsys, ["lattice", "check", "/nonexistent.lat"])
    assert code == 2


def test_enum_count(capsys):
    code, out, _ = run(
        capsys,
        ["enum", "--lattice", "chain:3", "--arity", "2", "--class", "idempotent"],
    )
    assert code == 0
    assert out.splitlines()[0] == "count=64"


def test_enum_counts_n5_binary_idempotent_class(capsys):
    code, out, _ = run(
        capsys, ["enum", "--lattice", "n5", "--arity", "2", "--class", "idempotent"])
    assert (code, out) == (0, "count=280592\n")


def test_enum_counts_without_building_the_class(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a count must not build the class")

    monkeypatch.setattr(functable, "enumerate_class", refuse)
    args = ["enum", "--lattice", "m:2", "--arity", "2", "--class", "aggregation"]
    assert run(capsys, args)[:2] == (0, "count=27556\n")
    code, out, err = run(capsys, [*args, "--count-budget", "27555"])
    assert (code, out) == (3, "") and "count budget 27555" in err


def test_enum_emit_tables(capsys):
    code, out, _ = run(
        capsys,
        ["enum", "--lattice", "chain:2", "--arity", "2", "--class", "idempotent",
         "--emit"],
    )
    assert code == 0
    assert out.splitlines()[0] == "count=4"
    assert out.count("function f") == 4
    assert "function f0 arity 2 lattice chain2" in out


def test_enum_budget_exit(capsys):
    code, out, err = run(
        capsys,
        ["enum", "--lattice", "chain:2", "--arity", "2", "--class", "monotone",
         "--count-budget", "2"],
    )
    assert code == 3
    assert "BudgetExceeded" in err


def test_enum_many_cells_exits_with_budget_line(capsys):
    # 2048 cells: deeper than the recursion limit, so the walk must not recurse
    code, out, err = run(
        capsys,
        ["enum", "--lattice", "chain:2", "--arity", "11", "--class", "monotone",
         "--cell-budget", "5000", "--count-budget", "10"],
    )
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("BudgetExceeded:")
    assert "Traceback" not in err


def test_decompose_round_trip(capsys, median_file, tmp_path):
    out_path = tmp_path / "median.term"
    code, out, err = run(
        capsys,
        ["decompose", "--lattice", "chain:3", median_file,
         "--reduced", "--simplify", "--out", str(out_path)],
    )
    assert code == 0
    arity, lattice_name, term = parse_term_file(out_path.read_text())
    assert (arity, lattice_name) == (3, "chain3")
    lat = chain(3)
    vals = to_table(term, lat, 3).values
    assert vals == tuple(
        sorted(xs)[1] for xs in itertools.product(range(3), repeat=3)
    )


def test_decompose_rejects_non_idempotent(capsys, tmp_path):
    lat = chain(3)
    path = tmp_path / "const.fn"
    path.write_text(format_function(from_callable(lat, 2, lambda xs: 2, name="c")))
    code, out, err = run(capsys, ["decompose", "--lattice", "chain:3", str(path)])
    assert code == 2
    assert err.strip() == "NotIdempotent: f(0,0) = 2 != 0"


def test_decompose_rejects_idempotent_non_monotone(capsys, tmp_path):
    lat = chain(3)
    # idempotent, but f(0,1) = 2 is above f(1,1) = 1
    fn = from_callable(lat, 2, lambda xs: 2 if xs == (0, 1) else max(xs), name="g")
    path = tmp_path / "bump.fn"
    path.write_text(format_function(fn))
    code, out, err = run(capsys, ["decompose", "--lattice", "chain:3", str(path)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "NotIdempotent: input must be an idempotent aggregation function"
    ]


def test_cli_import_leaves_numpy_unloaded():
    # importing numpy costs more start-up time than the command line allows
    probe = "import sys, latclone.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


def test_verify(capsys):
    code, out, _ = run(capsys, ["verify", "--lattice", "chain:3", "--arity", "2"])
    assert code == 0
    assert out.splitlines()[0] == "lattice=chain3 arity=2 id_count=64 A=pass B=pass"


def test_verify_chain4(capsys):
    # part A is the majorant certificate: the closure search of earlier
    # versions ran out of budget here
    code, out, _ = run(capsys, ["verify", "--lattice", "chain:4", "--arity", "2"])
    assert code == 0
    assert out.splitlines()[:2] == [
        "lattice=chain4 arity=2 id_count=4096 A=pass B=pass",
        "reached=4096 rounds=1 budget_hit=false",
    ]


@pytest.mark.parametrize("argv,code,out", [
    (["verify", "--lattice", "chain:3", "--arity", "2"], 0,
     "lattice=chain3 arity=2 id_count=64 A=pass B=pass\nreached=64 rounds=1 budget_hit=false\n"),
    (["verify", "--lattice", "m:2", "--arity", "2"], 0,
     "lattice=m2 arity=2 id_count=1296 A=pass B=pass\nreached=1296 rounds=1 budget_hit=false\n"),
    (["verify", "--lattice", "chain:2", "--arity", "4"], 0,
     "lattice=chain2 arity=4 id_count=166 A=pass B=pass\nreached=166 rounds=0 budget_hit=false\n"),
    (["closure", "--lattice", "chain:3", "--arity", "2", "--reduced"], 3,
     "reached=64 rounds=41 budget_hit=true\n"),
])
def test_verify_and_closure_output_is_pinned(capsys, argv, code, out):
    assert run(capsys, argv) == (code, out, "")


def test_verify_prints_each_counterexample_of_part_a(capsys, monkeypatch):
    # without iota[0,1,2;0], two chis of chain3 at arity 2 are left
    # uncertified, and the 55 members that need one are counterexamples
    monkeypatch.setattr(clone, "reduced_generator_set", lambda lat: [
        s for s in generators.reduced_generator_set(lat) if s.format() != "iota[0,1,2;0]"])
    code, out, err = run(capsys, ["verify", "--lattice", "chain:3", "--arity", "2"])
    assert (code, err) == (2, "")
    head, reached, body = out.split("\n", 2)
    assert head == "lattice=chain3 arity=2 id_count=64 A=fail B=pass"
    assert reached == "reached=9 rounds=1 budget_hit=false"
    files = [text + "end\n" for text in body.split("end\n")[:-1]]
    assert "".join(files) == body
    lat = load_lattice("chain:3")
    fns = [parse_function(text, lat) for text in files]
    assert [format_function(f) for f in fns] == files
    ids = {f.values for f in enumerate_class(lat, 2, "idempotent")}
    assert len({f.values for f in fns} & ids) == len(fns) == 55


class _Writes(io.StringIO):
    """A stdout that records each single write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_verify_writes_one_function_at_a_time(monkeypatch):
    # the same failing run: its printout goes out a function file at a time
    monkeypatch.setattr(clone, "reduced_generator_set", lambda lat: [
        s for s in generators.reduced_generator_set(lat) if s.format() != "iota[0,1,2;0]"])
    monkeypatch.setattr(sys, "stdout", _Writes())
    assert main(["verify", "--lattice", "chain:3", "--arity", "2"]) == 2
    report = clone.verify_generation(load_lattice("chain:3"), 2)
    longest = max(len(format_function(f)) for f in report.counterexamples)
    assert len(sys.stdout.writes) == 2 + 55
    assert max(map(len, sys.stdout.writes)) <= longest
    assert "".join(sys.stdout.writes) == clone.format_verification_report(report)


def test_decompose_self_check_failure_exits_4(capsys, monkeypatch, median_file):
    monkeypatch.setattr(terms, "to_table", lambda t, lat, n: projection(lat, n, 1))
    code, out, err = run(capsys, ["decompose", "--lattice", "chain:3", median_file, "--reduced"])
    assert (code, out, err) == (4, "", "internal error: decomposition self-check failed\n")


def test_verify_budget_help_names_generator_applications(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "generator applications" in capsys.readouterr().out


def test_verify_budget_exit(capsys):
    code, out, err = run(
        capsys,
        ["verify", "--lattice", "chain:3", "--arity", "2", "--budget", "5"],
    )
    assert code == 3
    assert "BudgetExceeded" in err


def _child_peak(argv):
    """(exit code, stdout lines, stderr, peak RSS in KiB) of main(argv) run
    in a child process, which prints its own peak after the command.  The
    peak is VmHWM, which exec starts afresh: ru_maxrss keeps the RSS of the
    process that spawned the child."""
    probe = ("import sys\nfrom latclone.cli import main\n"
             f"code = main({argv!r})\n"
             "with open('/proc/self/status') as fh:\n"
             "    print(*[line.split()[1] for line in fh if line.startswith('VmHWM:')])\n"
             "sys.exit(code)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=300)
    *out, peak = done.stdout.split("\n")[:-1]
    return done.returncode, out, done.stderr, int(peak)


def test_verify_past_the_count_budget_exits_before_keeping_the_class():
    # chain8 at arity 2 has over 10**7 idempotent members, 64 bytes each:
    # the class is counted, not kept, before the budget trips.  The child's
    # peak RSS would pass 640 MB if it kept the class; the command stays
    # near 40 MB, of which the import is about 17 MB
    code, printed, err, peak_kib = _child_peak(["verify", "--lattice", "chain:8", "--arity", "2"])
    assert code == 3
    assert err == "BudgetExceeded: class size exceeds the count budget 10000000\n"
    assert printed == []  # the command itself printed nothing
    assert peak_kib * 1024 < 100 * 2**20


def test_enum_emit_past_the_count_budget_exits_before_keeping_the_class(tmp_path):
    # as verify: --emit counts first, so the 10**7 members are never kept
    out = tmp_path / "members.txt"
    code, printed, err, peak_kib = _child_peak(
        ["enum", "--lattice", "chain:8", "--arity", "2", "--class", "idempotent", "--emit",
         "--out", str(out)])
    assert (code, printed) == (3, [])
    assert err == "BudgetExceeded: class size exceeds the count budget 10000000\n"
    assert not out.exists()
    assert peak_kib * 1024 < 100 * 2**20


def test_closure_fixpoint(capsys):
    code, out, _ = run(capsys, ["closure", "--lattice", "chain:2", "--arity", "2"])
    assert code == 0
    assert out.splitlines()[0].startswith("reached=4 ")
    assert "budget_hit=false" in out


def test_closure_budget_exit(capsys):
    code, out, _ = run(
        capsys,
        ["closure", "--lattice", "m:2", "--arity", "2", "--reduced",
         "--budget", "100"],
    )
    assert code == 3
    assert "budget_hit=true" in out


@pytest.mark.parametrize("exc,line", [(MemoryError(), "MemoryError: out of memory\n"),
                                      (MemoryError("no room"), "MemoryError: no room\n")])
def test_closure_out_of_memory_is_one_line_and_the_budget_exit(capsys, monkeypatch, exc, line):
    # a large arity runs out of memory building the projections; no real
    # allocation here, the closure just raises
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(clone, "closure", exhausted)
    code, out, err = run(capsys, ["closure", "--lattice", "chain:2", "--arity", "28"])
    assert (code, out, err) == (3, "", line)


def test_closure_bad_budget_exit(capsys):
    code, out, err = run(
        capsys,
        ["closure", "--lattice", "chain:2", "--arity", "2", "--budget", "0"],
    )
    assert code == 2
    assert out == ""
    assert err == "InvalidArgument: budget must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--lattice", "chain:2", "--arity", "0"],
        ["enum", "--lattice", "chain:2", "--arity", "0", "--class", "idempotent"],
        ["closure", "--lattice", "chain:2", "--arity", "0"],
    ],
    ids=["verify", "enum", "closure"],
)
def test_arity_zero_exit(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "ArityMismatch: arity must be >= 1, got 0\n"


def test_closure_negative_arity_exit(capsys):
    code, out, err = run(capsys, ["closure", "--lattice", "chain:2", "--arity", "-1"])
    assert code == 2
    assert out == ""
    assert err == "ArityMismatch: arity must be >= 1, got -1\n"


def test_enum_negative_count_budget_exit(capsys):
    code, out, err = run(
        capsys,
        ["enum", "--lattice", "chain:2", "--arity", "2", "--class", "monotone",
         "--count-budget", "-1"],
    )
    assert code == 2
    assert out == ""
    assert err == "InvalidArgument: count budget must be >= 0, got -1\n"


def test_enum_negative_cell_budget_exit(capsys):
    args = ["enum", "--lattice", "chain:2", "--arity", "2", "--class", "monotone",
            "--cell-budget"]
    assert run(capsys, [*args, "-1"]) == (
        2, "", "InvalidArgument: cell budget must be >= 0, got -1\n")
    code, out, err = run(capsys, [*args, "0"])
    assert (code, out) == (3, "")
    assert err.startswith("BudgetExceeded: 2^2 = 4 cells exceeds the cell budget 0")


def test_closure_extra_fn_file(capsys, median_file):
    code, out, _ = run(
        capsys,
        ["closure", "--lattice", "chain:3", "--arity", "3",
         "--fn-file", median_file, "--budget", "2000"],
    )
    assert code in (0, 3)
    assert out.startswith("reached=")


def test_successive_calls_match_separate_processes(capsys, tmp_path):
    # the parser is built once per process, so no --fn-file list of one call
    # may reach the next: each closure below has a different size
    ids = enumerate_class(chain(3), 2, "idempotent")
    paths = []
    for i in (1, 2, 20):
        path = tmp_path / f"g{i}.fn"
        path.write_text(format_function(ids[i].renamed(f"g{i}")))
        paths.append(str(path))
    closure = ["closure", "--lattice", "chain:3", "--arity", "2"]
    calls = [[*closure, "--fn-file", paths[0], "--fn-file", paths[1]],
             [*closure, "--fn-file", paths[2]],
             closure]
    together = [run(capsys, argv)[:2] for argv in calls]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    apart = [subprocess.run([sys.executable, "-m", "latclone.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=60)
             for argv in calls]
    assert together == [(done.returncode, done.stdout) for done in apart]
    assert [out.split()[0] for _, out in together] == [
        "reached=36", "reached=16", "reached=4"]


def test_warm_decompose_matches_separate_processes(capsys, tmp_path):
    # one process reuses each named lattice with its anchor operands and
    # their tables from call to call; the term files must not show it
    calls = []
    for spec, n in (("chain:3", 2), ("m:2", 2), ("n5", 2), ("chain:2", 4)):
        lat = load_lattice(spec)
        consts = [(i + 1) % lat.size for i in range(n)]

        def poly(xs, lat=lat, consts=consts):  # meet(x) joined with each x_i meet c_i
            return lat.join_all([lat.meet_all(xs)] + [lat.meet(x, c) for x, c in zip(xs, consts)])

        path = tmp_path / f"{lat.name}-{n}.fn"
        path.write_text(format_function(from_callable(lat, n, poly)))
        calls += [["decompose", "--lattice", spec, "--reduced", str(path), *extra]
                  for extra in ([], ["--simplify"])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    apart = []
    for i, argv in enumerate(calls):
        out_path = tmp_path / f"apart-{i}.term"
        done = subprocess.run([sys.executable, "-m", "latclone.cli", *argv,
                               "--out", str(out_path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        apart.append(out_path.read_bytes())
    for repeat in range(2):
        for i, argv in enumerate(calls):
            out_path = tmp_path / f"warm-{repeat}-{i}.term"
            assert run(capsys, [*argv, "--out", str(out_path)]) == (0, "", "")
            assert out_path.read_bytes() == apart[i]


def test_count_single_and_range(capsys):
    code, out, _ = run(capsys, ["count", "--family", "chain", "--n", "3"])
    assert code == 0
    assert out == "n=3 count=16 enum=16\n"
    code, out, _ = run(capsys, ["count", "--family", "m", "--n", "4..6"])
    assert code == 0
    assert out.splitlines() == [
        "n=4 count=27 enum=27",
        "n=5 count=40 enum=40",
        "n=6 count=55 enum=55",
    ]


def test_count_bad_range(capsys):
    code, out, err = run(capsys, ["count", "--family", "chain", "--n", "abc"])
    assert code == 2
    assert "bad n range" in err
    code, out, err = run(capsys, ["count", "--family", "chain", "--n", "3..1"])
    assert code == 2
    assert out == ""
    assert err == "LatcloneError: empty n range '3..1'\n"


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys,
            ["enum", "--lattice", "m:2", "--arity", "2", "--class", "idempotent",
             "--emit"],
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
