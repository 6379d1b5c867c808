"""The latclone benchmark: enum, decompose and verify over the ladder.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in a worker process of
its own (worker.py) that drives latclone through its public functions; this
process checks every result against the oracles in oracles.py between
operations and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones.  Without --workload the three
workloads run one after another.  The exit code is 0 when every check
passes, 1 when one does not, 2 when the checkout has no latclone sources.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys

import workloads
from checks import EXPECTED, OK, WRONG, Checker
from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False):
    """Run one workload in a worker process; returns (result, notes)."""
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    tag = f"{workload}-seed{seed}" + ("-smoke" if smoke else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--trace-file", os.path.join(OUT, f"{tag}.trace.jsonl")]
    if smoke:
        cmd.append("--smoke")
    try:
        checker = Checker(workload, seed, smoke, workdir)
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            log = _converse(proc, checker)
            proc.stdin.close()
            code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or "end" not in log:
        raise RuntimeError(f"worker for {workload} exited with {code}")
    return _result(log, checker, trace, tag)


def _converse(proc, checker: Checker) -> dict:
    """Read the worker's frames until it ends, checking each op's result
    before letting the worker go on."""
    log = {"ops": [], "rounds": [], "traced_from": None, "problems": []}
    while True:
        try:
            frame = pickle.load(proc.stdout)
        except EOFError:
            return log
        kind = frame[0]
        if kind == "setup":
            log["setup"] = frame[1]
        elif kind == "op":
            _, index, seconds, meta = frame
            chunks = []
            while True:
                _, chunk = pickle.load(proc.stdout)
                if not chunk:
                    break
                chunks.append(chunk)
            op = checker.ops[index]
            status, message = checker.check(op, meta, b"".join(chunks))
            log["ops"].append((op, seconds, status, message))
            if status == WRONG:
                log["problems"].append(f"{op}: {message}")
            proc.stdin.write(b"k")
            proc.stdin.flush()
        elif kind == "round":
            log["rounds"].append(frame[1])
        elif kind == "traced":
            log["traced_from"] = len(log["rounds"])
        elif kind == "end":
            log["end"] = frame[1]


def _result(log: dict, checker: Checker, trace: int, tag: str):
    ops, rounds = log["ops"], log["rounds"]
    round_cut = len(rounds) if log["traced_from"] is None else log["traced_from"]
    failed = sum(1 for _, _, status, _ in ops if status != OK)
    notes = [f"src lines: {src_lines()}",
             f"rounds: {round_cut} untraced, {len(rounds) - round_cut} traced; "
             f"{len(ops)} ops, {failed} failed"]
    notes += sorted({msg for _, _, status, msg in ops if status == EXPECTED})
    notes += log["problems"]
    for (lat_name, n, simplify), sizes in sorted(checker.term_sizes.items()):
        tree = statistics.mean(t for t, _ in sizes)
        distinct = statistics.mean(d for _, d in sizes)
        notes.append(f"terms {lat_name}/{n}{' simplified' if simplify else ''}: "
                     f"{tree:.0f} tree nodes, {distinct:.0f} distinct subterms")
    if trace:
        untraced, traced = statistics.median(rounds[:round_cut]), rounds[round_cut]
        notes.append(f"trace overhead: traced round {traced:.3f} s, untraced {untraced:.3f} s "
                     f"({100 * (traced - untraced) / untraced:+.1f} %)")
        if log["end"]["missing"]:
            notes.append("trace: names not found: " + ", ".join(log["end"]["missing"]))
        metrics = {name: {"value": log["end"]["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(log["setup"]), "unit": "s"},
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(s for _, s, _, _ in ops),
                          "unit": "ms"},
            "peak_rss_mb": {"value": log["end"]["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    result = {"correct": not log["problems"], "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    detail = dict(result, notes=notes, setup_s=log["setup"], round_s=rounds,
                  ops=[[list(op), s, status] for op, s, status, _ in ops])
    with open(os.path.join(OUT, f"{tag}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload; all three when left out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a reduced ladder, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "latclone", "__init__.py")):
        print("run.py: no src/latclone here; run it from the root of a latclone checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    correct = True
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        result, notes = run_workload(workload, args.seed, args.seconds, args.trace, args.smoke)
        for note in notes:
            print(f"# {workload}: {note}")
        print(json.dumps(result), flush=True)
        correct &= result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
