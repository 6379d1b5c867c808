"""Smoke-sized runs of every workload complete, with and without tracing."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads
from conftest import BENCH, ROOT
from tracing import PER_LAYER

END_TO_END = {"setup_s", "wall_s", "op_p50_ms", "peak_rss_mb"}


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = run("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    per_round = len(workloads.schedule(workload, 2, smoke=True))
    assert result["attempted"] % per_round == 0
    covers = sum(op[0] == "cover" for op in workloads.schedule(workload, 2, smoke=True))
    assert result["failed"] == covers * result["attempted"] // per_round


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run(workload):
    proc = run("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == PER_LAYER
    assert "trace overhead" in proc.stdout
    assert "names not found" not in proc.stdout
    busy = {"enum": "functable.enumerate_s", "decompose": "cli.self_ms",
            "verify": "clone.attempts"}[workload]
    assert result["metrics"][busy]["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = os.path.join(ROOT, ".perfbench_out", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run("--workload", "enum", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
