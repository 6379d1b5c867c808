"""One workload in its own process: set-up, timed rounds, optional tracing.

run.py starts this process; it is not meant to be run by hand.  It writes
pickled frames to its standard output and, after every operation, waits for
one acknowledgement byte on its standard input, so that the checks run.py
makes never overlap a timed operation.  It imports only the standard
library, latclone and the benchmark's standard-library modules, so its
resident set is the program's own and not that of the checks.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import pickle
import resource
import subprocess
import sys
import traceback
from time import monotonic, process_time

import workloads
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROBES = 7  # fresh processes timed for setup_s; their speed varies
CHUNK = 8192  # value vectors per frame


class Channel:
    """Frames to run.py over the original standard output; latclone's own
    prints are sent to standard error instead."""

    def __init__(self):
        self.out = os.fdopen(os.dup(1), "wb")
        os.dup2(2, 1)
        self.acks = sys.stdin.buffer

    def send(self, *frame) -> None:
        pickle.dump(frame, self.out, protocol=pickle.HIGHEST_PROTOCOL)
        self.out.flush()

    def send_vectors(self, fns) -> None:
        """Value vectors, CHUNK per frame, then an empty frame."""
        for lo in range(0, len(fns), CHUNK):
            self.send("vectors", b"".join(bytes(getattr(f, "values", f))
                                          for f in fns[lo:lo + CHUNK]))
        self.send("vectors", b"")

    def wait_ack(self) -> None:
        if self.acks.read(1) != b"k":
            raise SystemExit("worker: run.py went away")


def import_latclone():
    importlib.import_module("latclone.cli")
    return sys.modules["latclone"]


def build_lattice(lc, name: str):
    if name == "n5":
        return lc.lattice.n5()
    size = int(name[-1])
    return lc.lattice.chain(size) if name.startswith("chain") else lc.lattice.m_lattice(size)


class Run:
    def __init__(self, args, channel: Channel | None = None):
        self.args = args
        self.channel = channel
        self.ops = workloads.schedule(args.workload, args.seed, args.smoke)

    def prepare(self, lc) -> None:
        """Build the lattices and draw the seeded inputs."""
        self.lc = lc
        if self.args.workload == "decompose":
            self.files = {}
            for (lat_name, n), vectors in workloads.draw_inputs(self.args.seed,
                                                                self.args.smoke).items():
                lat = workloads.lattice(lat_name)
                for j, values in enumerate(vectors):
                    path = os.path.join(self.args.workdir, f"{lat_name}-{n}-{j}.fn")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(workloads.format_function(lat, n, values, f"f{j}"))
                    self.files[lat_name, n, j] = path
            return
        self.lattices = {name: build_lattice(lc, name)
                         for name in dict.fromkeys(op[1] for op in self.ops)}
        self.targets = {}
        for op in self.ops:
            if op[0] == "cover" and op[1:] not in self.targets:
                ids = lc.functable.enumerate_class(self.lattices[op[1]], op[2], "idempotent")
                self.targets[op[1:]] = {f.key() for f in ids}

    def call(self, op):
        """Run one op; returns (meta, value vectors to send)."""
        lc, kind = self.lc, op[0]
        if kind == "decompose":
            _, lat_name, n, j, simplify = op
            argv = ["decompose", "--lattice", workloads.CLI_SPEC[lat_name], "--reduced",
                    self.files[lat_name, n, j], "--out", workloads.term_file(self.args.workdir, op)]
            if simplify:
                argv.append("--simplify")
            return {"exit": lc.cli.main(argv)}, []
        lat, n = self.lattices[op[1]], op[2]
        if kind == "enum":
            fns = lc.functable.enumerate_class(lat, n, op[3])
            return {"count": len(fns)}, fns
        if kind == "verify":
            report = lc.clone.verify_generation(lat, n)
            return {"id_count": report.id_count, "closure_pass": report.closure_pass,
                    "decomposition_pass": report.decomposition_pass}, \
                report.closure_report.reached
        base = [lc.functable.meet_fn(lat), lc.functable.join_fn(lat)]
        if kind == "fixpoint":
            report = lc.clone.closure(base, n)
        else:
            base += [spec.table(lat) for spec in lc.generators.reduced_generator_set(lat)]
            report = lc.clone.closure(base, n, until_keys=self.targets[op[1:]])
        return {"budget_hit": report.budget_hit, "attempts": report.attempts}, report.reached

    def round(self) -> None:
        """Every op of the schedule once, then the sum of their times."""
        wall = 0.0
        # The worker's CPU clock: it is one thread that waits on nothing but
        # the page cache, so this is its wall time less the time the machine
        # gave to other processes.
        for index, op in enumerate(self.ops):
            gc.collect()  # start every op from the same heap state
            start = process_time()
            try:
                meta, vectors = self.call(op)
            except Exception:
                seconds = process_time() - start
                meta, vectors = {"error": traceback.format_exc()}, []
            else:
                seconds = process_time() - start
            wall += seconds
            self.channel.send("op", index, seconds, meta)
            self.channel.send_vectors(vectors)
            del vectors
            self.channel.wait_ack()
        self.channel.send("round", wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--probe", action="store_true",
                        help="only time one set-up and print its seconds")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.probe:
        start = process_time()
        Run(args).prepare(import_latclone())
        print(process_time() - start)
        return 0

    # One process's speed differs from the next by up to a third, and it
    # shows most in the import, so set-up is timed in fresh processes.
    setup = [float(subprocess.run([sys.executable, __file__, *argv, "--probe"], cwd=ROOT,
                                  capture_output=True, text=True, check=True).stdout)
             for _ in range(SETUP_PROBES)]
    channel = Channel()
    run = Run(args, channel)
    run.prepare(import_latclone())
    channel.send("setup", setup)

    start = monotonic()
    rounds = 0
    while True:
        run.round()
        rounds += 1
        elapsed = monotonic() - start
        # whole rounds only; stop before a round that would overrun --seconds
        if args.trace or elapsed * (rounds + 1) / rounds > args.seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    end = {"peak_rss_kb": peak_rss_kb}
    if args.trace:
        channel.send("traced")
        tracer = Tracer()
        tracer.install()
        run.prepare(run.lc)
        run.round()
        end["per_layer"] = tracer.per_layer()
        end["missing"] = tracer.missing
        if args.trace_file:
            tracer.write(args.trace_file)
    channel.send("end", end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
