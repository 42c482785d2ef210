#!/usr/bin/env python3
"""Fixed-work benchmark for hyperq.

    python3 bench/run.py --workload sector --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; hyperq is imported from ./src.
One run is one fresh, single-threaded process driving a closed loop:
the next operation starts when the previous one returns.  The batch is
a fixed list of operations made from the seed: a whole number of
rounds, set from --seconds and the workload's rounds per second on the
reference machine, so every run with the same arguments does the same
work and no loop is cut by a clock.  Answers are checked after the
timed batch.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 the batch runs twice plain and once with spans
around every public hyperq function, and the metrics are per layer.
The exit code is 0 when every check passed, 1 when one failed, and 2
when the checkout has no hyperq sources.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9
CLI_REPEATS = 7
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60


def fresh_hyperq():
    """Drop every hyperq module and import the package again."""
    for name in [n for n in sys.modules if n == "hyperq" or n.startswith("hyperq.")]:
        del sys.modules[name]
    return importlib.import_module("hyperq")


def run_batch(workload, hq, ops, tracer=None, pauses=(), pause=None):
    """Run the ops in order; returns (wall seconds, per-op seconds, results, failed).

    After op i for each i in `pauses`, `pause()` runs with the clock
    stopped, so it adds nothing to the batch's wall time.
    """
    times, results, failed, paused = [], [], 0, 0.0
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            res = workload.run(hq, op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            print(f"op {i} {op!r:.80} raised {exc!r}", file=sys.stderr)
            res = exc
            failed += 1
        t1 = perf_counter()
        times.append(t1 - t0)
        results.append(res)
        if i in pauses:
            pause()
            paused += perf_counter() - t1
    return perf_counter() - start - paused, times, results, failed


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class ColdCli:
    """Fresh `python -m hyperq.cli` spawns, timed one at a time."""

    def __init__(self, argv):
        self.argv = argv
        self.times = []
        self.procs = []

    def spawn(self):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "hyperq.cli", *self.argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        self.times.append(perf_counter() - t0)
        self.procs.append(proc)

    def check(self, check_out):
        errors = []
        for proc in self.procs:
            if proc.returncode != 0:
                errors.append(f"cli {self.argv} exited {proc.returncode}: {proc.stderr.strip()}")
            else:
                errors += check_out(proc.stdout)
        return sorted(set(errors))


def import_cost():
    """Median seconds to import hyperq.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import hyperq.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, rounds, workdir):
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        hq = fresh_hyperq()
        ops = workload.make_inputs(hq, seed, rounds, workdir)
        setup.append(perf_counter() - t0)
    # the cold CLI spawns are spread through the batch, so that they sample
    # the machine over the same stretch of time as the ops do
    argv, check_out = workload.cli(workdir)
    cold = ColdCli(argv)
    pauses = {len(ops) * (k + 1) // (CLI_REPEATS + 1) for k in range(CLI_REPEATS)}
    wall, times, results, failed = run_batch(workload, hq, ops, pauses=pauses, pause=cold.spawn)
    while len(cold.times) < CLI_REPEATS:  # a short batch has fewer distinct pause points
        cold.spawn()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = workload.check(hq, seed, ops, results) + cold.check(check_out)
    metrics = {
        "ops_per_s": metric(len(ops) / wall, "1/s"),
        "op_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "cli_cold_ms": metric(statistics.median(cold.times) * 1e3, "ms"),
    }
    return len(ops), failed, errors, metrics


def per_layer(workload, seed, rounds, workdir, trace_path):
    from spans import CLI_OP, Tracer

    # the first plain batch warms the process; the second is the untraced reference
    errors = []
    for _ in range(2):
        hq = fresh_hyperq()
        ops = workload.make_inputs(hq, seed, rounds, workdir)
        plain_wall, _, plain_results, plain_failed = run_batch(workload, hq, ops)
        errors += workload.check(hq, seed, ops, plain_results)

    # same seed again on fresh modules, now with every public function wrapped
    hq = fresh_hyperq()
    cli = importlib.import_module("hyperq.cli")
    tracer = Tracer()
    tracer.install()
    try:
        ops = workload.make_inputs(hq, seed, rounds, workdir)
        wall, _, results, failed = run_batch(workload, hq, ops, tracer)
        argv, check_out = workload.cli(workdir)
        tracer.op = CLI_OP
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
    finally:
        tracer.uninstall()
    errors += workload.check(hq, seed, ops, results)
    errors += check_out(out.getvalue()) if status == 0 else [f"cli.main{argv} returned {status}"]
    tracer.dump(trace_path)

    calls, self_s = tracer.totals()
    _, cli_self = tracer.totals(op=CLI_OP)
    count = tracer.counters

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    metrics = {
        "combinat.green_K.calls": metric(calls["combinat.green_K"], "count"),
        "combinat.green_G.calls": metric(calls["combinat.green_G"], "count"),
        "combinat.self_s": metric(layer_self("combinat."), "s"),
        "linalg.inertia.self_s": metric(self_s["linalg.inertia"], "s"),
        "linalg.rank.self_s": metric(self_s["linalg.rank"], "s"),
        "linalg.ldl_components.self_s": metric(self_s["linalg.ldl_components"], "s"),
        "linalg.entries": metric(count["linalg.entries"], "count"),
        "linalg.max_coeff_bits": metric(count["linalg.max_coeff_bits"], "bits"),
        "forms.compose_linear.self_s": metric(self_s["forms.compose_linear"], "s"),
        "forms.decompose.self_s": metric(self_s["forms.decompose"], "s"),
        "forms.norm_difference.self_s": metric(self_s["forms.norm_difference"], "s"),
        "restrict.restrict_form.self_s": metric(self_s["restrict.restrict_form"], "s"),
        "restrict.restrict_form.out_entries": metric(count["restrict.restrict_form.out_entries"], "count"),
        "restrict.embeddings": metric(calls["restrict.embedding"], "count"),
        "quadrics.moves.calls": metric(calls["quadrics.grow"] + calls["quadrics.corner_move"], "count"),
        "quadrics.moves.self_s": metric(self_s["quadrics.grow"] + self_s["quadrics.corner_move"], "s"),
        "quadrics.is_admissible.calls": metric(calls["quadrics.is_admissible"], "count"),
        "quadrics.is_admissible.self_s": metric(self_s["quadrics.is_admissible"], "s"),
        "quadrics.verify_map.self_s": metric(self_s["quadrics.verify_map"], "s"),
        "polys.poly_mul.calls": metric(calls["polys.poly_mul"], "count"),
        "polys.poly_mul.self_s": metric(self_s["polys.poly_mul"], "s"),
        "formats.dump_map.self_s": metric(self_s["formats.dump_map"], "s"),
        "formats.parse_map.self_s": metric(self_s["formats.parse_map"], "s"),
        "formats.load_form.self_s": metric(self_s["formats.load_form"], "s"),
        "cli.import_ms": metric(import_cost() * 1e3, "ms"),
        "cli.main.self_ms": metric(sum(v for k, v in cli_self.items() if k.startswith("cli.")) * 1e3, "ms"),
        "trace.overhead_s": metric(wall - plain_wall, "s"),
    }
    return len(ops), max(failed, plain_failed), errors, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hyperq", "__init__.py")):
        print(f"no hyperq sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    rounds = workload.rounds(args.seconds)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=OUT)
    try:
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{workload.name}.jsonl.gz")
            attempted, failed, errors, metrics = per_layer(workload, args.seed, rounds, workdir, trace_path)
        else:
            attempted, failed, errors, metrics = end_to_end(workload, args.seed, rounds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
