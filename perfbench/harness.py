"""Benchmark harness: set-up, the timed closed loop, checks, metrics, output.

The timed window of a run is the time items are in flight: the clock runs
while the library works on an item and stops while the benchmark generates
the next input or checks an output, so neither counts against the program.
A run ends once the window reaches ``--seconds`` and enough items are done:
the workload's ``min_items`` in an untraced run, for the p90, and its digest
items. Untraced timings are scaled to a reference machine speed (speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from extremenu import kernels, model

from . import speed
from .checks import Mismatch, fact_hash
from .tracer import TRACED_NAMES, Tracer
from .workloads import ROOT, WORKLOADS, child_env

DEFAULT_SEED = 0
SETUP_REPS = 3
SETUP_BLOCK = 3  # calibrations in the block before and after each set-up repetition
RSS_ITEMS = 60
STARTUP_PROBES = 5
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
MEASUREMENT_LIMIT = (
    "This is a shared sandbox. Timings are wall-clock for our own processes only. "
    "Machine settings (frequency scaling, caches, cgroups) are not pinned."
)

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "correct_share": "share",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit
    **{f"{name}.{stat}": unit for name in TRACED_NAMES
       for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    "kernels.rref_sparse.cells": "count",
    "model.absorption.lp_calls": "count",
    "model.absorption.lp_s": "s",
    "model.extended_menu.cache_hits": "count",
    "extremality.verify_per_certificate": "ratio",
    "extremality.nonextreme_share": "share",
    "perturb.attempts_per_success": "ratio",
    "applications.force_exhaustive.exhaustive_share": "share",
    "cli.interpreter_start_ms": "ms",
    "cli.import_ms": "ms",
    "trace.unattributed_s": "s",
    "trace.overhead_share": "share",
}


class Pass:
    """Outcome of one closed-loop pass over a workload's inputs."""

    def __init__(self):
        self.inputs = []
        self.latencies = []
        self.blocks = []  # calibration slowdowns before each item, and after the last
        self.hashes = []  # per item: fact hash, or None when the item failed
        self.failures = {}  # item index -> reason
        self.cache_hits = 0
        self.rss_mb = None

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def measure(workload, inputs, seconds=None, min_items=0, tracer=None,
            calibrate=False) -> Pass:
    """Run items one at a time until the window holds ``seconds`` of work and
    ``min_items`` are done (or, with ``seconds=None``, until inputs run out).
    With ``calibrate``, the workload's calibration block is timed before every
    item and after the last one."""
    p = Pass()
    cache = model.extended_menu
    for inp in inputs:
        if seconds is not None and p.busy_s >= seconds and len(p.latencies) >= min_items:
            break
        if calibrate:
            p.blocks.append(workload.calibrate())
        hits = cache.cache_info().hits
        error = None
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            out = workload.run(inp, tracer)
        except Exception as e:  # any fault in the library is a failed item
            error = f"{type(e).__name__}: {e}"
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        p.cache_hits += cache.cache_info().hits - hits
        p.inputs.append(inp)
        p.latencies.append(elapsed)
        if len(p.latencies) == RSS_ITEMS:
            p.rss_mb = peak_rss_mb(workload)
        if error is None:
            try:
                p.hashes.append(fact_hash(workload.check(inp, out)))
            except Mismatch as e:
                error = f"Mismatch: {e}"
        if error is not None:
            p.hashes.append(None)
            p.failures[len(p.latencies) - 1] = error
    if calibrate:
        p.blocks.append(workload.calibrate())
    if p.rss_mb is None:
        p.rss_mb = peak_rss_mb(workload)
    return p


def reference_failures(workload, seed, hashes) -> dict:
    """Compare the first digest items' facts with the stored reference."""
    if seed != DEFAULT_SEED:
        return {}
    expected = REFERENCE[workload.name]
    return {i: "facts differ from the reference"
            for i, (e, g) in enumerate(zip(expected, hashes)) if e != g}


def describe(failures: dict, label="item") -> list:
    return [f"{label} {i}: {reason}" for i, reason in sorted(failures.items())]


def startup_probe() -> tuple:
    """Medians of a bare interpreter start and of ``import extremenu.cli``."""
    env = child_env()
    bare, full = [], []
    for _ in range(STARTUP_PROBES):
        for code, out in (("pass", bare), ("import extremenu.cli", full)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           capture_output=True, timeout=60)
            out.append(perf_counter() - start)
    bare_ms = 1000 * statistics.median(bare)
    return bare_ms, 1000 * statistics.median(full) - bare_ms


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def timings(latencies, ok) -> dict:
    return {"throughput_per_s": ok / sum(latencies),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p90_ms": 1000 * p90(latencies)}


def untraced_run(workload, args, setup_s):
    p = measure(workload, workload.inputs(args.seed), args.seconds,
                max(workload.min_items, workload.digest_items), calibrate=True)
    failed = {**reference_failures(workload, args.seed, p.hashes), **p.failures}
    n = len(p.latencies)
    ok = n - len(failed)
    scaled = speed.scale(p.latencies, p.blocks)
    tail = p90(scaled)
    beyond = sum(1 for x in scaled if x > tail)
    metrics = {"setup_s": setup_s, **timings(scaled, ok),
               "correct_share": ok / n, "peak_rss_mb": p.rss_mb}
    slow = speed.slowdowns(p.blocks)
    raw = ", ".join(f"{k} {v:.6g}" for k, v in timings(p.latencies, ok).items())
    notes = [
        f"{n} items in {p.busy_s:.3f} s of window; {beyond} samples beyond p90",
        f"timings scaled to the reference speed (perfbench/speed.py); machine slowdown "
        f"over the window: median {statistics.median(slow):.3f}, range "
        f"{min(slow):.3f}-{max(slow):.3f}",
        f"raw wall-clock: {raw}",
        f"failed_share {len(failed) / n:.4f} ({len(failed)} of {n})",
        f"peak_rss_mb read after {min(n, RSS_ITEMS)} items "
        f"({'largest child' if workload.rss_of_children else 'this process'}); "
        f"{peak_rss_mb(workload):.1f} MB at the end of the window",
        f"extended_menu cache hits in window: {p.cache_hits}",
    ]
    if args.seed == DEFAULT_SEED:
        notes.append("reference facts " + json.dumps(p.hashes[: workload.digest_items]))
    return metrics, END_TO_END, n, describe(failed), notes


def traced_run(workload, args, setup_s):
    """Untraced pass over half the window, then the same inputs again with
    the tracer installed; both passes must yield identical facts."""
    plain = measure(workload, workload.inputs(args.seed), args.seconds / 2,
                    workload.digest_items)
    model.extended_menu.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        stray = tracer.unwrapped_bindings()
        traced = measure(workload, iter(plain.inputs), tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.counters["cache_hits"] += traced.cache_hits
    differ = {i: "traced facts differ from untraced"
              for i, (a, b) in enumerate(zip(plain.hashes, traced.hashes)) if a != b}
    failures = (describe({**reference_failures(workload, args.seed, plain.hashes),
                          **plain.failures})
                + describe({**differ, **traced.failures}, "traced item")
                + [f"binding left untraced: {s}" for s in stray])
    start_ms, import_ms = startup_probe()

    st, c = tracer.stats, tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in TRACED_NAMES:
        calls, total, self_s = st[name]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.total_s"] = total
        metrics[f"{name}.self_s"] = self_s
    metrics.update({
        "kernels.rref_sparse.cells": c["rref_cells"],
        "model.absorption.lp_calls": c["absorption_lp_calls"],
        "model.absorption.lp_s": c["absorption_lp_s"],
        "model.extended_menu.cache_hits": c["cache_hits"],
        "extremality.verify_per_certificate": ratio(
            st["extremality.verify_certificate"][0], st["extremality.extract_decomposition"][0]),
        "extremality.nonextreme_share": ratio(
            c["nonextreme"], st["extremality.is_extreme_finite"][0]),
        "perturb.attempts_per_success": ratio(c["perturb_attempts"], c["perturb_ok"]),
        "applications.force_exhaustive.exhaustive_share": ratio(
            c["force_ok"], st["applications.force_exhaustive"][0]),
        "cli.interpreter_start_ms": start_ms,
        "cli.import_ms": import_ms,
        "trace.unattributed_s": traced.busy_s - tracer.root_s,
        "trace.overhead_share": traced.busy_s / plain.busy_s - 1,
    })
    n = len(plain.latencies)
    notes = [
        f"{n} items: untraced {plain.busy_s:.3f} s, traced {traced.busy_s:.3f} s",
        f"bases: verify_per_certificate over {st['extremality.extract_decomposition'][0]} "
        f"certificates; nonextreme_share over {st['extremality.is_extreme_finite'][0]} verdicts; "
        f"attempts_per_success over {c['perturb_ok']} successes; exhaustive_share over "
        f"{st['applications.force_exhaustive'][0]} forcings",
    ]
    return metrics, PER_LAYER, 2 * n, failures, notes


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernels_backend": kernels.BACKEND,
        "measurement_limit": MEASUREMENT_LIMIT,
    }


def run_one(args, t0) -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = WORKLOADS[args.workload](Path(tmp))
        import_s = perf_counter() - t0

        def block():
            return [x for _ in range(SETUP_BLOCK) for x in workload.calibrate()]

        reps, blocks = [], [block()]
        for _ in range(SETUP_REPS):
            start = perf_counter()
            workload.setup()
            reps.append(perf_counter() - start)
            blocks.append(block())
        # the import ran just before the first calibration block
        setup_s = (import_s / statistics.median(blocks[0])
                   + statistics.median(speed.scale(reps, blocks)))
        run = traced_run if args.trace else untraced_run
        metrics, units, attempted, failures, notes = run(workload, args, setup_s)
        notes.append(f"set-up: import {import_s:.4f} s, repetitions "
                     + ", ".join(f"{r:.4f}" for r in reps) + " s (raw wall-clock); "
                     "machine slowdowns " + ", ".join(f"{x:.3f}" for x in speed.slowdowns(blocks)))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(environment()))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {units[name]}")
    for note in notes:
        print(f"  # {note}")
    for failure in failures[:10]:
        print(f"failure: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process so that peak RSS and
    the extended-menu cache belong to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode not in (0, 1):
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv, t0) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, t0)
