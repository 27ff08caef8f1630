"""Benchmark of the neural_mpc pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload paper_n2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload runs in this process: timed rounds of the workload's body until
``--seconds`` of body time are measured, with timed set-ups (compiles) spread
between them.
Every control action of every round is checked against the independent
reference in ``reference.py``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates plain and traced set-up + body iterations and reports
the per-layer metrics.  ``--workload all`` runs each workload in its own
process, untraced and traced, and prints a table.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import os

# Fixed before numpy loads.  Two threads, not one: with single-threaded
# OpenBLAS the PALM residual at N = 40 oscillates in its last digits and never
# meets its stopping rule (see README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from tracer import LatencyProbe, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("paper_n2", "cold_queries_n2", "long_horizon_n40")
SETUP_MIN_REPS, SETUP_SECONDS = 8, 3.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(workload, seconds: float) -> dict:
    compiled = workload.setup()  # warms caches; not timed
    probe = LatencyProbe(workload.latencies) if workload.closed_loop else None
    setup_times, walls = [], []

    def one_round(compiled) -> float:
        with probe.installed() if probe else nullcontext():
            start = time.perf_counter()
            out = workload.body(compiled)
            wall = time.perf_counter() - start
        workload.check(out)
        return wall

    def set_up_until(share: float):
        """Timed set-ups until `share` of the set-up budget is spent."""
        nonlocal compiled
        while sum(setup_times) < SETUP_SECONDS * share or len(setup_times) < SETUP_MIN_REPS * share:
            start = time.perf_counter()
            compiled = workload.setup()
            setup_times.append(time.perf_counter() - start)

    warm = one_round(compiled)  # its actions are still checked
    workload.latencies.clear()
    while sum(walls) < seconds:
        # Set-ups are spread over the run in step with the body time, so they
        # see the same mix of host CPU speeds as the rounds do.
        set_up_until(min(1.0, (sum(walls) + warm) / seconds))
        walls.append(one_round(compiled))
    set_up_until(1.0)
    # Upper percentiles, not medians: the host's CPU speed drifts, and the
    # share of fast time in a run moves a centre statistic by up to a half
    # between runs, while the slow tail repeats better (see README).  Every
    # round repeats the same timed operations in the same order, so each
    # operation's p90 over the rounds is its time at the slow speed; a
    # statistic over ~1500 of these averages the drift, where the p90 of ~15
    # round times rests on two rounds.
    per_op = np.percentile(np.reshape(workload.latencies, (len(walls), -1)), 90, axis=0)
    # The cold queries are the whole round; a closed-loop round holds more.
    wall_p90 = percentile(walls, 90) if workload.closed_loop else float(per_op.sum())
    return {
        "setup_s": percentile(setup_times, 90),
        "wall_p90_s": wall_p90,
        "control_latency_p95_us": 1e6 * percentile(per_op, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, seconds: float, spans_path: Path) -> dict:
    """Alternate plain and traced (set-up + body) iterations after a warm-up."""
    tracer = Tracer()
    compiled = workload.setup()
    workload.check(workload.body(compiled))
    plain, traced = [], []
    while sum(plain) + sum(traced) < seconds or not plain:
        use_trace = len(traced) <= len(plain)
        with tracer.installed() if use_trace else nullcontext():
            start = time.perf_counter()
            with tracer.span("bench.setup") if use_trace else nullcontext():
                compiled = workload.setup()
            with tracer.span("bench.body") if use_trace else nullcontext():
                out = workload.body(compiled)
            (traced if use_trace else plain).append(time.perf_counter() - start)
        workload.check(out)
    tracer.write(spans_path)

    k = len(traced)
    self_s = tracer.self_times()
    settle_us = 1e6 * tracer.durations("network.settle")
    oracle_us = 1e6 * tracer.durations("qp_oracle.solve")

    def seconds_of(*names):
        return sum(self_s.get(n, 0.0) for n in names) / k

    def calls(name):
        return len(tracer.durations(name)) / k

    settled, attempted = tracer.settled
    return {
        "plant.zoh_s": seconds_of("plant.zoh"),
        "plant.dare_s": seconds_of("plant.dare"),
        "plant.propagate_s": seconds_of("plant.propagate"),
        "plant.propagate_calls": calls("plant.propagate"),
        "condenser.condense_s": seconds_of("condenser.condense"),
        "condenser.build_network_s": seconds_of("condenser.build_network"),
        "condenser.augment_slack_s": seconds_of("condenser.augment_slack"),
        "network.settle_s": seconds_of("network.settle"),
        "network.settle_calls": calls("network.settle"),
        "network.settle_p50_us": percentile(settle_us, 50),
        "network.settle_p95_us": percentile(settle_us, 95),
        "network.settle_multilayer_s": seconds_of("network.settle_multilayer"),
        "network.settle_multilayer_calls": calls("network.settle_multilayer"),
        "network.readout_s": seconds_of("network.readout"),
        "network.euler_steps": tracer.counts["network.euler_steps"] / k,
        "network.settled_ratio": settled / attempted if attempted else 0.0,
        "qp_oracle.solve_s": seconds_of("qp_oracle.solve"),
        "qp_oracle.solve_calls": calls("qp_oracle.solve"),
        "qp_oracle.solve_p50_us": percentile(oracle_us, 50),
        "factorizer.identity_init_s": seconds_of("factorizer.identity_init"),
        "factorizer.palm_s": seconds_of("factorizer.palm"),
        "factorizer.palm_sweeps": tracer.palm_sweeps / k,
        "perturber.prune_s": seconds_of("perturber.prune"),
        "perturber.bound_s": seconds_of("perturber.bound"),
        "perturber.bound_calls": calls("perturber.bound"),
        "analytics.extract_graph_s": seconds_of("analytics.extract_graph"),
        "analytics.export_graph_s": seconds_of("analytics.export_graph"),
        "harness.self_s": seconds_of("harness.pipeline"),
        "harness.write_trace_csv_s": seconds_of("harness.write_trace_csv"),
        "bench.self_s": seconds_of("bench.setup", "bench.body"),
        "trace.self_sum_s": sum(self_s.values()) / k,
        "trace.wall_s": sum(traced) / k,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def use_source_tree() -> bool:
    """Put the checkout's ``src`` first on the import path; False if absent."""
    if not (SRC / "neural_mpc" / "__init__.py").is_file():
        print(f"error: no neural_mpc package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def run_one(args) -> int:
    if not use_source_tree():
        return 2
    from workloads import WORKLOADS

    units = declared_units(args.trace)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = per_layer(workload, args.seconds, spans)
        else:
            metrics = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if metrics.keys() != units.keys():
        print(f"error: metrics {sorted(metrics.keys() ^ units.keys())} are measured "
              "or declared in BENCHMARK.json, not both", file=sys.stderr)
        return 1
    checker = workload.checker
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(f"attempted {workload.attempted}  failed {workload.failed}  "
          f"wrong {checker.bad}  max |u - u*| by variant: "
          + ", ".join(f"{v} {e:.2g}" for v, e in sorted(checker.max_err.items())))
    for message in workload.errors:
        print(f"failed operation: {message}", file=sys.stderr)
    for message in checker.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": checker.bad == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"error: {name} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.setdefault(name, {"correct": True, "metrics": {}})
            entry = results[name]
            entry["correct"] &= res["correct"]
            entry[f"attempted_trace{trace}"] = res["attempted"]
            entry[f"failed_trace{trace}"] = res["failed"]
            entry["metrics"].update(res["metrics"])
    for name, entry in results.items():
        print(f"== {name}: correct {entry['correct']}, attempted {entry['attempted_trace0']}, "
              f"failed {entry['failed_trace0']} (traced run: {entry['attempted_trace1']} / "
              f"{entry['failed_trace1']})")
        for metric, m in entry["metrics"].items():
            print(f"   {metric:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
