#!/usr/bin/env python3
"""Repository benchmark: the Phoenix kernel simulation under three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload <boot_recover|monitor_steady|pws_flash>
        [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (which compiles ../src) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
workload in fresh single-threaded processes, one iteration each:

  --trace 0  runs the workload's inputs (one per seed, four for pws_flash,
             see INPUTS_PER_SEED) in turn, at least two iterations and one
             of each input, until the measured phases add up to --seconds;
             takes extra set-up-only samples; reports the end-to-end
             metrics. wall_s is the fastest repeat of each input, averaged
             over the inputs; setup_s and peak_rss_mb are medians; counts
             and sim values are means over the inputs.
  --trace 1  runs one untraced and one traced iteration of the first input
             and reports the per-layer metrics of the traced one.

Metric names and units come from BENCHMARK.json; their definitions are in
perfbench/README.md. Every count and sim-clock value must repeat exactly
across iterations and between the traced and untraced run, and every
workload's output checks must pass, or "correct" is false. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("boot_recover", "monitor_steady", "pws_flash")
DEFAULT_SEED = 42  # the seed claims are developed on
HELD_OUT_SEED = 7919  # reserved for confirming a claim, see README.md
MIN_SETUPS = 9  # set-up samples per --trace 0 run (setup_s is their median)
MIN_ITERATIONS = 2  # per --trace 0 run, so wall_s can drop a slowed repeat
# pws_flash's post-restart checkpoint volume, and with it its bytes and wall
# time, swings by +-15% from one trace to the next; averaging four traces per
# seed keeps a run's figures steady. Input j of seed N uses seed N * k + j.
INPUTS_PER_SEED = {"boot_recover": 1, "monitor_steady": 1, "pws_flash": 4}
RUN_BUDGET_S = 150.0  # never start an iteration that could end past this
ITERATION_TIMEOUT_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_catalogue():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    spec = json.loads(path.read_text())
    return spec["end_to_end"], spec["per_layer"]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("kernel sources src/ not found next to perfbench/")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def iteration(binary, workload, seed, traced=False, setup_only=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=ITERATION_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"iteration failed: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def differences(a, b):
    """Names whose deterministic values differ between two iterations."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def inputs(workload, seed):
    k = INPUTS_PER_SEED[workload]
    return [seed * k + j for j in range(k)]


def end_to_end(binary, args):
    seeds = inputs(args.workload, args.seed)
    started = time.monotonic()
    runs, measured = [], 0.0
    while True:
        t0 = time.monotonic()
        seed = seeds[len(runs) % len(seeds)]
        runs.append(iteration(binary, args.workload, seed))
        cost = time.monotonic() - t0
        measured += runs[-1]["wall_s"]
        if len(runs) < len(seeds):
            continue
        if measured >= args.seconds and len(runs) >= MIN_ITERATIONS:
            break
        if time.monotonic() - started + cost > RUN_BUDGET_S:
            break
    setups = [r["setup_s"] for r in runs]
    while len(setups) < MIN_SETUPS:
        setups.append(iteration(binary, args.workload, seeds[0],
                                setup_only=True)["setup_s"])

    problems = []
    for i in range(len(seeds), len(runs)):
        diff = differences(runs[i - len(seeds)]["det"], runs[i]["det"])
        if diff:
            seed = seeds[i % len(seeds)]
            problems.append(f"a repeat of seed {seed} differs in {diff}")
    cycle = runs[:len(seeds)]
    values = {k: statistics.fmean(r["det"][k] for r in cycle)
              for k in cycle[0]["det"]}
    values["setup_s"] = statistics.median(setups)
    # Interference from other tenants of the host only ever adds time, so
    # the fastest repeat of an input is its steadiest estimate.
    fastest = [min(r["wall_s"] for r in runs[j::len(seeds)])
               for j in range(len(seeds))]
    values["wall_s"] = statistics.fmean(fastest)
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    attempted = sum(r["attempted"] for r in cycle)
    failed = sum(r["failed"] for r in cycle)
    values["ok_ratio"] = 1.0 - failed / attempted
    print(f"{args.workload}: inputs {seeds}, {len(runs)} iterations,"
          f" {len(setups)} set-ups, {measured:.2f} s measured")
    return runs, values, problems, attempted, failed


def per_layer(binary, args):
    seed = inputs(args.workload, args.seed)[0]
    plain = iteration(binary, args.workload, seed)
    traced = iteration(binary, args.workload, seed, traced=True)
    problems = []
    diff = differences(plain["det"], traced["det"])
    if diff:
        problems.append(f"the traced run changed {diff}")
    counts = traced["traced"]
    by_kind = sum(v for k, v in counts.items() if k.endswith(".deliveries"))
    if by_kind != sum(v for k, v in counts.items() if k.startswith("delivered.")):
        problems.append("deliveries by kind and by family disagree")
    values = dict(traced["det"])
    values.update(traced["traced"])
    values.update(traced["host"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"{args.workload}: untraced wall {plain['wall_s']:.3f} s,"
          f" traced wall {traced['wall_s']:.3f} s")
    return [plain, traced], values, problems, traced["attempted"], traced["failed"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELD_OUT_SEED} is held out"
                        " for confirming claims")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    e2e, layers = load_catalogue()
    binary = build()
    catalogue = layers if args.trace else e2e
    run = per_layer if args.trace else end_to_end
    runs, values, problems, attempted, failed = run(binary, args)

    for r in runs:
        problems.extend(r["check_failures"])
    metrics = {}
    for m in catalogue:
        if m["name"] not in values and args.trace == 0:
            problems.append(f"no value for {m['name']}")
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        print(f"  {m['name']:<32} {metrics[m['name']]['value']:>18.6f} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
