#!/usr/bin/env python3
"""Diffs the benchmark's simulated counters against bench/golden/perfbench_counts.json.

Runs one untraced iteration of the perfbench binary per workload and
compares every key of the golden "det" object exactly: messages, bytes by
family, deliveries, fault phases, sim-clock request latencies. The
simulation is deterministic, so any difference is a change on the wire or
in the RNG draw order. A golden key the run does not print fails; keys the
benchmark adds later are ignored. heap.allocs is left out of the file: it
moves with any host-side allocation change.

Usage:
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perfbench -j
  python3 bench/check_counts.py build-perfbench/perfbench

A change that moves these counters on purpose regenerates the file with
--write, from a Release build, and shows the diff in its description.

Exits non-zero if any counter differs, or any iteration fails or reports a
failed check, after running every workload.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "perfbench_counts.json"
# Workload -> seed of the one input that is run. pws_flash seed 168 is the
# first trace of perfbench's default seed 42.
INPUTS = {"boot_recover": 42, "monitor_steady": 42, "pws_flash": 168}
UNGATED = {"heap.allocs"}


def run(binary, workload, seed):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["check_failures"]:
        print(f"  {workload} checks failed: {report['check_failures']}",
              file=sys.stderr)
        return None
    return {k: v for k, v in report["det"].items() if k not in UNGATED}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("perfbench", help="path to the perfbench binary")
    parser.add_argument("--write", action="store_true",
                        help="regenerate the golden file instead of diffing")
    args = parser.parse_args()

    golden = {} if args.write else json.loads(GOLDEN.read_text())
    inputs = INPUTS if args.write else {w: g["seed"] for w, g in golden.items()}
    observed, failed = {}, []
    for workload, seed in inputs.items():
        det = run(args.perfbench, workload, seed)
        if det is None:
            print(f"FAIL {workload} --seed {seed}: iteration failed",
                  file=sys.stderr)
            failed.append(workload)
            continue
        observed[workload] = {"seed": seed, "det": det}
        if args.write:
            print(f"wrote {workload} --seed {seed}: {len(det)} counters")
            continue
        expected = golden[workload]["det"]
        diffs = [f"  {key}: golden {value}, got {det.get(key, 'missing')}"
                 for key, value in sorted(expected.items())
                 if det.get(key) != value]
        if diffs:
            print(f"FAIL {workload} --seed {seed}:", file=sys.stderr)
            print("\n".join(diffs), file=sys.stderr)
            failed.append(workload)
        else:
            print(f"ok   {workload} --seed {seed}: {len(expected)} counters")

    if args.write and not failed:
        GOLDEN.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
    if failed:
        print(f"simulated counters changed: {' '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
