#!/usr/bin/env python3
"""Diffs pws_gateway --quick's simulated fields against bench/golden/pws_gateway_quick.json.

The gateway bench runs one generated tenant load through the per-job path
(one PwsSubmitMsg per job) and the batched path (the submission gateway).
Everything it reports except host time is simulated and deterministic:
submissions, verdicts, completions, cancels, batches, fairness and the
sim-clock latency percentiles. This script drops the wall-clock fields
(wall_s, jobs_per_s, flash_jobs_per_s, speedup, flash_speedup) and compares
every other field of the golden file exactly, so any difference is a change
in how the scheduler serves one of the two paths. Fields the bench adds
later are ignored.

Usage:
  build/bench/pws_gateway --quick pws-gateway-quick.json
  python3 bench/check_gateway.py pws-gateway-quick.json

A change that moves these fields on purpose regenerates the file with
--write, from a Release build, and shows the diff in its description.

Exits non-zero if any simulated field differs or is missing.
"""
import argparse
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "pws_gateway_quick.json"
WALL_CLOCK = {"wall_s", "jobs_per_s", "flash_jobs_per_s", "speedup",
              "flash_speedup"}


def simulated(value):
    """The report with every wall-clock field removed, at any depth."""
    if isinstance(value, dict):
        return {k: simulated(v) for k, v in value.items() if k not in WALL_CLOCK}
    if isinstance(value, list):
        return [simulated(v) for v in value]
    return value


def flatten(value, path=""):
    """Maps each leaf to a path such as "modes[1].sched_latency_us.p99"."""
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {path: value}
    out = {}
    for child_path, child in items:
        out.update(flatten(child, child_path))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="JSON written by pws_gateway --quick")
    parser.add_argument("--write", action="store_true",
                        help="regenerate the golden file instead of diffing")
    args = parser.parse_args()

    observed = simulated(json.loads(Path(args.report).read_text()))
    if args.write:
        GOLDEN.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.name}")
        return 0

    expected = flatten(json.loads(GOLDEN.read_text()))
    got = flatten(observed)
    diffs = [f"  {key}: golden {value}, got {got.get(key, 'missing')}"
             for key, value in sorted(expected.items()) if got.get(key) != value]
    if diffs:
        print("FAIL pws_gateway --quick: simulated fields differ", file=sys.stderr)
        print("\n".join(diffs), file=sys.stderr)
        return 1
    print(f"ok   pws_gateway --quick: {len(expected)} simulated fields")
    return 0


if __name__ == "__main__":
    sys.exit(main())
