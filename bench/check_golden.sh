#!/usr/bin/env sh
# Diffs the stdout of the seven paper benches (Tables 1-4, Fig. 6, Fig. 9
# and PWS vs PBS) against the outputs committed in bench/golden/. The
# simulation is deterministic, so any changed byte is a behaviour change.
#
# Usage: bench/check_golden.sh [build-dir]     (default: build, Release)
#
# A change that moves these outputs on purpose (a fixed bug, a new way of
# drawing randomness) regenerates the files with
#   build/bench/<name> > bench/golden/<name>.txt
# and shows the diff in its description.
#
# Exits non-zero if any output differs or any bench fails, after running
# all seven.
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
golden_dir="$repo_root/bench/golden"
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

failed=""
for name in table1_wd_faults table2_gsd_faults table3_es_faults \
            table4_linpack fig6_monitoring fig9_pws_gui pws_vs_pbs; do
  if ! "$build_dir/bench/$name" > "$out_dir/$name.txt"; then
    echo "FAIL $name: exited non-zero" >&2
    failed="$failed $name"
  elif diff -u "$golden_dir/$name.txt" "$out_dir/$name.txt"; then
    echo "ok   $name"
  else
    echo "FAIL $name: differs from bench/golden/$name.txt" >&2
    failed="$failed $name"
  fi
done

if [ -n "$failed" ]; then
  echo "paper outputs changed:$failed" >&2
  exit 1
fi
