#!/usr/bin/env sh
# Diffs the stdout of the seven paper benches (Tables 1-4, Fig. 6, Fig. 9
# and PWS vs PBS), the eight example programs, bench/rpc_resilience and five
# more deterministic benches (fault_matrix --quick, availability,
# scalability, ablation_networks, group_scale --quick) against the outputs
# committed in bench/golden/, plus the JSON fault_matrix and group_scale
# write. The simulation is deterministic, so any changed byte is a behaviour
# change. rpc_resilience gates KernelApi's backoff and reroute behaviour;
# the examples gate the business-runtime and PWS paths end to end;
# fault_matrix is the one output that runs the quorum regroup's voter
# probes. fault_matrix and group_scale also assert their own claims (no
# same-epoch double leader and bounded takeover under quorum; the zoned
# hierarchy reconfiguring faster than the flat ring) and exit non-zero when
# one fails, which fails their check here.
#
# Usage: bench/check_golden.sh [build-dir]     (default: build, Release)
#
# A change that moves these outputs on purpose (a fixed bug, a new way of
# drawing randomness) regenerates the files with
#   build/bench/<name> > bench/golden/<name>.txt
#   build/examples/<name> > bench/golden/example_<name>.txt
#   (cd <dir> && build/bench/rpc_resilience rpc_resilience.json) \
#     > bench/golden/rpc_resilience.txt
#   (cd <dir> && build/bench/fault_matrix --quick fault_matrix.json) \
#     > bench/golden/fault_matrix_quick.txt
#   cp <dir>/fault_matrix.json bench/golden/fault_matrix_quick.json
#   (cd <dir> && build/bench/group_scale --quick group_scale.json) \
#     > bench/golden/group_scale_quick.txt
#   cp <dir>/group_scale.json bench/golden/group_scale_quick.json
# and shows the diff in its description.
#
# Exits non-zero if any output differs or any program fails, after running
# all of them.
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=$(CDPATH= cd -- "${1:-"$repo_root/build"}" && pwd)
golden_dir="$repo_root/bench/golden"
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

failed=""
# same <golden file> <output file>: diffs one output against its golden file.
same() {
  if diff -u "$golden_dir/$1" "$2"; then
    echo "ok   $1"
  else
    echo "FAIL $1: differs from bench/golden/$1" >&2
    failed="$failed $1"
  fi
}
# check <golden name> <command...>: runs the command in $out_dir (so files
# it writes land there under fixed names) and diffs its stdout.
check() {
  name=$1
  shift
  if ! (cd "$out_dir" && "$@") > "$out_dir/$name.txt"; then
    echo "FAIL $name: exited non-zero" >&2
    failed="$failed $name"
  else
    same "$name.txt" "$out_dir/$name.txt"
  fi
}

for name in table1_wd_faults table2_gsd_faults table3_es_faults \
            table4_linpack fig6_monitoring fig9_pws_gui pws_vs_pbs; do
  check "$name" "$build_dir/bench/$name"
done
for name in admin_console business_runtime construction_tool custom_user_env \
            fault_tolerance_demo gridview_monitor pws_job_management quickstart; do
  check "example_$name" "$build_dir/examples/$name"
done
check rpc_resilience "$build_dir/bench/rpc_resilience" rpc_resilience.json
for name in availability scalability ablation_networks; do
  check "$name" "$build_dir/bench/$name"
done
check fault_matrix_quick "$build_dir/bench/fault_matrix" --quick fault_matrix.json
same fault_matrix_quick.json "$out_dir/fault_matrix.json"
check group_scale_quick "$build_dir/bench/group_scale" --quick group_scale.json
same group_scale_quick.json "$out_dir/group_scale.json"

if [ -n "$failed" ]; then
  echo "golden outputs changed:$failed" >&2
  exit 1
fi
