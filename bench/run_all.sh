#!/usr/bin/env sh
# Runs every bench binary and collects the outputs at the repo root:
#   BENCH_<name>.json  for benches with machine-readable output
#                      (engine_hotpath and monitoring_plane natively;
#                      micro_kernel via the google-benchmark JSON reporter)
#   BENCH_<name>.log   captured stdout of the text-table benches
#   BENCH_results.json every per-bench JSON merged into one object keyed
#                      by bench name (one file to diff across PRs)
#
# Usage: bench/run_all.sh [build-dir]     (default: build)
#
# All BENCH_* files are gitignored scratch — paste the numbers you care
# about into the PR description instead of committing them.
#
# Exits non-zero if any bench exits non-zero, after running them all (so one
# failure never hides another's numbers).
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
bench_dir="$build_dir/bench"

if [ ! -d "$bench_dir" ]; then
  echo "error: '$bench_dir' not found — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

failed=""

run_one() {
  name=$1
  shift
  bin="$bench_dir/$name"
  if [ ! -x "$bin" ]; then
    echo "--- skipping $name (not built)"
    return 0
  fi
  echo "--- $name"
  if ! "$bin" "$@"; then
    failed="$failed $name"
  fi
}

cd "$repo_root"

# JSON-emitting benches.
run_one engine_hotpath "$repo_root/BENCH_hotpath.json"
run_one monitoring_plane "$repo_root/BENCH_monitoring_plane.json"
run_one rpc_resilience "$repo_root/BENCH_rpc_resilience.json"
run_one pws_gateway "$repo_root/BENCH_pws_gateway.json"
run_one fault_matrix "$repo_root/BENCH_fault_matrix.json"
run_one group_scale "$repo_root/BENCH_group_scale.json"
run_one micro_kernel \
  "--benchmark_out=$repo_root/BENCH_micro_kernel.json" \
  --benchmark_out_format=json

# Text-table benches: capture stdout alongside the JSON files. POSIX sh has
# no PIPESTATUS, so write to the log file first and cat it back rather than
# piping through tee (which would swallow the bench's exit code).
for name in table1_wd_faults table2_gsd_faults table3_es_faults \
            table4_linpack fig6_monitoring scalability pws_vs_pbs \
            ablation_networks availability fig9_pws_gui; do
  run_one "$name" > "$repo_root/BENCH_$name.log" 2>&1
  [ -f "$repo_root/BENCH_$name.log" ] && cat "$repo_root/BENCH_$name.log"
done

# Merge every per-bench JSON into one object, keyed by bench name. A "host"
# key records the core count (group_scale runs its cases one per core, so its
# wall time depends on it) plus the git revision and UTC wall time of the
# run, so any archived BENCH_results.json can be traced back to the exact
# tree that produced it.
results="$repo_root/BENCH_results.json"
rm -f "$results"
ncpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)
git_sha=$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)
if [ -n "$(git -C "$repo_root" status --porcelain 2>/dev/null)" ]; then
  git_sha="$git_sha-dirty"
fi
run_at=$(date -u +%Y-%m-%dT%H:%M:%SZ)
{
  printf '{\n'
  printf '  "host": { "hardware_concurrency": %s, "git_sha": "%s", "run_at_utc": "%s" },\n' \
    "$ncpus" "$git_sha" "$run_at"
  first=1
  for f in "$repo_root"/BENCH_*.json; do
    [ -e "$f" ] || continue
    # Never merge the merged file into itself: the output redirection
    # creates it before this glob is expanded.
    [ "$f" = "$results" ] && continue
    name=$(basename "$f" .json)
    name=${name#BENCH_}
    [ "$first" -eq 1 ] || printf ',\n'
    first=0
    printf '  "%s": ' "$name"
    # Re-indent the file's JSON under its key, without a trailing newline.
    awk 'NR > 1 { printf "\n  " } { printf "%s", $0 }' "$f"
  done
  printf '\n}\n'
} > "$results"

echo
echo "collected:"
ls -1 "$repo_root"/BENCH_* 2>/dev/null || echo "  (nothing produced)"

if [ -n "$failed" ]; then
  echo
  echo "FAILED benches:$failed" >&2
  exit 1
fi
