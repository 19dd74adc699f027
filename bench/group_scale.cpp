// Group-management scaling: flat meta-group vs zoned hierarchy (DESIGN.md §15).
//
// The paper keeps every partition's GSD in ONE flat ring, so a burst of
// correlated failures (a rack of consecutive partitions dying at once)
// serializes around the ring: each removal exposes the NEXT dead member to a
// fresh predecessor whose grace window starts from zero — detection and
// reconfiguration cost ~burst_size ring cycles. The zoned topology strides
// consecutive partitions across zone sub-rings, so the same burst lands in
// `burst` DIFFERENT rings whose detections and recoveries run in parallel.
//
// The bench sweeps cluster sizes (64/256 partitions in --quick; 1024/4096
// added in the full run), boots each size twice — GroupTopology::flat() and
// zoned(sqrt-sized zones) — kills the server nodes of 8 consecutive
// mid-range partitions right after boot settles, and measures the
// DETECTION+RECONFIGURATION latency: simulated time from the crash instant
// until the last of the 8 is journaled recovered (removed from its ring,
// migrated to its backup node, views reconverged).
//
// Acceptance: zoned <= 0.8x flat at every size, and <= 0.5x flat at 4096
// (full run only) — the hierarchy must be sub-linear in the burst, not a
// constant-factor tweak.
//
// Each case is its own simulation, so the cases run as independent trials
// on one thread per core (sim::run_parallel_trials) and print in sweep
// order; the output is the same as a sequential run's.
//
// Usage: group_scale [--quick] [out.json]   (default out: BENCH_group_scale.json)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/parallel_trials.h"

namespace phoenix::bench {
namespace {

constexpr std::uint32_t kBurst = 8;  // consecutive partitions killed at once

struct CaseResult {
  std::size_t partitions = 0;
  std::uint32_t zone_size = 0;  // 0: flat
  double latency_s = -1;        // detection+reconfiguration, -1: no convergence
  std::uint64_t recovered = 0;
};

kernel::FtParams case_params(bool zoned, std::uint32_t zone_size) {
  kernel::FtParams p;
  p.heartbeat_interval = 2 * sim::kSecond;
  p.detector_sample_interval = 1 * sim::kSecond;
  if (zoned) p.topology = kernel::FtParams::GroupTopology::zoned(zone_size);
  return p;
}

/// Zone width for a sweep size: sqrt(N) keeps both levels O(sqrt(N)) —
/// 64 -> 8x8, 256 -> 16x16, 1024 -> 32x32, 4096 -> 64x64.
std::uint32_t zone_size_for(std::size_t partitions) {
  return static_cast<std::uint32_t>(
      std::lround(std::sqrt(static_cast<double>(partitions))));
}

CaseResult run_case(std::size_t partitions, bool zoned) {
  cluster::ClusterSpec spec;
  spec.partitions = partitions;
  spec.computes_per_partition = 0;  // membership-layer bench: servers + backups
  spec.backups_per_partition = 1;
  spec.networks = 3;

  const std::uint32_t zone_size = zoned ? zone_size_for(partitions) : 0;
  Harness h(spec, case_params(zoned, zone_size));
  h.run_s(6.0);  // boot settles on the seeded views

  // Kill the server nodes of kBurst CONSECUTIVE partitions in the middle of
  // the id range: ring-adjacent under flat(), one per zone under zoned()
  // (stride = num_zones >= kBurst at every swept size), and never a boot
  // leader of any ring.
  const std::uint32_t first = static_cast<std::uint32_t>(partitions / 2);
  const sim::SimTime t0 = h.cluster.now();
  for (std::uint32_t k = 0; k < kBurst; ++k) {
    h.injector.crash_node(
        h.cluster.server_node(net::PartitionId{first + k}));
  }

  // Run until every victim is journaled recovered (cap: 600 simulated s).
  CaseResult r;
  r.partitions = partitions;
  r.zone_size = zone_size;
  for (int tick = 0; tick < 600; ++tick) {
    h.run_s(1.0);
    std::uint64_t recovered = 0;
    sim::SimTime last = t0;
    for (const auto& rec : h.kernel.fault_log().records()) {
      if (rec.component != "GSD" || !rec.recovered) continue;
      if (rec.detected_at < t0) continue;
      ++recovered;
      last = std::max(last, rec.recovered_at);
    }
    if (recovered >= kBurst) {
      r.recovered = recovered;
      r.latency_s = sim::to_seconds(last - t0);
      break;
    }
  }
  return r;
}

}  // namespace
}  // namespace phoenix::bench

int main(int argc, char** argv) {
  using namespace phoenix;
  using namespace phoenix::bench;
  std::setvbuf(stdout, nullptr, _IONBF, 0);

  bool quick = false;
  const char* out_path = "BENCH_group_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }

  std::vector<std::size_t> sizes = {64, 256};
  if (!quick) {
    sizes.push_back(1024);
    sizes.push_back(4096);
  }

  std::printf("group_scale (%s): %u consecutive server-node crashes;"
              " detection+reconfiguration latency, flat vs zoned\n\n",
              quick ? "quick" : "full", kBurst);
  std::printf("%10s | %9s | %10s | %10s | %6s\n", "partitions", "zone_size",
              "flat_s", "zoned_s", "ratio");
  std::printf("%s\n", std::string(56, '-').c_str());

  bool ok = true;
  struct Row {
    std::size_t partitions;
    std::uint32_t zone_size;
    double flat_s, zoned_s, ratio;
  };
  std::vector<Row> rows;
  // Trial 2i is sizes[i] flat, 2i+1 the same size zoned.
  const std::vector<CaseResult> cases = sim::run_parallel_trials(
      2 * sizes.size(),
      [&sizes](std::size_t t) { return run_case(sizes[t / 2], t % 2 == 1); });
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    const CaseResult& flat = cases[2 * i];
    const CaseResult& zoned = cases[2 * i + 1];
    if (flat.latency_s < 0 || zoned.latency_s < 0) {
      std::fprintf(stderr,
                   "FAIL: no convergence at %zu partitions (flat %.1f,"
                   " zoned %.1f)\n",
                   n, flat.latency_s, zoned.latency_s);
      ok = false;
      continue;
    }
    const double ratio = zoned.latency_s / flat.latency_s;
    rows.push_back({n, zoned.zone_size, flat.latency_s, zoned.latency_s, ratio});
    std::printf("%10zu | %9u | %10.2f | %10.2f | %6.2f\n", n, zoned.zone_size,
                flat.latency_s, zoned.latency_s, ratio);
    if (ratio > 0.8) {
      std::fprintf(stderr, "FAIL: zoned/flat %.2f > 0.8 at %zu partitions\n",
                   ratio, n);
      ok = false;
    }
    if (!quick && n == 4096 && ratio > 0.5) {
      std::fprintf(stderr, "FAIL: zoned/flat %.2f > 0.5 at 4096 partitions\n",
                   ratio);
      ok = false;
    }
  }

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"group_scale\",\n  \"config\": \"%s\",\n"
                 "  \"burst\": %u,\n  \"cases\": [\n",
                 quick ? "quick" : "full", kBurst);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"partitions\": %zu, \"zone_size\": %u,"
                   " \"flat_s\": %.3f, \"zoned_s\": %.3f, \"ratio\": %.3f}%s\n",
                   r.partitions, r.zone_size, r.flat_s, r.zoned_s, r.ratio,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"pass\": %s\n}\n", ok ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    ok = false;
  }
  return ok ? 0 : 1;
}
