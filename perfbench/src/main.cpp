// perfbench: one iteration of one benchmark workload, as one JSON object.
//
//   perfbench --workload <boot_recover|monitor_steady|pws_flash> --seed <n>
//             [--traced] [--setup-only]
//
// perfbench/run.py builds this binary, repeats iterations for the requested
// time and aggregates them; see perfbench/README.md for the metrics.
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>

#include "workloads.h"

namespace {

// Counting allocator: every operator new in the process bumps it, so
// heap.allocs covers the kernel libraries as well as the benchmark.
std::atomic<std::uint64_t> g_allocs{0};

const perfbench::Clock::time_point g_start = perfbench::Clock::now();

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

Clock::time_point process_start() { return g_start; }
std::uint64_t heap_allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

namespace {

void print_map(const char* name, const std::map<std::string, double>& values) {
  std::printf("\"%s\": {", name);
  const char* sep = "";
  for (const auto& [key, v] : values) {
    std::printf("%s\"%s\": %.17g", sep, key.c_str(), std::isfinite(v) ? v : 0.0);
    sep = ", ";
  }
  std::printf("}");
}

void print_report(const perfbench::Report& r) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("{\"setup_s\": %.17g, \"wall_s\": %.17g, \"peak_rss_mb\": %.17g, ",
              r.setup_s, r.wall_s, static_cast<double>(usage.ru_maxrss) / 1024.0);
  std::printf("\"attempted\": %llu, \"failed\": %llu, ",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_map("det", r.det);
  std::printf(", ");
  print_map("traced", r.traced);
  std::printf(", ");
  print_map("host", r.host);
  std::printf(", \"check_failures\": [");
  const char* sep = "";
  for (const std::string& f : r.check_failures) {
    std::printf("%s\"%s\"", sep, f.c_str());
    sep = ", ";
  }
  std::printf("]}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <boot_recover|monitor_steady|pws_flash>"
               " --seed <n> [--traced] [--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else {
      return usage();
    }
  }

  perfbench::Report report;
  try {
    if (opt.workload == "boot_recover") {
      report = perfbench::run_boot_recover(opt);
    } else if (opt.workload == "monitor_steady") {
      report = perfbench::run_monitor_steady(opt);
    } else if (opt.workload == "pws_flash") {
      report = perfbench::run_pws_flash(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_report(report);
  return 0;
}
