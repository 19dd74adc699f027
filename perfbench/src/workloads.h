// The three benchmark workloads. Each call runs one iteration in the
// calling process: set-up, then the measured phase, then the output checks.
// Rationale and predictions for each workload live in perfbench/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/api.h"
#include "probe.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  bool traced = false;      // install the DeliveryTracer for the measured phase
  bool setup_only = false;  // stop after set-up (extra setup_s samples)
};

Report run_boot_recover(const Options& opt);
Report run_monitor_steady(const Options& opt);
Report run_pws_flash(const Options& opt);

/// Ends set-up for a setup-only run: records setup_s and returns true.
inline bool stop_after_setup(const Options& opt, Report& r) {
  if (!opt.setup_only) return false;
  r.setup_s = seconds_between(process_start(), Clock::now());
  return true;
}

/// api.* summed over the benchmark's KernelApi clients; `calls` is the
/// number of calls the benchmark issued through them.
inline void api_metrics(const std::vector<const kernel::KernelApi*>& clients,
                        std::uint64_t calls, Report& r) {
  double retries = 0, reroutes = 0, timeouts = 0, exhausted = 0;
  for (const kernel::KernelApi* api : clients) {
    retries += static_cast<double>(api->retries_sent());
    reroutes += static_cast<double>(api->reroutes());
    timeouts += static_cast<double>(api->timed_out_calls());
    exhausted += static_cast<double>(api->exhausted_calls());
  }
  r.det["api.calls"] = static_cast<double>(calls);
  r.det["api.retries"] = retries;
  r.det["api.reroutes"] = reroutes;
  r.det["api.timeouts"] = timeouts;
  r.det["api.exhausted"] = exhausted;
}

}  // namespace perfbench
