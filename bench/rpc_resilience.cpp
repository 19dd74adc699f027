// RPC resilience benchmark (DESIGN.md §9).
//
// Two measurements of the resilient client substrate under the fault models
// the paper's testbed motivates:
//
//   loss sweep - 200 config_set calls through KernelApi at packet-loss rates
//                {0, 1, 5, 20}%, one-shot (max_retries=0, the pre-§9 client)
//                vs the retrying client (backoff + replay-cache dedup).
//                Reports success rate and p50/p99 call latency in simulated
//                milliseconds, plus retries sent and server replays served.
//                The retrying client must hold >= 99% success at 5% loss.
//   failover   - a steady 2 Hz stream of federated checkpoint_save calls
//                while the client's home server node crashes mid-stream: the
//                directory re-resolution + federation rotation must keep the
//                stream completing (reroutes > 0, no lost calls).
//
// Packet loss perturbs the shared rng, so this bench says nothing about the
// deterministic Table 1-3 runs — those keep loss at 0 and are byte-identical
// with or without this substrate.
//
// Emits BENCH_rpc_resilience.json (or the first non-flag argument) for trend
// tracking.
//
// Flags:
//   --trace-json PATH  enable the cluster's span store for the failover run
//                      and write its spans (calls, attempts, reroutes, wire
//                      hops, serves, takeovers) as Chrome trace-event JSON
//                      (open in Perfetto). Tracing draws no randomness, so
//                      stdout is the same with or without it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kernel/api.h"
#include "obs/metrics.h"

namespace phoenix::bench {
namespace {

using kernel::KernelApi;
using net::CallOptions;
using net::Status;

struct CallRec {
  sim::SimTime issued = 0;
  sim::SimTime done = 0;
  Status status = Status::kUnreachable;
  bool completed = false;
};

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[idx];
}

cluster::ClusterSpec bench_spec() {
  cluster::ClusterSpec spec;
  spec.partitions = 2;
  spec.computes_per_partition = 8;
  spec.backups_per_partition = 1;
  spec.networks = 3;
  return spec;
}

struct SweepResult {
  double loss_pct = 0;
  const char* mode = "";
  std::size_t calls = 0;
  std::size_t ok = 0;
  double success_pct = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t retries = 0;
  std::uint64_t replays = 0;
};

constexpr std::size_t kSweepCalls = 200;
constexpr sim::SimTime kIssueSpacing = 100 * sim::kMillisecond;

SweepResult run_sweep(double loss_pct, bool retries_on) {
  Harness h(bench_spec());
  h.run_s(3.0);
  KernelApi api(h.cluster, h.cluster.compute_nodes(net::PartitionId{1})[0],
                h.kernel);
  h.injector.set_packet_loss(loss_pct / 100.0);

  const CallOptions opts =
      retries_on ? CallOptions{.deadline = 30 * sim::kSecond, .max_retries = 8}
                 : CallOptions{.deadline = 10 * sim::kSecond, .max_retries = 0};

  struct Ctx {
    KernelApi* api;
    cluster::Cluster* cluster;
    std::vector<CallRec> recs;
    CallOptions opts;
  } ctx{&api, &h.cluster, std::vector<CallRec>(kSweepCalls), opts};

  auto& engine = h.cluster.engine();
  for (std::size_t i = 0; i < kSweepCalls; ++i) {
    engine.schedule_after(static_cast<sim::SimTime>(i) * kIssueSpacing,
                          [&ctx, i] {
                            CallRec& rec = ctx.recs[i];
                            rec.issued = ctx.cluster->engine().now();
                            ctx.api->config_set(
                                "bench/k" + std::to_string(i), "v",
                                [&ctx, i](KernelApi::Result<std::uint64_t> r) {
                                  CallRec& done = ctx.recs[i];
                                  done.done = ctx.cluster->engine().now();
                                  done.status = r.status;
                                  done.completed = true;
                                },
                                ctx.opts);
                          });
  }
  // Issue window + the widest deadline + slack: every call has completed.
  h.run_s(sim::to_seconds(kSweepCalls * kIssueSpacing) + 45.0);

  SweepResult res;
  res.loss_pct = loss_pct;
  res.mode = retries_on ? "retries" : "oneshot";
  res.calls = kSweepCalls;
  std::vector<double> latencies_ms;
  for (const CallRec& rec : ctx.recs) {
    if (rec.completed && rec.status == Status::kOk) {
      ++res.ok;
      latencies_ms.push_back(sim::to_seconds(rec.done - rec.issued) * 1e3);
    }
  }
  res.success_pct = 100.0 * static_cast<double>(res.ok) /
                    static_cast<double>(res.calls);
  res.p50_ms = percentile(latencies_ms, 50.0);
  res.p99_ms = percentile(latencies_ms, 99.0);
  res.retries = api.retries_sent();
  res.replays = h.kernel.config().replay_cache().replays_served();
  return res;
}

struct FailoverResult {
  std::size_t calls = 0;
  std::size_t ok = 0;
  double success_pct = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t retries = 0;
  /// api.call_latency_us percentiles from the cluster metrics registry
  /// (enabled for this run; recording draws no randomness, so the failover
  /// outcome is identical with metrics off).
  double lat_p50_us = 0;
  double lat_p95_us = 0;
  double lat_p99_us = 0;
  std::uint64_t lat_count = 0;
  /// Full registry snapshot (counters/gauges/histograms), raw JSON.
  std::string metrics_json = "{}";
  /// Chrome trace-event JSON of the run's spans; empty unless traced.
  std::string trace_json;
};

constexpr std::size_t kFailoverCalls = 60;

FailoverResult run_failover(bool traced) {
  kernel::FtParams params;
  params.heartbeat_interval = 2 * sim::kSecond;
  params.detector_sample_interval = 1 * sim::kSecond;
  Harness h(bench_spec(), params);
  h.cluster.metrics().set_enabled(true);
  h.cluster.span_store().set_enabled(traced);
  h.run_s(3.0);
  KernelApi api(h.cluster, h.cluster.compute_nodes(net::PartitionId{1})[0],
                h.kernel);

  struct Ctx {
    KernelApi* api;
    std::size_t ok = 0;
    std::size_t completed = 0;
  } ctx{&api};

  auto& engine = h.cluster.engine();
  // 2 Hz stream of federated mutating calls...
  for (std::size_t i = 0; i < kFailoverCalls; ++i) {
    engine.schedule_after(static_cast<sim::SimTime>(i) * 500 *
                              sim::kMillisecond,
                          [&ctx, i] {
                            ctx.api->checkpoint_save(
                                "bench", "k" + std::to_string(i), "data",
                                [&ctx](KernelApi::Result<std::uint64_t> r) {
                                  ++ctx.completed;
                                  if (r.ok()) ++ctx.ok;
                                });
                          });
  }
  // ...and the client's home server node dies 10 s in, calls in flight.
  h.injector.schedule(h.cluster.now() + 10 * sim::kSecond,
                      [&h] {
                        h.injector.crash_node(
                            h.cluster.server_node(net::PartitionId{1}));
                      },
                      "crash home server");
  h.run_s(sim::to_seconds(kFailoverCalls * 500 * sim::kMillisecond) + 45.0);

  FailoverResult res;
  res.calls = kFailoverCalls;
  res.ok = ctx.ok;
  res.success_pct =
      100.0 * static_cast<double>(res.ok) / static_cast<double>(res.calls);
  res.reroutes = api.reroutes();
  res.retries = api.retries_sent();
  if (const obs::Histogram* lat =
          h.cluster.metrics().find_histogram("api.call_latency_us")) {
    res.lat_p50_us = lat->percentile(0.50);
    res.lat_p95_us = lat->percentile(0.95);
    res.lat_p99_us = lat->percentile(0.99);
    res.lat_count = lat->count();
  }
  res.metrics_json = h.cluster.metrics().snapshot_json();
  if (traced) res.trace_json = h.cluster.span_store().to_chrome_json();
  return res;
}

}  // namespace
}  // namespace phoenix::bench

int main(int argc, char** argv) {
  using namespace phoenix;
  using namespace phoenix::bench;
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  const char* out_path = "BENCH_rpc_resilience.json";
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-json") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      out_path = argv[i];
    }
  }

  const double losses[] = {0.0, 1.0, 5.0, 20.0};
  std::vector<SweepResult> sweep;
  std::printf("%-6s | %-8s | %-9s | %-9s | %-9s | %-8s | %-8s\n", "loss%",
              "mode", "success%", "p50 ms", "p99 ms", "retries", "replays");
  std::printf("%s\n", std::string(74, '-').c_str());
  for (double loss : losses) {
    for (bool retries_on : {false, true}) {
      SweepResult r = run_sweep(loss, retries_on);
      std::printf("%-6.0f | %-8s | %8.1f%% | %9.2f | %9.2f | %8llu | %8llu\n",
                  r.loss_pct, r.mode, r.success_pct, r.p50_ms, r.p99_ms,
                  static_cast<unsigned long long>(r.retries),
                  static_cast<unsigned long long>(r.replays));
      sweep.push_back(r);
    }
  }

  const FailoverResult fo = run_failover(trace_path != nullptr);
  std::printf("\nfailover: %zu/%zu calls ok (%.1f%%) across a mid-stream home"
              " server crash, %llu reroutes, %llu retries\n",
              fo.ok, fo.calls, fo.success_pct,
              static_cast<unsigned long long>(fo.reroutes),
              static_cast<unsigned long long>(fo.retries));
  std::printf("          call latency p50 %.0fus p95 %.0fus p99 %.0fus"
              " (%llu samples, api.call_latency_us)\n",
              fo.lat_p50_us, fo.lat_p95_us, fo.lat_p99_us,
              static_cast<unsigned long long>(fo.lat_count));

  // The §9 acceptance line: the retrying client holds >= 99% at 5% loss.
  bool ok = fo.success_pct >= 99.0;
  for (const SweepResult& r : sweep) {
    if (r.loss_pct == 5.0 && std::string(r.mode) == "retries" &&
        r.success_pct < 99.0) {
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: resilience targets missed\n");
  }

  if (trace_path != nullptr) {
    std::FILE* f = std::fopen(trace_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_path);
      return 1;
    }
    std::fwrite(fo.trace_json.data(), 1, fo.trace_json.size(), f);
    std::fclose(f);
  }

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"rpc_resilience\",\n  \"loss_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepResult& r = sweep[i];
      std::fprintf(f,
                   "    {\"loss_pct\": %.0f, \"mode\": \"%s\", \"calls\": %zu,"
                   " \"ok\": %zu, \"success_pct\": %.1f, \"p50_ms\": %.2f,"
                   " \"p99_ms\": %.2f, \"retries\": %llu, \"replays\": %llu}%s\n",
                   r.loss_pct, r.mode, r.calls, r.ok, r.success_pct, r.p50_ms,
                   r.p99_ms, static_cast<unsigned long long>(r.retries),
                   static_cast<unsigned long long>(r.replays),
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"failover\": {\"calls\": %zu, \"ok\": %zu,"
                 " \"success_pct\": %.1f, \"reroutes\": %llu,"
                 " \"retries\": %llu,\n"
                 "    \"call_latency_us\": {\"count\": %llu, \"p50\": %.0f,"
                 " \"p95\": %.0f, \"p99\": %.0f}},\n",
                 fo.calls, fo.ok, fo.success_pct,
                 static_cast<unsigned long long>(fo.reroutes),
                 static_cast<unsigned long long>(fo.retries),
                 static_cast<unsigned long long>(fo.lat_count), fo.lat_p50_us,
                 fo.lat_p95_us, fo.lat_p99_us);
    // Raw registry snapshot from the failover run (already valid JSON).
    std::fprintf(f, "  \"metrics\": %s\n}\n", fo.metrics_json.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return ok ? 0 : 1;
}
