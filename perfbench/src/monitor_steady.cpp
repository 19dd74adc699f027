// monitor_steady: the paper's monitoring scenario (Fig. 6, §5.3) at
// Dawning 4000A scale, under long steady load and no faults.
//
// 40 partitions x 16 nodes, default FtParams (30 s heartbeats, 5 s delta
// detector reports), ResourceModel app churn, GridView refreshing every
// second, a KernelApi client sending cluster-scope node queries at 20/s and
// a publisher whose events reach a subscriber in every partition. Boot and
// settle happen in set-up.
#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "gridview/gridview.h"
#include "workload/resource_model.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kPartitions = 40;
constexpr sim::SimTime kSettle = 40 * sim::kSecond;
constexpr sim::SimTime kSpan = 1800 * sim::kSecond;
constexpr sim::SimTime kQueryPeriod = 50 * sim::kMillisecond;     // 20/s
constexpr sim::SimTime kPublishPeriod = 100 * sim::kMillisecond;  // 10/s
constexpr sim::SimTime kRefresh = 1 * sim::kSecond;
constexpr const char* kEventType = "bench.tick";

}  // namespace

Report run_monitor_steady(const Options& opt) {
  Report r;
  cluster::ClusterSpec spec;
  spec.partitions = kPartitions;
  spec.computes_per_partition = 14;
  spec.backups_per_partition = 1;
  spec.networks = 3;
  spec.seed = opt.seed;

  cluster::Cluster c(spec);
  kernel::PhoenixKernel k(c);  // default FtParams
  phoenix::workload::ResourceModelParams load;
  load.churn_apps_per_node = 2;
  load.churn_exit_probability = 0.05;
  phoenix::workload::ResourceModel model(c, load);
  k.boot();
  model.start();
  const auto node_in = [&c](std::uint32_t p, std::size_t i) {
    return c.compute_nodes(net::PartitionId{p})[i];
  };
  phoenix::gridview::GridView view(c, node_in(0, 0), k, kRefresh);
  view.start();
  kernel::KernelApi querier(c, node_in(1, 0), k);
  kernel::KernelApi publisher(c, node_in(2, 0), k);
  std::vector<std::unique_ptr<kernel::KernelApi>> subscribers;
  std::uint64_t received = 0;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    subscribers.push_back(std::make_unique<kernel::KernelApi>(c, node_in(p, 2), k));
    subscribers.back()->subscribe({kEventType},
                                  [&received](const kernel::Event&) { ++received; });
  }
  c.engine().run_for(kSettle);
  std::optional<DeliveryTracer> tracer;
  if (opt.traced) tracer.emplace();
  if (stop_after_setup(opt, r)) return r;

  Phase phase(c, k, tracer ? &*tracer : nullptr, r);
  const sim::SimTime t0 = c.now();
  const std::uint64_t refreshes0 = view.refreshes_completed();

  RequestLog log;
  std::uint64_t partial = 0;
  const auto query = [&](sim::SimTime due) {
    log.dispatched(due, c.now());
    querier.query(kernel::BulletinTable::kNodes, /*cluster_scope=*/true, {},
                  [&, due](kernel::KernelApi::Result<kernel::BulletinSnapshot> res) {
                    ++log.completed;
                    if (!res.ok()) {
                      ++log.failed;
                      return;
                    }
                    log.latency_us.push_back(c.now() - due);
                    if (res.value.partitions_included < kPartitions) ++partial;
                  });
  };
  OpenLoop queries(c.engine(), t0, kQueryPeriod, kSpan / kQueryPeriod, query);

  // Events stop a second before the end so every one can land.
  std::uint64_t publishes = 0, published = 0;
  const auto publish = [&](sim::SimTime) {
    ++publishes;
    kernel::Event ev;
    ev.type = kEventType;
    ev.partition = net::PartitionId{2};
    publisher.publish(std::move(ev), [&published](auto res) {
      if (res.ok()) ++published;
    });
  };
  OpenLoop events(c.engine(), t0, kPublishPeriod,
                  (kSpan - kRefresh) / kPublishPeriod, publish);

  // GridView refreshes on its own 1 s timer; check each refresh half a
  // period after it is due.
  std::uint64_t polls = 0, bad_refreshes = 0;
  std::uint64_t seen = view.refreshes_completed();
  std::uint32_t partitions_min = kPartitions;
  const auto poll = [&](sim::SimTime) {
    ++polls;
    const std::uint64_t now_seen = view.refreshes_completed();
    const std::uint32_t included = view.last_partitions_included();
    partitions_min = std::min(partitions_min, included);
    if (now_seen == seen || included < kPartitions) ++bad_refreshes;
    seen = now_seen;
  };
  OpenLoop refresh_checks(c.engine(), t0 + kRefresh / 2, kRefresh, kSpan / kRefresh,
                          poll);

  c.engine().run_for(kSpan);
  phase.end(kSpan);

  fault_metrics(k.fault_log(), t0, t0, r);
  request_metrics(log, r);
  std::vector<const kernel::KernelApi*> apis = {&querier, &publisher};
  for (const auto& s : subscribers) apis.push_back(s.get());
  api_metrics(apis, log.issued + publishes, r);
  r.det["gridview.refreshes"] =
      static_cast<double>(view.refreshes_completed() - refreshes0);
  r.det["gridview.partitions_min"] = partitions_min;
  r.det["es.received"] = static_cast<double>(received);
  r.check(r.det["db.deltas_dropped"] == 0, "bulletin dropped detector deltas");
  r.check(bad_refreshes == 0,
          "a GridView refresh missed partitions or never completed");
  r.check(received == published * kPartitions,
          "a published event did not reach every partition's subscriber");

  r.attempted = log.issued + polls;
  r.failed = log.failed + partial + bad_refreshes;
  return r;
}

}  // namespace perfbench
