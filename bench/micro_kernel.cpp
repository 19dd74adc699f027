// Micro-benchmarks of the kernel primitives behind Figures 3-5: meta-group
// view operations and one view change's fan-out, event publish -> delivery,
// data-bulletin ingest/query, checkpoint save/load, PWS checkpoint encoding,
// one detector sample, and the discrete-event engine itself. These measure the implementation's real
// CPU cost (google-benchmark), complementing the simulated-time experiments
// in the table benches.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "faults/fault_injector.h"
#include "kernel/kernel.h"
#include "pws/job.h"

using namespace phoenix;

namespace {

cluster::ClusterSpec bench_spec(std::size_t partitions) {
  cluster::ClusterSpec spec;
  spec.partitions = partitions;
  spec.computes_per_partition = 14;
  spec.backups_per_partition = 1;
  return spec;
}

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(static_cast<sim::SimTime>(i), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleRun);

// The boot's checkpoint-fetch storm in miniature: range(0) deliveries in
// flight at once, each due 40-60 us out (the fabric's base latency with its
// +-20% jitter), and each handler arming one timer 1 s out, as a fetch
// arms its delayed reply. One iteration schedules the storm and runs every
// delivery and every timer.
void BM_EngineFanout(benchmark::State& state) {
  const auto in_flight = static_cast<std::size_t>(state.range(0));
  std::size_t timers = 0;
  for (auto _ : state) {
    sim::Engine engine;
    timers = 0;
    for (std::size_t i = 0; i < in_flight; ++i) {
      engine.schedule_after(40 + engine.rng().next() % 21, [&engine, &timers] {
        engine.schedule_after(sim::kSecond, [&timers] { ++timers; });
      });
    }
    benchmark::DoNotOptimize(engine.run());
  }
  if (timers != in_flight) state.SkipWithError("a delivery or its timer did not run");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * in_flight));
}
BENCHMARK(BM_EngineFanout)
    ->Arg(1000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->ArgName("in_flight")
    ->Unit(benchmark::kMillisecond);

void BM_KernelBoot(benchmark::State& state) {
  const auto partitions = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    cluster::Cluster cluster(bench_spec(partitions));
    kernel::PhoenixKernel kernel(cluster);
    kernel.boot();
    benchmark::DoNotOptimize(kernel.partition_count());
  }
  state.SetLabel(std::to_string(partitions * 16) + " nodes");
}
BENCHMARK(BM_KernelBoot)->Arg(2)->Arg(8)->Arg(40);

void BM_SimulatedMinute(benchmark::State& state) {
  // Real CPU cost of simulating one minute of a running cluster.
  const auto partitions = static_cast<std::size_t>(state.range(0));
  cluster::Cluster cluster(bench_spec(partitions));
  kernel::PhoenixKernel kernel(cluster);
  kernel.boot();
  for (auto _ : state) {
    cluster.engine().run_for(60 * sim::kSecond);
  }
  state.SetLabel(std::to_string(partitions * 16) + " nodes");
}
BENCHMARK(BM_SimulatedMinute)->Arg(2)->Arg(8)->Arg(40);

void BM_EventPublishDeliver(benchmark::State& state) {
  cluster::Cluster cluster(bench_spec(4));
  kernel::PhoenixKernel kernel(cluster);
  kernel.boot();
  cluster.engine().run_for(5 * sim::kSecond);
  auto& es = kernel.event_service(net::PartitionId{0});
  const auto consumers = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < consumers; ++i) {
    kernel::Subscription sub;
    sub.consumer = {net::NodeId{3}, net::PortId{static_cast<std::uint16_t>(100 + i)}};
    sub.types = {"bench.event"};
    es.subscribe_local(sub, /*replicate=*/false);
  }
  for (auto _ : state) {
    kernel::Event e;
    e.type = "bench.event";
    es.publish_local(e);
    // Drain the deliveries (they dead-letter: no daemons bound). A bounded
    // run, not run(): the kernel's periodic timers never empty the queue.
    cluster.engine().run_for(5 * sim::kMillisecond);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(consumers));
}
BENCHMARK(BM_EventPublishDeliver)->Arg(1)->Arg(16)->Arg(256);

void BM_BulletinIngest(benchmark::State& state) {
  cluster::Cluster cluster(bench_spec(2));
  kernel::PhoenixKernel kernel(cluster);
  kernel.boot();
  auto& db = kernel.bulletin(net::PartitionId{0});
  kernel::NodeRecord record;
  record.node = net::NodeId{2};
  record.partition = net::PartitionId{0};
  std::uint32_t i = 0;
  for (auto _ : state) {
    record.node = net::NodeId{2 + (i++ % 14)};
    db.report_local(record, {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BulletinIngest);

void BM_BulletinLocalQuery(benchmark::State& state) {
  cluster::Cluster cluster(bench_spec(2));
  kernel::PhoenixKernel kernel(cluster);
  kernel.boot();
  auto& db = kernel.bulletin(net::PartitionId{0});
  for (std::uint32_t n = 0; n < 256; ++n) {
    kernel::NodeRecord record;
    record.node = net::NodeId{n};
    record.partition = net::PartitionId{0};
    db.report_local(record, {});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.node_rows());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_BulletinLocalQuery);

void BM_CheckpointSaveLoad(benchmark::State& state) {
  cluster::Cluster cluster(bench_spec(2));
  kernel::PhoenixKernel kernel(cluster);
  kernel.boot();
  auto& cs = kernel.checkpoint_service(net::PartitionId{0});
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    cs.save_local("bench", "key", data, /*replicate=*/false);
    benchmark::DoNotOptimize(cs.load_local("bench", "key"));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointSaveLoad)->Arg(128)->Arg(4096)->Arg(1 << 16);

void BM_MetaViewSerialize(benchmark::State& state) {
  kernel::MetaView view;
  view.view_id = 42;
  for (std::uint32_t p = 0; p < static_cast<std::uint32_t>(state.range(0)); ++p) {
    view.members.push_back(kernel::MetaMember{
        net::PartitionId{p}, {net::NodeId{p * 17}, net::PortId{2}}, p});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel::MetaView::deserialize(view.serialize()));
  }
}
BENCHMARK(BM_MetaViewSerialize)->Arg(8)->Arg(40)->Arg(128);

// One flat-ring view change among range(0) partitions: the leader takes a
// join that re-incarnates its last member, sends the new view to every
// member, and every GSD applies and checkpoints it (10 ms of simulated time
// delivers the fan-out and the saves). The error check: every GSD's stored
// view is the view it holds.
void BM_ViewChangeFanout(benchmark::State& state) {
  const auto partitions = static_cast<std::uint32_t>(state.range(0));
  cluster::ClusterSpec spec = bench_spec(partitions);
  spec.computes_per_partition = 0;
  cluster::Cluster cluster(spec);
  kernel::PhoenixKernel kernel(cluster);
  kernel.boot();
  cluster.engine().run_for(5 * sim::kSecond);
  kernel::GroupServiceDaemon& leader =
      kernel.gsd(kernel.gsd(net::PartitionId{0}).view().leader()->partition);
  for (auto _ : state) {
    auto join = std::make_shared<kernel::MetaJoinMsg>();
    join->member = leader.view().members.back();
    ++join->member.incarnation;
    const net::Address from = join->member.gsd;
    leader.deliver(
        net::Envelope{from, leader.address(), net::NetworkId{0}, std::move(join)});
    cluster.engine().run_for(10 * sim::kMillisecond);
  }
  for (std::uint32_t p = 0; p < partitions; ++p) {
    const net::PartitionId id{p};
    const auto stored = kernel.checkpoint_service(id).load_local(
        "gsd/" + std::to_string(p), "view");
    if (!stored || stored->str() != kernel.gsd(id).view().serialize()) {
      state.SkipWithError("a GSD's stored view differs from the view it holds");
      break;
    }
  }
}
BENCHMARK(BM_ViewChangeFanout)
    ->Arg(256)
    ->Arg(1024)
    ->ArgName("partitions")
    ->Unit(benchmark::kMillisecond);

// One PWS checkpoint of a job table of range(0) rows, 170 of which changed
// since the previous one (pws_flash's shape after its scheduler kill): a
// window of consecutive ids moves through the table, as a draining FIFO
// backlog does. range(1) == 0 re-encodes the whole table (serialize_jobs),
// 1 only the blocks holding a changed row (pws::JobRows).
void BM_PwsSnapshot(benchmark::State& state) {
  const auto rows = static_cast<pws::JobId>(state.range(0));
  const bool incremental = state.range(1) != 0;
  std::map<pws::JobId, pws::Job> jobs;
  for (pws::JobId id = 1; id <= rows; ++id) {
    pws::Job& job = jobs[id];
    job.name = "j" + std::to_string(id);
    job.user = "tenant" + std::to_string(id % 997);
    job.pool = "batch";
    job.duration = 30 * sim::kSecond;
    job.submitted_at = id * sim::kMillisecond;
  }
  pws::JobRows encoder;
  encoder.encode(jobs);
  pws::JobId next = 1;
  sim::SimTime clock = 0;
  for (auto _ : state) {
    ++clock;
    for (int i = 0; i < 170; ++i) {
      pws::Job& job = jobs[next];
      job.state = job.state == pws::JobState::kQueued ? pws::JobState::kRunning
                                                     : pws::JobState::kQueued;
      job.started_at = clock;
      encoder.changed(next);
      next = next % rows + 1;
    }
    const std::string data =
        incremental ? encoder.encode(jobs) : pws::serialize_jobs(jobs);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  if (encoder.encode(jobs) != pws::serialize_jobs(jobs)) {
    state.SkipWithError("JobRows::encode differs from serialize_jobs");
  }
}
BENCHMARK(BM_PwsSnapshot)
    ->ArgsProduct({{1000, 10000, 30000}, {0, 1}})
    ->ArgNames({"rows", "incremental"});

// One application-state detector sample on a node that has run range(0)
// past 20 ms jobs, one every 40 ms under 1 s samples. The detector and PPM
// run without a kernel (no directory), so a sample walks the process table
// and ships nothing. Past jobs cost a sample nothing once they are reaped.
void BM_DetectorSample(benchmark::State& state) {
  cluster::Cluster cluster(bench_spec(1));
  kernel::FtParams params;
  params.detector_sample_interval = 1 * sim::kSecond;
  const net::NodeId node = cluster.compute_nodes(net::PartitionId{0})[0];
  kernel::ProcessManager ppm(cluster, node, params, nullptr);
  kernel::DetectorDaemon detector(cluster, node, params, nullptr);
  ppm.start();
  detector.start();
  for (std::int64_t job = 0; job < state.range(0); ++job) {
    ppm.spawn_local(kernel::ProcessSpec{"job", "alice", 1.0, 20 * sim::kMillisecond, 0});
    cluster.engine().run_for(40 * sim::kMillisecond);
  }
  for (auto _ : state) detector.sample_now();
  const cluster::Node& sampled = cluster.node(node);
  if (sampled.process_table().size() != sampled.running_process_count()) {
    state.SkipWithError("a terminal entry outlived the sample that reported it");
  }
}
BENCHMARK(BM_DetectorSample)->Arg(0)->Arg(2000)->Arg(8000)->ArgName("past_jobs");

void BM_FaultDetectionCycle(benchmark::State& state) {
  // Real CPU cost of a full WD-kill detect/diagnose/recover cycle at 1 s
  // heartbeats on a 2-partition cluster.
  for (auto _ : state) {
    cluster::Cluster cluster(bench_spec(2));
    kernel::FtParams params;
    params.heartbeat_interval = 1 * sim::kSecond;
    kernel::PhoenixKernel kernel(cluster, params);
    kernel.boot();
    cluster.engine().run_for(3 * sim::kSecond);
    faults::FaultInjector injector(cluster);
    injector.kill_daemon(kernel.watch_daemon(net::NodeId{3}));
    cluster.engine().run_for(5 * sim::kSecond);
    benchmark::DoNotOptimize(kernel.fault_log().records().size());
  }
}
BENCHMARK(BM_FaultDetectionCycle);

}  // namespace

BENCHMARK_MAIN();
