#include "probe.h"

#include <algorithm>
#include <cmath>

#include "cluster/daemon.h"

namespace perfbench {

namespace {

constexpr std::size_t kTypeSlots = 4096;  // far above the interned type count

}  // namespace

double percentile_ms(std::vector<sim::SimTime> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size());
  const std::size_t idx =
      std::min(samples.size() - 1, static_cast<std::size_t>(rank));
  const sim::SimTime v = samples[idx];
  const auto lo = std::lower_bound(samples.begin(), samples.end(), v);
  const auto hi = std::upper_bound(samples.begin(), samples.end(), v);
  const double below = static_cast<double>(lo - samples.begin());
  const double ties = static_cast<double>(hi - lo);
  const double within = std::clamp((rank - below) / ties, 0.0, 1.0);
  return (static_cast<double>(v) - 0.5 + within) / 1000.0;
}

// --- DeliveryTracer ------------------------------------------------------------

const std::array<const char*, DeliveryTracer::kKinds> DeliveryTracer::kKindNames =
    {"client", "wd",     "gsd",      "es",       "ckpt",      "db",       "ppm",
     "config", "security", "detector", "pws_sched", "gridview", "pws_gw", "api"};

const std::array<const char*, DeliveryTracer::kFamilies>
    DeliveryTracer::kFamilyNames = {"group", "meta",    "ckpt",    "db",
                                    "es",    "ppm",     "pws",     "service",
                                    "runtime", "config", "security", "other"};

DeliveryTracer::DeliveryTracer()
    : by_type_(kTypeSlots, 0), family_cache_(kTypeSlots, -1) {}

std::size_t DeliveryTracer::kind_of(net::PortId port) const {
  namespace ports = cluster::ports;
  const auto p = port.value;
  if (p == ports::kWatchDaemon.value) return 1;
  if (p == ports::kGroupService.value) return 2;
  if (p == ports::kEventService.value) return 3;
  if (p == ports::kCheckpointService.value) return 4;
  if (p == ports::kDataBulletin.value) return 5;
  if (p == ports::kProcessManager.value) return 6;
  if (p == ports::kConfiguration.value) return 7;
  if (p == ports::kSecurity.value) return 8;
  if (p == ports::kDetector.value) return 9;
  if (p == ports::kPwsScheduler.value) return 10;
  if (p == ports::kGridView.value) return 11;
  if (p == ports::kPwsGateway.value) return 12;
  if (p >= 30) return 13;  // KernelApi endpoints bind caller-chosen ports >= 30
  return 0;                // the benchmark's own client daemons
}

std::size_t DeliveryTracer::family_of_name(std::string_view type) {
  const std::string_view prefix = type.substr(0, type.find('.'));
  for (std::size_t f = 0; f + 1 < kFamilies; ++f) {
    if (prefix == kFamilyNames[f]) return f;
  }
  return kFamilies - 1;
}

std::size_t DeliveryTracer::family_of(net::MessageTypeId id) {
  std::int8_t& slot = family_cache_[id.value < kTypeSlots ? id.value : 0];
  if (slot < 0) {
    slot = static_cast<std::int8_t>(family_of_name(net::message_type_name(id)));
  }
  return static_cast<std::size_t>(slot);
}

void DeliveryTracer::install(cluster::Cluster& cluster) {
  cluster.fabric().set_delivery_handler([this, &cluster](const net::Envelope& env) {
    cluster::Daemon* d = cluster.daemon_at(env.to);
    if (d == nullptr || !d->alive()) {
      ++dead_letters_;
      return;
    }
    const net::MessageTypeId type = env.message->type_id();
    ++by_type_[type.value < kTypeSlots ? type.value : 0];
    ++family_deliveries_[family_of(type)];
    const std::size_t kind = kind_of(env.to.port);
    const auto t0 = Clock::now();
    d->deliver(env);
    ns_[kind] += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - t0)
                     .count();
    ++deliveries_[kind];
  });
}

double DeliveryTracer::delivery_seconds() const {
  std::int64_t total = 0;
  for (std::int64_t ns : ns_) total += ns;
  return static_cast<double>(total) * 1e-9;
}

std::uint64_t DeliveryTracer::delivered_of_type(std::string_view type) const {
  const net::MessageTypeId id = net::find_message_type(type);
  return id.valid() && id.value < kTypeSlots ? by_type_[id.value] : 0;
}

void DeliveryTracer::report(Report& r) const {
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::string kind = kKindNames[k];
    r.traced[kind + ".deliveries"] = static_cast<double>(deliveries_[k]);
    r.host[kind + ".self_s"] = static_cast<double>(ns_[k]) * 1e-9;
  }
  for (std::size_t f = 0; f < kFamilies; ++f) {
    r.traced[std::string("delivered.") + kFamilyNames[f]] =
        static_cast<double>(family_deliveries_[f]);
  }
  r.traced["ckpt.fetch_msgs"] = static_cast<double>(delivered_of_type("ckpt.fetch"));
  r.det["cluster.dead_letters"] = static_cast<double>(dead_letters_);
}

// --- Phase -----------------------------------------------------------------------

namespace {

void add_kernel_counters(kernel::PhoenixKernel& k, double sign,
                         std::map<std::string, double>& out) {
  if (!k.daemons_created()) return;
  auto add = [&](const char* name, double v) { out[name] += sign * v; };
  auto runtime = [&](const kernel::ServiceRuntime& s) {
    const kernel::RuntimeCounters& c = s.counters();
    add("runtime.snapshots_saved", static_cast<double>(c.snapshots_saved));
    add("runtime.restores", static_cast<double>(c.restores));
    add("runtime.takeovers", static_cast<double>(c.takeovers));
    add("runtime.fenced", static_cast<double>(c.fenced_rejections));
    add("runtime.replays", static_cast<double>(s.replay_cache().replays_served()));
  };
  cluster::Cluster& c = k.cluster();
  for (std::uint32_t p = 0; p < c.spec().partitions; ++p) {
    const net::PartitionId part{p};
    kernel::GroupServiceDaemon& gsd = k.gsd(part);
    kernel::EventService& es = k.event_service(part);
    kernel::DataBulletin& db = k.bulletin(part);
    runtime(gsd);
    runtime(es);
    runtime(k.checkpoint_service(part));
    runtime(db);
    add("group.regroup_rounds", static_cast<double>(gsd.regroup_rounds()));
    add("es.published", static_cast<double>(es.published_count()));
    add("db.deltas_dropped", static_cast<double>(db.deltas_dropped()));
    add("db.duplicate_queries", static_cast<double>(db.duplicate_queries()));
  }
  for (std::uint32_t n = 0; n < c.node_count(); ++n) {
    const net::NodeId node{n};
    kernel::DetectorDaemon& det = k.detector(node);
    runtime(k.watch_daemon(node));
    runtime(det);
    runtime(k.ppm(node));
    add("detector.full_reports", static_cast<double>(det.full_reports_sent()));
    add("detector.delta_reports", static_cast<double>(det.delta_reports_sent()));
  }
  runtime(k.config());
  runtime(k.security());
}

}  // namespace

Phase::Phase(cluster::Cluster& cluster, kernel::PhoenixKernel& kernel,
             DeliveryTracer* tracer, Report& report)
    : cluster_(cluster), kernel_(kernel), tracer_(tracer), report_(report) {
  add_kernel_counters(kernel_, -1.0, kernel0_);
  net0_ = cluster_.fabric().total_stats();
  dead0_ = cluster_.dead_letters();
  events0_ = cluster_.engine().executed();
  report_.setup_s = seconds_between(process_start(), Clock::now());
  if (tracer_ != nullptr) tracer_->install(cluster_);
  allocs0_ = heap_allocs();
  wall0_ = Clock::now();
}

void Phase::end(sim::SimTime span) {
  const auto wall1 = Clock::now();
  const std::uint64_t allocs1 = heap_allocs();
  Report& r = report_;
  r.wall_s = seconds_between(wall0_, wall1);
  r.det["heap.allocs"] = static_cast<double>(allocs1 - allocs0_);
  r.det["sim.events"] = static_cast<double>(cluster_.engine().executed() - events0_);

  const net::NetworkStats net1 = cluster_.fabric().total_stats();
  const double msgs = static_cast<double>(net1.messages_sent - net0_.messages_sent);
  const double bytes = static_cast<double>(net1.bytes_sent - net0_.bytes_sent);
  r.det["net.msgs"] = msgs;
  r.det["net.bytes"] = bytes;
  r.det["net.lost"] = static_cast<double>(net1.messages_lost - net0_.messages_lost);
  r.det["net.dropped"] =
      static_cast<double>(net1.messages_dropped - net0_.messages_dropped);
  for (const char* family : DeliveryTracer::kFamilyNames) {
    r.det[std::string("bytes.") + family] = 0;
  }
  for (const auto& [type, count] : net1.bytes_by_type) {
    const std::size_t f = DeliveryTracer::family_of_name(type);
    r.det[std::string("bytes.") + DeliveryTracer::kFamilyNames[f]] +=
        static_cast<double>(count - net0_.bytes_by_type.get(type));
  }
  r.det["ckpt.load_reply_bytes"] = static_cast<double>(
      net1.bytes_by_type.get("ckpt.load_reply") -
      net0_.bytes_by_type.get("ckpt.load_reply"));
  r.det["ckpt.save_bytes"] = static_cast<double>(
      net1.bytes_by_type.get("ckpt.save") - net0_.bytes_by_type.get("ckpt.save"));

  const double node_s =
      static_cast<double>(cluster_.node_count()) * sim::to_seconds(span);
  r.det["msgs_per_node_s"] = msgs / node_s;
  r.det["bytes_per_node_s"] = bytes / node_s;

  std::map<std::string, double> kernel1;
  add_kernel_counters(kernel_, 1.0, kernel1);
  for (const auto& [name, v] : kernel0_) kernel1[name] += v;
  for (const auto& [name, v] : kernel1) r.det[name] = v;
  // State sizes at the end of the phase (not deltas).
  double rows = 0, entries = 0;
  for (std::uint32_t p = 0; p < cluster_.spec().partitions; ++p) {
    const kernel::DataBulletin& db = kernel_.bulletin(net::PartitionId{p});
    rows += static_cast<double>(db.node_row_count() + db.app_row_count());
    entries += static_cast<double>(
        kernel_.checkpoint_service(net::PartitionId{p}).entry_count());
  }
  r.det["db.rows"] = rows;
  r.det["ckpt.entries"] = entries;

  if (tracer_ != nullptr) {
    tracer_->report(r);
    r.host["sim.self_s"] = r.wall_s - tracer_->delivery_seconds();
  } else {
    r.det["cluster.dead_letters"] =
        static_cast<double>(cluster_.dead_letters() - dead0_);
  }
}

// --- faults and requests ------------------------------------------------------------

std::uint64_t fault_metrics(const kernel::FaultLog& log, sim::SimTime since,
                            sim::SimTime injected_at, Report& r) {
  double detect = 0, diagnose = 0, repair = 0;
  std::uint64_t records = 0, recovered = 0;
  sim::SimTime last = injected_at;
  for (const kernel::FaultRecord& rec : log.records()) {
    if (rec.detected_at < since) continue;
    ++records;
    detect += sim::to_seconds(rec.detected_at - injected_at);
    diagnose += sim::to_seconds(rec.diagnosed_at - rec.detected_at);
    if (!rec.recovered) continue;
    ++recovered;
    repair += sim::to_seconds(rec.recovered_at - rec.diagnosed_at);
    last = std::max(last, rec.recovered_at);
  }
  r.det["faults.records"] = static_cast<double>(records);
  r.det["faults.unrecovered"] = static_cast<double>(records - recovered);
  r.det["faults.detect_s"] = records ? detect / static_cast<double>(records) : 0.0;
  r.det["faults.diagnose_s"] = records ? diagnose / static_cast<double>(records) : 0.0;
  r.det["faults.repair_s"] = recovered ? repair / static_cast<double>(recovered) : 0.0;
  r.det["faults.recover_s"] = recovered ? sim::to_seconds(last - injected_at) : 0.0;
  return records - recovered;
}

void request_metrics(const RequestLog& log, Report& r) {
  r.det["request_p50_ms"] = percentile_ms(log.latency_us, 0.50);
  r.det["request_p99_ms"] = percentile_ms(log.latency_us, 0.99);
  r.det["requests.samples"] = static_cast<double>(log.latency_us.size());
  r.det["requests.late"] = static_cast<double>(log.late);
  r.check(log.late == 0, "open-loop generator dispatched a request late");
  r.check(log.completed == log.issued, "a request never completed");
}

}  // namespace perfbench
