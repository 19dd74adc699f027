// pws_flash: a 100k-tenant flash crowd on PWS, with the scheduler daemon
// killed once inside the flash window (paper §5.4, PWS high availability).
//
// 4 partitions x 128 compute nodes. The tenant_load trace of the full
// pws_gateway bench: base 1,000 jobs/s, 10x in [20 s, 30 s), spammers, 3%
// immediate cancels. About 99% of submissions go through the
// SubmissionGateway (10 ms window, 10 ms checkpoint window, token buckets at
// 2/s burst 16); every 100th goes as a per-job PwsSubmitMsg RPC. The
// scheduler dies at 25 s and the GSD restarts it from its checkpoint. The
// measured phase is the 60 s trace plus a 15 s drain.
#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "faults/fault_injector.h"
#include "faults/scenario.h"
#include "pws/gateway.h"
#include "pws/pws.h"
#include "workload/tenant_load.h"
#include "workloads.h"

namespace perfbench {

namespace pws = phoenix::pws;
namespace workload = phoenix::workload;

namespace {

constexpr std::uint32_t kPartitions = 4;
constexpr sim::SimTime kHorizon = 60 * sim::kSecond;
constexpr sim::SimTime kDrain = 15 * sim::kSecond;
constexpr sim::SimTime kKillAt = 25 * sim::kSecond;
constexpr std::size_t kPerJobEvery = 100;  // every 100th submission is a per-job RPC

/// Per-job submission client: one PwsSubmitMsg RPC per job, retransmitted
/// with the gateway's schedule (2 s, 4 retries) while no reply arrives — a
/// submission sent to the dead scheduler is silently lost, not refused.
class PerJobClient final : public cluster::Daemon {
 public:
  using Verdict = std::function<void(const pws::BatchSubmitResult&)>;

  PerJobClient(cluster::Cluster& c, net::NodeId node, net::Address scheduler)
      : Daemon(c, "bench.perjob", node, cluster::ports::kClient),
        scheduler_(scheduler) {
    start();
  }

  void submit(const pws::SubmitRequest& request, Verdict verdict) {
    auto msg = std::make_shared<pws::PwsSubmitMsg>();
    msg->request = request;
    msg->reply_to = address();
    msg->request_id = next_id_++;
    const std::uint64_t id = msg->request_id;
    pending_.emplace(id, Pending{std::move(msg), std::move(verdict)});
    transmit(id);
  }

  void cancel(pws::JobId job) {
    auto msg = std::make_shared<pws::PwsCancelMsg>();
    msg->job_id = job;
    msg->reply_to = address();
    msg->request_id = next_id_++;
    send_any(scheduler_, std::move(msg));
  }

  std::uint64_t retries() const noexcept { return retries_; }

 private:
  static constexpr sim::SimTime kRetryTimeout = 2 * sim::kSecond;
  static constexpr int kMaxRetries = 4;

  struct Pending {
    std::shared_ptr<pws::PwsSubmitMsg> msg;
    Verdict verdict;
    int attempts = 0;
    sim::EventId timer{};
  };

  void transmit(std::uint64_t id) {
    Pending& p = pending_.at(id);
    ++p.attempts;
    send_any(scheduler_, p.msg);
    p.timer = engine().schedule_after(kRetryTimeout, [this, id] { on_timeout(id); });
  }

  void on_timeout(std::uint64_t id) {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    if (it->second.attempts > kMaxRetries) {
      const Verdict verdict = std::move(it->second.verdict);
      pending_.erase(it);
      verdict({0, pws::SubmitStatus::kUnavailable});
      return;
    }
    ++retries_;
    transmit(id);
  }

  void handle(const net::Envelope& env) override {
    const auto* reply = net::message_cast<pws::PwsSubmitReplyMsg>(*env.message);
    if (reply == nullptr) return;
    auto it = pending_.find(reply->request_id);
    if (it == pending_.end()) return;
    engine().cancel(it->second.timer);
    const Verdict verdict = std::move(it->second.verdict);
    pending_.erase(it);
    pws::BatchSubmitResult result{reply->job_id, pws::SubmitStatus::kAccepted};
    if (!reply->accepted) {
      const bool denied =
          reply->reason == pws::to_string(pws::SubmitStatus::kAdmissionDenied);
      result.status = denied ? pws::SubmitStatus::kAdmissionDenied
                             : pws::SubmitStatus::kUnknownPool;
    }
    verdict(result);
  }

  net::Address scheduler_;
  std::uint64_t next_id_ = 1;
  std::uint64_t retries_ = 0;
  std::unordered_map<std::uint64_t, Pending> pending_;
};

double jain_index(const std::vector<std::uint32_t>& submitted,
                  const std::vector<std::uint32_t>& accepted) {
  double sum = 0, sum_sq = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    if (submitted[i] == 0) continue;
    const double x =
        static_cast<double>(accepted[i]) / static_cast<double>(submitted[i]);
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  if (n == 0 || sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(n) * sum_sq);
}

}  // namespace

Report run_pws_flash(const Options& opt) {
  Report r;
  workload::TenantLoadParams load;
  load.tenant_count = 100'000;
  load.base_rate = 1000.0;
  load.horizon = kHorizon;
  load.flashes = {{20 * sim::kSecond, 30 * sim::kSecond, 10.0}};
  load.spammer_fraction = 0.001;
  load.spammer_boost = 100.0;
  load.cancel_fraction = 0.03;
  load.cancel_delay = 1 * sim::kMillisecond;
  load.mean_duration_s = 0.02;
  load.min_duration_s = 0.005;
  load.seed = opt.seed;
  const std::vector<workload::TenantEvent> trace = workload::generate_tenant_load(load);

  cluster::ClusterSpec spec;
  spec.partitions = kPartitions;
  spec.computes_per_partition = 128;
  spec.backups_per_partition = 0;
  spec.seed = opt.seed;
  cluster::Cluster c(spec);
  kernel::PhoenixKernel k(c);
  phoenix::faults::FaultInjector injector(c);
  k.boot();

  pws::PwsConfig config;
  pws::PoolConfig pool;
  pool.name = "batch";
  pool.policy = pws::SchedPolicy::kFifo;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    for (net::NodeId n : c.compute_nodes(net::PartitionId{p})) pool.nodes.push_back(n);
  }
  config.pools = {pool};
  config.retain_terminal_jobs = false;
  config.checkpoint_interval = 10 * sim::kMillisecond;
  config.admission_rate = 2.0;
  config.admission_burst = 16.0;
  pws::PwsSystem system(k, config);
  c.engine().run_for(2 * sim::kSecond);

  const net::NodeId client_node = c.compute_nodes(net::PartitionId{0})[0];
  pws::GatewayConfig gw_config;
  gw_config.scheduler = system.scheduler().address();
  pws::SubmissionGateway gateway(c, client_node, gw_config);
  PerJobClient perjob(c, client_node, system.scheduler().address());

  // Verdict bookkeeping, shared by both submission paths.
  std::vector<std::uint32_t> submitted(load.tenant_count, 0);
  std::vector<std::uint32_t> accepted(load.tenant_count, 0);
  std::vector<std::uint8_t> verdicts(trace.size(), 0);  // per submission
  RequestLog log;
  std::uint64_t accepted_total = 0, denied = 0, unavailable = 0, cancel_requests = 0;
  // A job id acknowledged twice means the restarted scheduler re-issued an
  // id it had already acknowledged: the first acknowledgement was lost.
  std::unordered_set<pws::JobId> acked;
  std::uint64_t reused_ids = 0;
  const auto on_verdict = [&](std::size_t i, sim::SimTime due,
                              const pws::BatchSubmitResult& res) {
    ++verdicts[i];
    ++log.completed;
    switch (res.status) {
      case pws::SubmitStatus::kAccepted:
        ++accepted_total;
        ++accepted[trace[i].tenant];
        if (!acked.insert(res.job_id).second) ++reused_ids;
        log.latency_us.push_back(c.now() - due);
        break;
      case pws::SubmitStatus::kAdmissionDenied:
        ++denied;
        break;
      case pws::SubmitStatus::kUnavailable:
        ++unavailable;
        break;
      default:
        break;
    }
  };
  std::unordered_map<pws::SubmissionGateway::Ticket, pws::JobId> job_of;
  std::unordered_set<pws::SubmissionGateway::Ticket> cancel_wanted;

  const sim::SimTime t0 = c.now();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const workload::TenantEvent& ev = trace[i];
    const sim::SimTime due = t0 + ev.arrival;
    c.engine().schedule_at(due, [&, i, due] {
      const workload::TenantEvent& e = trace[i];
      log.dispatched(due, c.now());
      ++submitted[e.tenant];
      pws::SubmitRequest req;
      req.name = "j" + std::to_string(i);
      req.user = workload::tenant_name(e.tenant);
      req.pool = "batch";
      req.nodes = e.nodes;
      req.duration = e.duration;
      const bool will_cancel = e.cancel_after > 0;
      if (i % kPerJobEvery == kPerJobEvery - 1) {
        perjob.submit(req, [&, i, due, will_cancel](const pws::BatchSubmitResult& res) {
          on_verdict(i, due, res);
          if (res.status != pws::SubmitStatus::kAccepted || !will_cancel) return;
          c.engine().schedule_after(trace[i].cancel_after, [&, job = res.job_id] {
            ++cancel_requests;
            perjob.cancel(job);
          });
        });
        return;
      }
      const auto ticket = gateway.submit(
          req, [&, i, due, will_cancel](pws::SubmissionGateway::Ticket tk,
                                         const pws::BatchSubmitResult& res) {
            on_verdict(i, due, res);
            if (res.status != pws::SubmitStatus::kAccepted || !will_cancel) return;
            if (cancel_wanted.erase(tk) > 0) {
              ++cancel_requests;
              gateway.cancel_job(res.job_id);
            } else {
              job_of[tk] = res.job_id;
            }
          });
      if (!will_cancel) return;
      c.engine().schedule_after(e.cancel_after, [&, ticket] {
        if (gateway.cancel(ticket)) return;  // absorbed in the window
        auto it = job_of.find(ticket);
        if (it != job_of.end()) {
          ++cancel_requests;
          gateway.cancel_job(it->second);
          job_of.erase(it);
        } else {
          cancel_wanted.insert(ticket);  // verdict still in flight
        }
      });
    });
  }

  const sim::SimTime kill_at = t0 + kKillAt;
  phoenix::faults::Scenario kill;
  kill.kill_daemon(system.scheduler());
  kill.apply(injector, kill_at);

  std::optional<DeliveryTracer> tracer;
  if (opt.traced) tracer.emplace();
  if (stop_after_setup(opt, r)) return r;

  Phase phase(c, k, tracer ? &*tracer : nullptr, r);
  c.engine().run_until(kill_at);
  const net::NetworkStats at_kill = c.fabric().total_stats();
  c.engine().run_until(t0 + kHorizon + kDrain);
  phase.end(kHorizon + kDrain);

  const pws::PwsScheduler& sched = system.scheduler();
  const pws::PwsStats& stats = sched.stats();
  const std::uint64_t terminal =
      stats.completed + stats.cancelled + stats.failed + stats.timed_out;
  const std::uint64_t unfinished =
      accepted_total > terminal ? accepted_total - terminal : 0;
  r.det["ckpt.save_bytes_post_fault"] = static_cast<double>(
      c.fabric().total_stats().bytes_by_type.get("ckpt.save") -
      at_kill.bytes_by_type.get("ckpt.save"));
  fault_metrics(k.fault_log(), kill_at, kill_at, r);
  request_metrics(log, r);
  const pws::GatewayStats& gw = gateway.stats();
  r.det["pws_gw.batches"] = static_cast<double>(gw.batches_sent);
  r.det["pws_gw.retries"] = static_cast<double>(gw.retries + perjob.retries());
  r.det["pws_gw.absorbed_cancels"] = static_cast<double>(gw.absorbed_cancels);
  r.det["pws.submissions"] = static_cast<double>(trace.size());
  r.det["pws.accepted"] = static_cast<double>(accepted_total);
  r.det["pws.denied"] = static_cast<double>(denied);
  r.det["pws.unavailable"] = static_cast<double>(unavailable);
  r.det["pws.cancel_requests"] = static_cast<double>(cancel_requests);
  r.det["pws.completed"] = static_cast<double>(stats.completed);
  r.det["pws.unfinished"] = static_cast<double>(unfinished);
  r.det["pws.running_at_end"] = static_cast<double>(sched.running_count());
  r.det["pws.reused_job_ids"] = static_cast<double>(reused_ids);
  const double fairness = jain_index(submitted, accepted);
  r.det["pws.fairness"] = fairness;

  const bool one_verdict_each = std::all_of(
      verdicts.begin(), verdicts.end(), [](std::uint8_t v) { return v == 1; });
  r.check(one_verdict_each, "a submission did not get exactly one verdict");
  r.check(fairness >= 0.9, "Jain fairness over tenant acceptance below 0.9");

  // Admission denials of spammers are policy, not failures.
  r.attempted = trace.size();
  r.failed = unavailable + unfinished;
  return r;
}

}  // namespace perfbench
