// Client-side submission gateway (DESIGN.md §13).
//
// A flash crowd of tenants — the paper's 1M-user grid scenario — must not
// translate into one scheduler RPC per job. The gateway sits next to the
// users (a portal front-end, in the paper's terms) and coalesces their
// submissions into PwsSubmitBatchMsg windows:
//
//   - a time/size window (flush_interval, max_batch) bounds both the added
//     latency and the batch wire size;
//   - batch assembly is weighted deficit-round-robin across tenants, so one
//     job-spamming tenant cannot monopolize a window — every backlogged
//     tenant drains in proportion to its weight;
//   - a cancel that arrives while its submission is still queued locally is
//     absorbed in the gateway (the scheduler never sees either message);
//   - each batch is a call of the daemon's cluster::RpcClient, resent every
//     2 s until its reply arrives (at most five sends, kUnavailable at
//     10 s); the scheduler's ReplayCache makes the retransmit idempotent,
//     so a lost reply costs a retry, not duplicate jobs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/daemon.h"
#include "cluster/rpc_client.h"
#include "obs/metrics.h"
#include "pws/scheduler.h"

namespace phoenix::pws {

struct GatewayConfig {
  /// The PWS scheduler this gateway feeds.
  net::Address scheduler;
  /// Batch window: a flush fires every interval while work is queued.
  sim::SimTime flush_interval = 10 * sim::kMillisecond;
  /// Jobs per batch message; a window with more backlog sends several.
  std::size_t max_batch = 256;
  /// Fair-queuing weight for tenants not listed in tenant_weights.
  double default_weight = 1.0;
  /// Per-tenant fair-queuing weights (user name -> weight).
  std::map<std::string, double> tenant_weights;
};

struct GatewayStats {
  std::uint64_t submitted = 0;         // tickets issued
  std::uint64_t absorbed_cancels = 0;  // cancelled before ever being sent
  std::uint64_t batches_sent = 0;      // first transmissions
  std::uint64_t retries = 0;           // retransmissions
  std::uint64_t replies = 0;           // batch replies consumed
  std::uint64_t accepted = 0;          // per-job kAccepted verdicts
  std::uint64_t denied = 0;            // per-job kAdmissionDenied verdicts
  std::uint64_t failed = 0;            // per-job kUnavailable (budget spent)
  std::uint64_t cancels_sent = 0;      // remote cancels shipped in batches
};

class SubmissionGateway final : public cluster::Daemon {
 public:
  /// Gateway-local handle for a submission; valid until its callback runs.
  using Ticket = std::uint64_t;
  /// Invoked exactly once per ticket with the final verdict (the job id is
  /// 0 unless status == kAccepted).
  using SubmitCallback = std::function<void(Ticket, const BatchSubmitResult&)>;

  SubmissionGateway(cluster::Cluster& cluster, net::NodeId node,
                    GatewayConfig config);
  ~SubmissionGateway() override;

  /// Queues a submission into the current window. The callback fires when
  /// the scheduler's verdict arrives (or the retry budget is spent).
  Ticket submit(const SubmitRequest& request, SubmitCallback callback = {});

  /// Absorbs a submission that is still queued locally: its callback fires
  /// with kCancelled and nothing is ever sent. False once it left in a
  /// batch — cancel the job by id (from the callback) instead.
  bool cancel(Ticket ticket);

  /// Queues a remote cancellation for an already-scheduled job; batched
  /// and retried like submissions.
  void cancel_job(JobId id);

  /// Sends every assembled batch now instead of waiting for the window.
  void flush();

  GatewayStats stats() const noexcept {
    GatewayStats s = stats_;
    s.retries = rpc_.retries_sent();
    return s;
  }
  /// Submissions queued locally, not yet shipped.
  std::size_t backlog() const noexcept { return backlog_; }
  /// Batches on the wire awaiting a reply.
  std::size_t inflight() const noexcept { return rpc_.pending_calls(); }

 private:
  struct PendingItem {
    Ticket ticket = 0;
    SubmitRequest request;
    SubmitCallback callback;
    sim::SimTime created_at = 0;
  };
  struct TenantQueue {
    std::deque<PendingItem> items;
    double weight = 1.0;
    double deficit = 0.0;
    bool active = false;  // already listed in active_
  };
  void handle(const net::Envelope& env) override;
  void on_start() override;
  void on_stop() override;

  TenantQueue& tenant(const std::string& user);
  std::vector<PendingItem> assemble_batch();
  void send_batch(std::vector<PendingItem> items);
  void send_cancel_batch();
  void finish_item(const PendingItem& item, const BatchSubmitResult& result);

  GatewayConfig config_;
  std::unordered_map<std::uint32_t, TenantQueue> tenants_;  // user SymbolId ->
  std::vector<std::uint32_t> active_;  // activation order: deterministic DRR
  std::unordered_map<Ticket, std::uint32_t> ticket_tenant_;
  std::vector<JobId> pending_cancels_;
  std::size_t backlog_ = 0;
  Ticket next_ticket_ = 1;
  GatewayStats stats_;  // all but retries, which the client counts
  cluster::RpcClient rpc_;

  obs::Registry* metrics_ = nullptr;
  obs::Histogram* submit_latency_us_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Counter* batches_ctr_ = nullptr;
  obs::Counter* absorbed_ctr_ = nullptr;
  std::uint64_t probe_id_ = 0;

  sim::PeriodicTask ticker_;
};

}  // namespace phoenix::pws
