#include "pws/scheduler.h"

#include <algorithm>
#include <utility>

#include "kernel/ppm/process_manager.h"

namespace phoenix::pws {

using kernel::ServiceKind;

namespace {
constexpr std::size_t kNoPool = static_cast<std::size_t>(-1);
/// Attempts of the restart's checkpoint load and bulletin reconcile.
constexpr int kRestartAttempts = 5;
}  // namespace

PwsScheduler::PwsScheduler(cluster::Cluster& cluster, net::NodeId node,
                           kernel::PhoenixKernel& kernel, PwsConfig config)
    : ServiceRuntime(cluster, "pws.scheduler", node, cluster::ports::kPwsScheduler,
                     &kernel, &kernel.params(),
                     // The scheduler reports up and restores on restart
                     // itself (on_service_start), not through the runtime.
                     Options{.partition = cluster.partition_of(node),
                             .checkpoint_namespace = "pws",
                             .checkpoint_key = "jobs",
                             .extension = "pws.scheduler"}),
      config_(std::move(config)),
      attempt_wait_(2 * sim::kSecond + kernel.params().checkpoint_federation_fetch),
      ticker_(cluster.engine(), config_.schedule_tick, [this] { schedule_pass(); }) {
  // A gateway retry arrives 2 s (SubmissionGateway's resend interval) after its
  // batch, behind hundreds of newer batches when the gateway is backlogged:
  // keep 4x the runtime's default entries so the retry still replays.
  replay_cache() = net::ReplayCache{1024};
  for (const auto& pool_config : config_.pools) pools_.emplace_back(pool_config);
  // Name order, matching the historical std::map<string, Pool> iteration.
  std::sort(pools_.begin(), pools_.end(),
            [](const Pool& a, const Pool& b) { return a.name() < b.name(); });
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    pool_index_[net::intern_symbol(pools_[i].name()).value] = i;
    for (net::NodeId n : pools_[i].owned_nodes()) {
      const bool node_alive = cluster.node(n).alive();
      slots_[n.value] = NodeSlot{static_cast<std::int32_t>(i), -1, 0, node_alive};
      if (node_alive) pools_[i].free_nodes().insert(n.value);
    }
  }
  pool_dirty_.assign(pools_.size(), 1);  // first pass looks at everything

  metrics_ = &cluster.metrics();
  schedule_latency_us_ = metrics_->histogram("pws.schedule_latency_us");
  batch_size_hist_ = metrics_->histogram("pws.batch_size");
  probe_id_ = metrics_->register_probe([this](obs::Registry& r) {
    if (!alive()) return;  // a migrated-away instance must not clobber gauges
    r.gauge("pws.queue_depth")->set(static_cast<double>(queued_jobs_));
    r.gauge("pws.running")->set(static_cast<double>(running_jobs_));
    r.gauge("pws.jobs_tracked")->set(static_cast<double>(jobs_.size()));
    r.gauge("pws.submitted")->set(static_cast<double>(stats_.submitted));
    r.gauge("pws.admission_denied")
        ->set(static_cast<double>(stats_.admission_denied));
    r.gauge("pws.batches")->set(static_cast<double>(stats_.batches));
    r.gauge("pws.cancelled")->set(static_cast<double>(stats_.cancelled));
  });

  on<PwsSubmitMsg>([this](const PwsSubmitMsg& submit) { handle_submit(submit); });
  on<PwsSubmitBatchMsg>([this](const PwsSubmitBatchMsg& batch) {
    serve_mutating(batch, [&] {
      auto reply = std::make_shared<PwsSubmitBatchReplyMsg>();
      reply->request_id = batch.request_id;
      reply->results.reserve(batch.requests.size());
      for (const auto& request : batch.requests) {
        reply->results.push_back(submit_internal(request));
      }
      ++stats_.batches;
      if (metrics_->enabled()) batch_size_hist_->record(batch.requests.size());
      mark_dirty(config_.checkpoint_interval);  // one for the whole batch
      request_pass_soon();
      return reply;
    });
  });
  on<PwsCancelBatchMsg>([this](const PwsCancelBatchMsg& batch) {
    serve_mutating(batch, [&] {
      auto reply = std::make_shared<PwsCancelBatchReplyMsg>();
      reply->request_id = batch.request_id;
      reply->cancelled.reserve(batch.job_ids.size());
      for (const JobId id : batch.job_ids) {
        reply->cancelled.push_back(cancel(id) ? 1 : 0);
      }
      return reply;
    });
  });
  on<PwsQueryMsg>([this](const PwsQueryMsg& query) {
    serve_idempotent(query, [&] {
      auto reply = std::make_shared<PwsQueryReplyMsg>();
      reply->request_id = query.request_id;
      for (const auto& [id, job] : jobs_) {
        if (query.job_id != 0 && id != query.job_id) continue;
        if (!query.user.empty() && job.user != query.user) continue;
        reply->jobs.push_back(job);
      }
      return reply;
    });
  });
  on<PwsCancelMsg>([this](const PwsCancelMsg& cancel_msg) {
    auto reply = std::make_shared<PwsCancelReplyMsg>();
    reply->request_id = cancel_msg.request_id;
    reply->cancelled = cancel(cancel_msg.job_id);
    send_any(cancel_msg.reply_to, std::move(reply));
  });
  on<kernel::ExitNotifyMsg>([this](const kernel::ExitNotifyMsg& exit) {
    complete_process(exit.pid, exit.node);
  });
  on<kernel::EsNotifyMsg>([this](const kernel::EsNotifyMsg& notify) {
    const kernel::Event& e = notify.event;
    if (e.type == kernel::event_types::kNodeFailed) {
      handle_node_failed(e.subject_node);
    } else if (e.type == kernel::event_types::kNodeRecovered) {
      handle_node_recovered(e.subject_node);
    }
  });
}

PwsScheduler::~PwsScheduler() {
  if (metrics_ != nullptr && probe_id_ != 0) metrics_->unregister_probe(probe_id_);
}

void PwsScheduler::on_service_start() {
  ticker_.set_period(config_.schedule_tick);
  ticker_.start_after(config_.schedule_tick);
  subscribe_events();
  if (started_before_) {
    recover_state();
  } else {
    announce_up();
  }
  started_before_ = true;
}

void PwsScheduler::on_service_stop() { ticker_.stop(); }

void PwsScheduler::subscribe_events() {
  kernel::Subscription sub;
  sub.consumer = address();
  sub.types = {std::string(kernel::event_types::kNodeFailed),
               std::string(kernel::event_types::kNodeRecovered)};
  auto msg = std::make_shared<kernel::EsSubscribeMsg>();
  msg->subscription = std::move(sub);
  send_any(partition_service(ServiceKind::kEventService), std::move(msg));
}

// --- submission ---------------------------------------------------------------

JobId PwsScheduler::submit(const SubmitRequest& request) {
  const BatchSubmitResult result = submit_internal(request);
  if (result.status == SubmitStatus::kAccepted) {
    mark_dirty(config_.checkpoint_interval);
  }
  return result.job_id;
}

bool PwsScheduler::admit_tenant(net::SymbolId user) {
  if (config_.admission_rate <= 0.0) return true;
  auto [it, inserted] = buckets_.try_emplace(user.value);
  TokenBucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = config_.admission_burst;  // a new tenant starts full
  } else {
    bucket.tokens = std::min(
        config_.admission_burst,
        bucket.tokens + config_.admission_rate *
                            sim::to_seconds(now() - bucket.last_refill));
  }
  bucket.last_refill = now();
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

SubmitStatus PwsScheduler::refusal(const SubmitRequest& request) {
  // A job the checkpoint cannot carry would be acknowledged, then lost by
  // the next restore.
  if (!fits_job_row(request)) return SubmitStatus::kMalformed;
  if (!admit_tenant(net::intern_symbol(request.user))) {
    ++stats_.admission_denied;
    return SubmitStatus::kAdmissionDenied;
  }
  return SubmitStatus::kAccepted;
}

Job& PwsScheduler::record_job(const SubmitRequest& request, JobState state) {
  Job job;
  job.id = next_job_id_++;
  job.name = request.name.empty() ? "job" + std::to_string(job.id) : request.name;
  job.user = request.user;
  job.pool = request.pool;
  job.nodes_needed = std::max(1u, request.nodes);
  job.duration = request.duration;
  job.priority = request.priority;
  job.walltime_limit = request.walltime_limit;
  job.arch = request.arch;
  job.after_ok = request.after_ok;
  job.state = state;
  job.submitted_at = now();
  job.user_sym = net::intern_symbol(request.user);
  job.pool_sym = net::intern_symbol(request.pool);
  const JobId id = job.id;
  rows_.changed(id);
  return jobs_.emplace(id, std::move(job)).first->second;
}

SubmitStatus PwsScheduler::queue_job(Job& job) {
  const JobId id = job.id;
  rows_.changed(id);  // every outcome writes the job's state
  const std::size_t pool_index = pool_index_of(job.pool_sym);
  if (pool_index == kNoPool) {
    job.state = JobState::kRejected;
    ++stats_.rejected;
    retire_if_unretained(id);
    return SubmitStatus::kUnknownPool;
  }
  if (job.after_ok != 0) {
    auto dep = jobs_.find(job.after_ok);
    if (dep != jobs_.end() && !dep->second.terminal()) {
      dependents_[job.after_ok].push_back(id);
    }
  }
  job.state = JobState::kQueued;
  pools_[pool_index].enqueue(job, usage_of_sym(job.user_sym));
  ++queued_jobs_;
  ++stats_.submitted;
  mark_pool_dirty(pool_index);
  return SubmitStatus::kAccepted;
}

BatchSubmitResult PwsScheduler::submit_internal(const SubmitRequest& request) {
  const SubmitStatus refused = refusal(request);
  if (refused != SubmitStatus::kAccepted) return {0, refused};
  Job& job = record_job(request, JobState::kQueued);
  const JobId id = job.id;
  return {id, queue_job(job)};
}

void PwsScheduler::reply_submit(net::Address reply_to, std::uint64_t request_id,
                                BatchSubmitResult result, std::string reason) {
  if (!reply_to.valid()) return;
  auto reply = std::make_shared<PwsSubmitReplyMsg>();
  reply->request_id = request_id;
  reply->accepted = result.status == SubmitStatus::kAccepted;
  reply->job_id = result.job_id;
  if (!reply->accepted && reason.empty()) reason = to_string(result.status);
  reply->reason = std::move(reason);
  send_any(reply_to, std::move(reply));
}

bool PwsScheduler::cancel(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.terminal()) return false;
  Job& job = it->second;
  if (job.state == JobState::kQueued) {
    const std::size_t pool_index = pool_index_of(job.pool_sym);
    if (pool_index != kNoPool) {
      Pool& pool = pools_[pool_index];
      const bool had_pending = pool.has_pending();
      pool.remove(id);
      if (had_pending && !pool.has_pending()) pool_drained(pool_index);
    }
  } else if (job.state == JobState::kRunning) {
    release(job, net::NodeId{});
  }
  ++stats_.cancelled;
  finish_job(job, JobState::kCancelled);
  return true;
}

void PwsScheduler::request_pass_soon() {
  if (pass_pending_) return;
  pass_pending_ = true;
  engine().schedule_after(config_.batch_pass_delay, [this] {
    pass_pending_ = false;
    schedule_pass();
  });
}

// --- scheduling -----------------------------------------------------------------

std::string PwsScheduler::effective_pool(net::NodeId node) const {
  auto it = slots_.find(node.value);
  if (it == slots_.end()) return {};
  const std::int32_t index = effective_pool_index(it->second);
  return index < 0 ? std::string{} : pools_[static_cast<std::size_t>(index)].name();
}

bool PwsScheduler::is_leased(net::NodeId node) const {
  auto it = slots_.find(node.value);
  return it != slots_.end() && it->second.leased_to >= 0;
}

std::vector<net::NodeId> PwsScheduler::free_nodes_of(std::size_t pool_index,
                                                    const std::string& arch,
                                                    std::size_t limit) const {
  // The free set holds only idle, live nodes serving this pool, in node-id
  // order — the same order the historical whole-cluster slot scan produced.
  std::vector<net::NodeId> out;
  const auto& free = pools_[pool_index].free_nodes();
  out.reserve(std::min(limit, free.size()));
  for (const std::uint32_t node_value : free) {
    if (out.size() == limit) break;
    if (!arch.empty() &&
        cluster().node(net::NodeId{node_value}).arch() != arch) {
      continue;  // architecture constraint (heterogeneous clusters)
    }
    out.push_back(net::NodeId{node_value});
  }
  return out;
}

std::size_t PwsScheduler::borrow_nodes(std::size_t borrower, std::size_t deficit) {
  Pool& pool = pools_[borrower];
  if (!pool.config().allow_borrowing) return 0;
  std::size_t borrowed = 0;
  for (std::size_t li = 0; li < pools_.size() && borrowed < deficit; ++li) {
    if (li == borrower) continue;
    Pool& lender = pools_[li];
    if (!lender.config().allow_lending) continue;
    // Only lend nodes the owner is not about to use itself.
    if (lender.has_pending()) continue;
    auto& lender_free = lender.free_nodes();
    for (auto it = lender_free.begin();
         it != lender_free.end() && borrowed < deficit;) {
      NodeSlot& slot = slots_[*it];
      // Leased-in capacity is not re-lendable; only the lender's own nodes.
      if (slot.owner_pool != static_cast<std::int32_t>(li) ||
          slot.leased_to >= 0) {
        ++it;
        continue;
      }
      slot.leased_to = static_cast<std::int32_t>(borrower);
      pool.free_nodes().insert(*it);
      it = lender_free.erase(it);
      ++borrowed;
      ++stats_.leases_granted;
    }
  }
  return borrowed;
}

sim::SimTime PwsScheduler::shadow_time(const Job& head, std::size_t pool_index,
                                       std::size_t available) const {
  // Earliest time the head job could start: walk running jobs serving this
  // pool in completion order, accumulating freed nodes.
  const auto target = static_cast<std::int32_t>(pool_index);
  std::vector<std::pair<sim::SimTime, unsigned>> completions;
  for (const JobId id : running_ids_) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != JobState::kRunning) continue;
    const Job& job = it->second;
    unsigned nodes_in_pool = 0;
    for (net::NodeId n : job.allocated) {
      auto slot = slots_.find(n.value);
      if (slot != slots_.end() && effective_pool_index(slot->second) == target) {
        ++nodes_in_pool;
      }
    }
    if (nodes_in_pool > 0) {
      completions.emplace_back(job.started_at + job.duration, nodes_in_pool);
    }
  }
  std::sort(completions.begin(), completions.end());
  for (const auto& [finish, freed] : completions) {
    available += freed;
    if (available >= head.nodes_needed) return finish;
  }
  return sim::kNever;
}

void PwsScheduler::mark_pool_dirty(std::size_t pool_index) {
  if (pool_index < pool_dirty_.size()) pool_dirty_[pool_index] = 1;
}

void PwsScheduler::schedule_pass() {
  if (!alive()) return;
  enforce_walltime();
  // One in-(name-)order sweep over the pools something actually happened to.
  // Marks set mid-sweep for a later pool are honored this pass (the full
  // scan would have reached them anyway); marks for an earlier pool wait
  // for the next tick, exactly like the historical single ordered pass.
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (!pool_dirty_[i]) continue;
    pool_dirty_[i] = 0;
    scan_pool(i);
  }
  mark_dirty(config_.checkpoint_interval);
}

void PwsScheduler::scan_pool(std::size_t pool_index) {
  Pool& pool = pools_[pool_index];
  pool.refresh(jobs_, [this](const Job& j) { return usage_of_sym(j.user_sym); });
  auto& pending = pool.pending();
  const bool had_pending = !pending.empty();

  // One compacting pass: entries that stay queued move down to `kept`, in
  // order; started and dropped ones are simply not kept. Nothing below
  // touches this pool's pending index, so the gap in between is never seen.
  std::size_t kept = 0;
  std::size_t i = 0;
  bool head_blocked = false;
  sim::SimTime head_shadow = sim::kNever;
  for (; i < pending.size(); ++i) {
    auto job_it = jobs_.find(pending[i].id);
    if (job_it == jobs_.end() || job_it->second.terminal()) continue;
    Job& job = job_it->second;

    // Dependency gate ("afterok"): wait for the dependency to complete;
    // cancel this job if the dependency ended any other way.
    if (job.after_ok != 0) {
      const auto dep = jobs_.find(job.after_ok);
      const bool dep_ok =
          dep != jobs_.end() && dep->second.state == JobState::kCompleted;
      const bool dep_dead =
          dep == jobs_.end() ||
          (dep->second.terminal() && dep->second.state != JobState::kCompleted);
      if (dep_dead) {
        job.state = JobState::kCancelled;
        job.finished_at = now();
        rows_.changed(job.id);
        --queued_jobs_;
        ++stats_.cancelled;
        const JobId dead = job.id;
        wake_dependents(dead);
        retire_if_unretained(dead);
        continue;
      }
      if (!dep_ok) {
        pending[kept++] = pending[i];  // dependency pending: skip, not block
        continue;
      }
    }

    if (head_blocked) {
      // EASY backfill: later jobs may run if they fit now and finish
      // before the head's reserved start.
      if (pool.policy() != SchedPolicy::kBackfill) break;
      if (now() + job.duration > head_shadow) {
        pending[kept++] = pending[i];
        continue;
      }
    }

    std::vector<net::NodeId> free =
        free_nodes_of(pool_index, job.arch, job.nodes_needed);
    if (free.size() < job.nodes_needed) {
      const std::size_t got =
          borrow_nodes(pool_index, job.nodes_needed - free.size());
      if (got > 0) free = free_nodes_of(pool_index, job.arch, job.nodes_needed);
    }
    if (free.size() < job.nodes_needed) {
      if (!head_blocked) {
        head_blocked = true;
        // Only backfill reads the head's reserved start.
        if (pool.policy() == SchedPolicy::kBackfill) {
          head_shadow = shadow_time(job, pool_index, free.size());
        }
      }
      pending[kept++] = pending[i];
      continue;
    }

    start_job(job, std::move(free), pool);
  }
  // Close the gap; an unscanned tail (after a non-backfill break) moves
  // down once.
  pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(kept),
                pending.begin() + static_cast<std::ptrdiff_t>(i));
  if (had_pending && pending.empty()) pool_drained(pool_index);
}

void PwsScheduler::start_job(Job& job, std::vector<net::NodeId> nodes,
                             Pool& pool) {
  rows_.changed(job.id);
  job.allocated = std::move(nodes);
  --queued_jobs_;
  ++running_jobs_;
  running_ids_.insert(job.id);
  job.state = JobState::kRunning;
  job.started_at = now();
  stats_.total_wait_seconds += sim::to_seconds(now() - job.submitted_at);
  if (metrics_->enabled()) {
    schedule_latency_us_->record(
        static_cast<std::uint64_t>(now() - job.submitted_at));
  }
  for (net::NodeId n : job.allocated) {
    slots_[n.value].running_job = job.id;
    pool.free_nodes().erase(n.value);
  }
  if (job.walltime_limit > 0) {
    expiry_.push({job.started_at + job.walltime_limit, job.id});
  }
  launch(job);
}

void PwsScheduler::enforce_walltime() {
  // Pop the expiry min-heap instead of scanning the job table: O(expired).
  // Entries are lazily invalidated — a requeued job pushed a fresh entry at
  // its relaunch, so a stale one fails revalidation and is dropped.
  std::vector<JobId> victims;
  while (!expiry_.empty() && expiry_.top().first < now()) {
    const JobId id = expiry_.top().second;
    expiry_.pop();
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    const Job& job = it->second;
    if (job.state != JobState::kRunning || job.walltime_limit == 0) continue;
    if (now() > job.started_at + job.walltime_limit) victims.push_back(id);
  }
  // Kill in job-id order (the historical job-table scan order).
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  for (const JobId id : victims) {
    Job& job = jobs_.at(id);
    if (job.state != JobState::kRunning) continue;
    release(job, net::NodeId{});
    ++stats_.timed_out;
    finish_job(job, JobState::kTimedOut);
  }
}

net::CallOptions PwsScheduler::call_options(int attempts) const {
  // No call outlives kRestartAttempts waits.
  return {.deadline = kRestartAttempts * attempt_wait_,
          .max_retries = attempts - 1,
          .rto = attempt_wait_};
}

void PwsScheduler::launch(Job& job) {
  for (net::NodeId n : job.allocated) {
    auto spawn = std::make_shared<kernel::SpawnMsg>();
    spawn->spec.name = job.name;
    spawn->spec.owner = job.user;
    spawn->spec.cpu_share = static_cast<double>(cluster().node(n).cpus());
    spawn->spec.duration = job.duration;
    spawn->reply_to = address();
    spawn->exit_notify = address();
    rpc().call<kernel::SpawnReplyMsg>(
        std::move(spawn), {n, kernel::port_of(ServiceKind::kProcessManager)},
        [this, id = job.id, n](net::Result<const kernel::SpawnReplyMsg*> spawned) {
          if (!spawned || !spawned.value->ok) return;
          auto job_it = jobs_.find(id);
          if (job_it == jobs_.end()) return;
          job_it->second.pids[n.value] = spawned.value->pid;
          rows_.changed(id);
          pid_to_job_[spawned.value->pid] = id;
          mark_dirty(config_.checkpoint_interval);
        },
        call_options(1), "spawn");
  }
}

void PwsScheduler::complete_process(cluster::Pid pid, net::NodeId node) {
  auto map_it = pid_to_job_.find(pid);
  if (map_it == pid_to_job_.end()) return;
  const JobId job_id = map_it->second;
  pid_to_job_.erase(map_it);

  auto job_it = jobs_.find(job_id);
  if (job_it == jobs_.end()) return;
  Job& job = job_it->second;
  if (job.state != JobState::kRunning) return;
  ++job.exited;
  rows_.changed(job_id);
  usage_[job.user_sym.value] += sim::to_seconds(job.duration);
  // Fair-share ordering keys drift with usage; re-rank those pools' queues.
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (pools_[i].policy() == SchedPolicy::kFairShare && pools_[i].has_pending()) {
      mark_pool_dirty(i);
    }
  }

  auto slot = slots_.find(node.value);
  if (slot != slots_.end() && slot->second.running_job == job_id) {
    free_slot(node.value, slot->second);
  }
  if (job.exited >= job.allocated.size()) {
    finish_job(job, JobState::kCompleted);
    // Freed nodes may unblock queued work without waiting a full tick. In
    // the batched configuration one coalesced prompt pass covers a whole
    // crop of completions; the historical path schedules one per job.
    if (config_.checkpoint_interval > 0) {
      request_pass_soon();
    } else {
      engine().schedule_after(1 * sim::kMillisecond, [this] { schedule_pass(); });
    }
  }
}

void PwsScheduler::finish_job(Job& job, JobState final_state) {
  if (job.state == JobState::kRunning) {
    --running_jobs_;
    running_ids_.erase(job.id);
  } else if (job.state == JobState::kQueued) {
    --queued_jobs_;
  }
  job.state = final_state;
  job.finished_at = now();
  rows_.changed(job.id);
  if (final_state == JobState::kCompleted) ++stats_.completed;
  if (final_state == JobState::kFailed) ++stats_.failed;
  const JobId id = job.id;
  wake_dependents(id);
  retire_if_unretained(id);  // `job` may dangle past this point
  mark_dirty(config_.checkpoint_interval);
}

void PwsScheduler::free_slot(std::uint32_t node_value, NodeSlot& slot) {
  slot.running_job = 0;
  slot.leased_to = -1;  // leased capacity returns to its owner
  if (slot.node_alive && slot.owner_pool >= 0) {
    const auto owner = static_cast<std::size_t>(slot.owner_pool);
    pools_[owner].free_nodes().insert(node_value);
    capacity_freed(owner);
  }
}

void PwsScheduler::capacity_freed(std::size_t owner_index) {
  mark_pool_dirty(owner_index);
  if (!pools_[owner_index].has_pending()) pool_drained(owner_index);
}

void PwsScheduler::pool_drained(std::size_t pool_index) {
  if (!pools_[pool_index].config().allow_lending) return;
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (i == pool_index) continue;
    if (pools_[i].config().allow_borrowing && pools_[i].has_pending()) {
      mark_pool_dirty(i);
    }
  }
}

void PwsScheduler::wake_dependents(JobId id) {
  auto it = dependents_.find(id);
  if (it == dependents_.end()) return;
  const std::vector<JobId> waiters = std::move(it->second);
  dependents_.erase(it);
  const auto self = jobs_.find(id);
  const bool completed =
      self != jobs_.end() && self->second.state == JobState::kCompleted;
  for (const JobId waiter : waiters) {
    auto waiter_it = jobs_.find(waiter);
    if (waiter_it == jobs_.end() || waiter_it->second.terminal()) continue;
    Job& dependent = waiter_it->second;
    // With terminal jobs retired from the table, the scan could no longer
    // tell "dependency completed then vanished" from "never existed" — so
    // release the gate here, before the dependency is retired.
    if (completed && !config_.retain_terminal_jobs) {
      dependent.after_ok = 0;
      rows_.changed(waiter);
    }
    const std::size_t pool_index = pool_index_of(dependent.pool_sym);
    if (pool_index != kNoPool) mark_pool_dirty(pool_index);
  }
}

void PwsScheduler::retire_if_unretained(JobId id) {
  if (config_.retain_terminal_jobs) return;
  auto it = jobs_.find(id);
  if (it == jobs_.end() || !it->second.terminal()) return;
  dependents_.erase(id);
  jobs_.erase(it);
  rows_.changed(id);
}

void PwsScheduler::handle_node_failed(net::NodeId node) {
  auto slot_it = slots_.find(node.value);
  if (slot_it == slots_.end()) return;
  NodeSlot& slot = slot_it->second;
  if (slot.running_job == 0 && slot.node_alive) {
    // Dead capacity serves nobody: drop it from its pool's free set.
    const std::int32_t serving = effective_pool_index(slot);
    if (serving >= 0) {
      pools_[static_cast<std::size_t>(serving)].free_nodes().erase(node.value);
    }
  }
  slot.node_alive = false;
  const JobId victim = slot.running_job;
  slot.running_job = 0;
  slot.leased_to = -1;
  if (victim == 0) return;

  auto job_it = jobs_.find(victim);
  if (job_it == jobs_.end() || job_it->second.state != JobState::kRunning) return;
  Job& job = job_it->second;
  release(job, node);
  requeue_or_fail(job);
}

void PwsScheduler::release(Job& job, net::NodeId dead) {
  for (const auto& [node_value, pid] : job.pids) {
    pid_to_job_.erase(pid);
    if (node_value == dead.value) continue;  // died with its node
    auto kill = std::make_shared<kernel::KillMsg>();
    kill->pid = pid;
    send_any({net::NodeId{node_value}, kernel::port_of(ServiceKind::kProcessManager)},
             std::move(kill));
  }
  for (net::NodeId n : job.allocated) {
    auto slot = slots_.find(n.value);
    if (slot != slots_.end() && slot->second.running_job == job.id) {
      free_slot(n.value, slot->second);
    }
  }
}

void PwsScheduler::requeue_or_fail(Job& job) {
  rows_.changed(job.id);
  job.allocated.clear();
  job.pids.clear();
  job.exited = 0;
  if (job.requeues < config_.max_requeues) {
    ++job.requeues;
    ++stats_.requeued;
    if (job.state == JobState::kRunning) {
      --running_jobs_;
      running_ids_.erase(job.id);
    }
    job.state = JobState::kQueued;
    ++queued_jobs_;
    const std::size_t pool_index = pool_index_of(job.pool_sym);
    if (pool_index != kNoPool) {
      pools_[pool_index].enqueue_front(job, usage_of_sym(job.user_sym));
      mark_pool_dirty(pool_index);
    }
    mark_dirty(config_.checkpoint_interval);
  } else {
    finish_job(job, JobState::kFailed);
  }
}

// --- state persistence ------------------------------------------------------------

void PwsScheduler::recover_state() {
  // Not the runtime's recover-on-start loop: that one draws its load ids
  // from the engine's shared RNG, which would shift every later draw.
  auto load = std::make_shared<kernel::CheckpointLoadMsg>();
  load->service = options().checkpoint_namespace;
  load->key = options().checkpoint_key;
  load->reply_to = address();
  rpc().call<kernel::CheckpointLoadReplyMsg>(
      std::move(load), partition_service(ServiceKind::kCheckpointService),
      [this](net::Result<const kernel::CheckpointLoadReplyMsg*> loaded) {
        if (!alive()) return;
        // Nothing saved, or every attempt lost: come up without it.
        if (!loaded || !loaded.value->found) {
          announce_up();
          return;
        }
        jobs_ = deserialize_jobs(loaded.value->data.str());
        rows_.reset();
        rebuild_after_restore();
        reconcile_with_bulletin();
      },
      call_options(kRestartAttempts), "restore");
}

void PwsScheduler::rebuild_after_restore() {
  // Volatile indexes are rebuilt from the recovered job table; the slot
  // table keeps its in-memory lease/liveness state (only running_job marks
  // are re-derived). An in-place restart reuses this object, so its pending
  // indexes still hold the pre-kill queue: every queued job is re-enqueued
  // below, and a second entry would start it twice.
  for (auto& pool : pools_) {
    pool.pending().clear();
    pool.free_nodes().clear();
  }
  running_ids_.clear();
  expiry_ = {};
  dependents_.clear();
  pid_to_job_.clear();
  queued_jobs_ = 0;
  running_jobs_ = 0;

  for (auto& [id, job] : jobs_) {
    job.user_sym = net::intern_symbol(job.user);
    job.pool_sym = net::intern_symbol(job.pool);
    if (id >= next_job_id_) next_job_id_ = id + 1;
    if (job.state == JobState::kRunning) {
      for (net::NodeId n : job.allocated) {
        auto slot = slots_.find(n.value);
        if (slot != slots_.end()) slot->second.running_job = id;
      }
      for (const auto& [node_value, pid] : job.pids) pid_to_job_[pid] = id;
      ++running_jobs_;
      running_ids_.insert(id);
      if (job.walltime_limit > 0) {
        expiry_.push({job.started_at + job.walltime_limit, id});
      }
    } else if (job.state == JobState::kQueued ||
               job.state == JobState::kAuthorizing) {
      job.state = JobState::kQueued;
      const std::size_t pool_index = pool_index_of(job.pool_sym);
      if (pool_index != kNoPool) {
        pools_[pool_index].enqueue(job, usage_of_sym(job.user_sym));
      }
      ++queued_jobs_;
      if (job.after_ok != 0) {
        auto dep = jobs_.find(job.after_ok);
        if (dep != jobs_.end() && !dep->second.terminal()) {
          dependents_[job.after_ok].push_back(id);
        }
      }
    }
  }
  for (const auto& [node_value, slot] : slots_) {
    if (slot.node_alive && slot.running_job == 0) {
      const std::int32_t serving = effective_pool_index(slot);
      if (serving >= 0) {
        pools_[static_cast<std::size_t>(serving)].free_nodes().insert(node_value);
      }
    }
  }
  pool_dirty_.assign(pools_.size(), 1);  // everything is suspect after recovery
}

void PwsScheduler::reconcile_with_bulletin() {
  // Running jobs may have finished while we were down; ask the bulletin
  // federation which application processes still exist. Without an
  // answer the scheduler comes up unreconciled.
  auto query = std::make_shared<kernel::DbQueryMsg>();
  query->table = kernel::BulletinTable::kApps;
  query->cluster_scope = true;
  query->reply_to = address();
  rpc().call<kernel::DbQueryReplyMsg>(
      std::move(query), partition_service(ServiceKind::kDataBulletin),
      [this](net::Result<const kernel::DbQueryReplyMsg*> reply) {
        if (!alive()) return;
        if (reply) handle_reconcile_reply(*reply.value);
        announce_up();
      },
      call_options(kRestartAttempts), "reconcile");
}

// --- message handling ------------------------------------------------------------

void PwsScheduler::handle_submit(const PwsSubmitMsg& submit) {
  if (!config_.use_security) {
    const BatchSubmitResult result = submit_internal(submit.request);
    if (result.status == SubmitStatus::kAccepted) {
      mark_dirty(config_.checkpoint_interval);
    }
    reply_submit(submit.reply_to, submit.request_id, result);
    return;
  }
  // A request the checkpoint cannot carry, or its tenant's bucket cannot
  // pay for, is refused before it is ever authorized.
  const SubmitStatus refused = refusal(submit.request);
  if (refused != SubmitStatus::kAccepted) {
    reply_submit(submit.reply_to, submit.request_id, {0, refused});
    return;
  }
  const JobId id = record_job(submit.request, JobState::kAuthorizing).id;
  auto authz = std::make_shared<kernel::AuthzRequestMsg>();
  authz->token = submit.token;
  authz->action = "job.submit";
  authz->resource = "pool/" + submit.request.pool;
  authz->reply_to = address();
  rpc().call<kernel::AuthzReplyMsg>(
      std::move(authz),
      directory()->service_address(ServiceKind::kSecurity, net::PartitionId{0}),
      [this, id, reply_to = submit.reply_to, caller = submit.request_id](
          net::Result<const kernel::AuthzReplyMsg*> authz_reply) {
        finish_authz(id, reply_to, caller, authz_reply);
      },
      call_options(1), "authorize");
}

void PwsScheduler::finish_authz(JobId id, net::Address reply_to,
                                std::uint64_t caller_request_id,
                                net::Result<const kernel::AuthzReplyMsg*> authz) {
  if (!alive()) return;
  auto job_it = jobs_.find(id);
  // Cancelled while the verdict was in flight (and retired with it, if
  // terminal jobs are not retained): the job stays cancelled.
  if (job_it == jobs_.end() || job_it->second.state != JobState::kAuthorizing) {
    reply_submit(reply_to, caller_request_id, {id, SubmitStatus::kCancelled});
    return;
  }
  if (authz && authz.value->allowed) {
    const SubmitStatus status = queue_job(job_it->second);
    mark_dirty(config_.checkpoint_interval);
    reply_submit(reply_to, caller_request_id, {id, status});
    return;
  }
  // An unanswered authorization is a refusal, not a job that waits forever.
  std::string reason =
      authz ? authz.value->reason : std::string(net::to_string(authz.status));
  ++stats_.rejected;
  finish_job(job_it->second, JobState::kRejected);
  reply_submit(reply_to, caller_request_id, {id, SubmitStatus::kAuthDenied},
               std::move(reason));
}

void PwsScheduler::handle_node_recovered(net::NodeId node) {
  auto slot_it = slots_.find(node.value);
  if (slot_it == slots_.end() || slot_it->second.node_alive) return;
  slot_it->second.node_alive = true;
  if (slot_it->second.running_job != 0) return;
  const std::int32_t serving = effective_pool_index(slot_it->second);
  if (serving < 0) return;
  const auto index = static_cast<std::size_t>(serving);
  pools_[index].free_nodes().insert(node.value);
  capacity_freed(index);
}

void PwsScheduler::handle_reconcile_reply(const kernel::DbQueryReplyMsg& reply) {
  // Any tracked pid that the bulletin no longer lists finished while we
  // were down.
  std::vector<std::pair<cluster::Pid, net::NodeId>> gone;
  for (const auto& [pid, job_id] : pid_to_job_) {
    bool found = false;
    for (const auto& row : reply.app_rows) {
      if (row.pid == pid) {
        found = true;
        break;
      }
    }
    if (!found) {
      auto job_it = jobs_.find(job_id);
      if (job_it != jobs_.end()) {
        for (const auto& [node_value, p] : job_it->second.pids) {
          if (p == pid) gone.emplace_back(pid, net::NodeId{node_value});
        }
      }
    }
  }
  for (const auto& [pid, node] : gone) complete_process(pid, node);
}

// --- introspection ----------------------------------------------------------------

const Job* PwsScheduler::job(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

const Pool* PwsScheduler::pool(const std::string& name) const {
  const auto sym = net::find_symbol(name);
  if (!sym.valid()) return nullptr;
  auto it = pool_index_.find(sym.value);
  return it == pool_index_.end() ? nullptr : &pools_[it->second];
}

std::size_t PwsScheduler::pool_index_of(net::SymbolId sym) const {
  auto it = pool_index_.find(sym.value);
  return it == pool_index_.end() ? kNoPool : it->second;
}

double PwsScheduler::usage_of_sym(net::SymbolId user) const {
  auto it = usage_.find(user.value);
  return it == usage_.end() ? 0.0 : it->second;
}

std::map<std::string, double> PwsScheduler::user_usage() const {
  std::map<std::string, double> out;
  for (const auto& [sym, seconds] : usage_) {
    out[std::string(net::symbol_name(net::SymbolId{sym}))] = seconds;
  }
  return out;
}

}  // namespace phoenix::pws
