// PWS job model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "net/ids.h"
#include "net/symbol.h"
#include "sim/time.h"

namespace phoenix::pws {

enum class JobState : std::uint8_t {
  kAuthorizing,  // waiting for the security service's verdict
  kQueued,
  kRunning,
  kCompleted,
  kFailed,     // a hosting node died and the retry budget is exhausted
  kRejected,   // authorization denied
  kCancelled,
  kTimedOut,   // exceeded its walltime limit and was killed
};

std::string_view to_string(JobState state) noexcept;

using JobId = std::uint64_t;

/// Per-request verdict of the submission path. Batch replies carry one per
/// request so a client can tell "the pool said no" (kUnknownPool) from "the
/// admission-control token bucket said slow down" (kAdmissionDenied).
enum class SubmitStatus : std::uint8_t {
  kAccepted,
  kAdmissionDenied,  // per-tenant token bucket empty (job spam)
  kUnknownPool,
  kAuthDenied,       // security service refused
  kCancelled,        // absorbed by the gateway before ever being sent, or
                     // cancelled while its authorization was in flight
  kUnavailable,      // gateway retry budget exhausted, outcome unknown
  kMalformed,        // a text field would not survive a checkpoint
};

std::string_view to_string(SubmitStatus status) noexcept;

/// What a user hands to a job-management system (PWS or the PBS baseline).
struct SubmitRequest {
  std::string name;
  std::string user;
  std::string pool;
  unsigned nodes = 1;
  sim::SimTime duration = 0;
  int priority = 0;               // higher runs first within a pool
  sim::SimTime walltime_limit = 0;  // 0 = unlimited; exceeded jobs are killed
  std::string arch;               // required node architecture ("" = any)
  /// Dependency: this job may only start after the given job COMPLETED
  /// successfully ("afterok"). If the dependency fails / is cancelled /
  /// times out, this job is cancelled too. 0 = no dependency.
  JobId after_ok = 0;
};

struct Job {
  JobId id = 0;
  std::string name;
  std::string user;
  std::string pool;
  unsigned nodes_needed = 1;
  sim::SimTime duration = 0;
  int priority = 0;
  sim::SimTime walltime_limit = 0;
  std::string arch;
  JobId after_ok = 0;

  JobState state = JobState::kQueued;
  sim::SimTime submitted_at = 0;
  sim::SimTime started_at = 0;
  sim::SimTime finished_at = 0;
  std::vector<net::NodeId> allocated;
  std::map<std::uint32_t, cluster::Pid> pids;  // node id -> process id
  unsigned exited = 0;
  unsigned requeues = 0;

  /// Interned identities (net/symbol.h), filled by the scheduler at
  /// submission/recovery so hot paths compare dense ids, not strings.
  /// Volatile: never serialized; rebuilt from `user`/`pool` on restore.
  net::SymbolId user_sym{};
  net::SymbolId pool_sym{};

  bool terminal() const noexcept {
    return state == JobState::kCompleted || state == JobState::kFailed ||
           state == JobState::kRejected || state == JobState::kCancelled ||
           state == JobState::kTimedOut;
  }
};

/// One line per job; used for the scheduler's checkpoint state.
std::string serialize_jobs(const std::map<JobId, Job>& jobs);
std::map<JobId, Job> deserialize_jobs(const std::string& data);

/// True when every text field of `request` survives a serialize_jobs and
/// deserialize_jobs round trip: the fields are written raw, and parsing
/// splits on '|' and '\n'.
bool fits_job_row(const SubmitRequest& request) noexcept;

/// serialize_jobs that re-encodes only what changed. The rows are kept in
/// blocks of kBlockJobs consecutive job ids, and encode() re-encodes only the
/// blocks holding an id passed to changed() since the previous encode().
/// encode(jobs) == serialize_jobs(jobs) byte for byte, provided that every
/// insert, erase and write to a serialized field of `jobs` is reported
/// through changed(), and that reset() follows a wholesale replacement.
class JobRows {
 public:
  static constexpr JobId kBlockJobs = 64;

  void changed(JobId id) {
    const JobId block = id / kBlockJobs;
    if (dirty_.empty() || dirty_.back() != block) dirty_.push_back(block);
  }
  /// The next encode() re-encodes every row.
  void reset() {
    blocks_.clear();
    dirty_.clear();
    rebuild_ = true;
  }
  std::string encode(const std::map<JobId, Job>& jobs);

 private:
  std::map<JobId, std::string> blocks_;  // block index -> its rows, encoded
  std::vector<JobId> dirty_;             // block indexes, in no order
  bool rebuild_ = true;
};

}  // namespace phoenix::pws
