#include "pws/job.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace phoenix::pws {

std::string_view to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kAuthorizing: return "authorizing";
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
    case JobState::kRejected: return "rejected";
    case JobState::kCancelled: return "cancelled";
    case JobState::kTimedOut: return "timed-out";
  }
  return "?";
}

std::string_view to_string(SubmitStatus status) noexcept {
  switch (status) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kAdmissionDenied: return "admission-denied";
    case SubmitStatus::kUnknownPool: return "unknown-pool";
    case SubmitStatus::kAuthDenied: return "auth-denied";
    case SubmitStatus::kCancelled: return "cancelled";
    case SubmitStatus::kUnavailable: return "unavailable";
    case SubmitStatus::kMalformed: return "malformed";
  }
  return "?";
}

namespace {

template <typename Number>
void append_number(std::string& out, Number value) {
  char digits[20];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

/// Appends the row of job `id`, newline included.
void append_row(std::string& out, JobId id, const Job& job) {
  const auto number = [&out](auto value) {
    append_number(out, value);
    out += '|';
  };
  const auto text = [&out](const std::string& value) {
    out += value;
    out += '|';
  };
  number(id);
  text(job.name);
  text(job.user);
  text(job.pool);
  number(job.nodes_needed);
  number(job.duration);
  number(static_cast<int>(job.state));
  number(job.submitted_at);
  number(job.started_at);
  number(job.finished_at);
  number(job.exited);
  number(job.requeues);
  number(job.priority);
  number(job.walltime_limit);
  text(job.arch);
  number(job.after_ok);
  for (std::size_t i = 0; i < job.allocated.size(); ++i) {
    if (i > 0) out += ',';
    append_number(out, job.allocated[i].value);
  }
  out += '|';
  bool first = true;
  for (const auto& [node, pid] : job.pids) {
    if (!first) out += ',';
    first = false;
    append_number(out, node);
    out += '=';
    append_number(out, pid);
  }
  out += '\n';
}

}  // namespace

std::string serialize_jobs(const std::map<JobId, Job>& jobs) {
  std::string out;
  // Room for a typical line; longer names and node lists grow it.
  out.reserve(96 * jobs.size());
  for (const auto& [id, job] : jobs) append_row(out, id, job);
  return out;
}

std::string JobRows::encode(const std::map<JobId, Job>& jobs) {
  if (rebuild_) {
    for (const auto& [id, job] : jobs) changed(id);
    rebuild_ = false;
  }
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  for (const JobId block : dirty_) {
    std::string& rows = blocks_[block];
    rows.clear();
    // Bounded by the block index: the last block's end, (block + 1) *
    // kBlockJobs, would wrap to 0.
    for (auto it = jobs.lower_bound(block * kBlockJobs);
         it != jobs.end() && it->first / kBlockJobs == block; ++it) {
      append_row(rows, it->first, it->second);
    }
    if (rows.empty()) blocks_.erase(block);
  }
  dirty_.clear();

  std::size_t size = 0;
  for (const auto& [block, rows] : blocks_) size += rows.size();
  std::string out;
  out.reserve(size);
  for (const auto& [block, rows] : blocks_) out += rows;
  return out;
}

bool fits_job_row(const SubmitRequest& request) noexcept {
  for (const std::string* field :
       {&request.name, &request.user, &request.pool, &request.arch}) {
    if (field->find_first_of("|\n") != std::string::npos) return false;
  }
  return true;
}

std::map<JobId, Job> deserialize_jobs(const std::string& data) {
  std::map<JobId, Job> jobs;
  std::istringstream in(data);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string f;
    Job job;
    auto next = [&]() -> std::string {
      std::getline(fields, f, '|');
      return f;
    };
    try {
      job.id = std::stoull(next());
      job.name = next();
      job.user = next();
      job.pool = next();
      // A job with no node or no known state would never be scheduled nor
      // retired after a restore, so such a line is as malformed as a short one.
      const unsigned long nodes = std::stoul(next());
      if (nodes == 0 || nodes > std::numeric_limits<unsigned>::max()) {
        throw std::out_of_range("nodes_needed");
      }
      job.nodes_needed = static_cast<unsigned>(nodes);
      job.duration = std::stoull(next());
      const int state = std::stoi(next());
      if (state < 0 || state > static_cast<int>(JobState::kTimedOut)) {
        throw std::out_of_range("state");
      }
      job.state = static_cast<JobState>(state);
      job.submitted_at = std::stoull(next());
      job.started_at = std::stoull(next());
      job.finished_at = std::stoull(next());
      job.exited = static_cast<unsigned>(std::stoul(next()));
      job.requeues = static_cast<unsigned>(std::stoul(next()));
      job.priority = std::stoi(next());
      job.walltime_limit = std::stoull(next());
      job.arch = next();
      job.after_ok = std::stoull(next());
      std::istringstream alloc(next());
      std::string a;
      while (std::getline(alloc, a, ',')) {
        if (!a.empty()) {
          job.allocated.push_back(
              net::NodeId{static_cast<std::uint32_t>(std::stoul(a))});
        }
      }
      std::istringstream pids(next());
      std::string p;
      while (std::getline(pids, p, ',')) {
        const auto eq = p.find('=');
        if (eq != std::string::npos) {
          job.pids[static_cast<std::uint32_t>(std::stoul(p.substr(0, eq)))] =
              std::stoull(p.substr(eq + 1));
        }
      }
    } catch (const std::exception&) {
      continue;  // skip malformed lines rather than aborting recovery
    }
    jobs.emplace(job.id, std::move(job));
  }
  return jobs;
}

}  // namespace phoenix::pws
