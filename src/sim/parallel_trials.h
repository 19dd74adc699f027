// Thread-parallel trial execution.
//
// A simulated experiment is single-threaded by design (the engine's
// determinism depends on it), but INDEPENDENT trials — different seeds,
// parameters, or fault scenarios — share nothing and can run on separate OS
// threads. This helper maps a trial function over an index range with a
// bounded worker pool, preserving result order. The benches use it to sweep
// configurations across cores.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace phoenix::sim {

/// Runs `fn(i)` for i in [0, trials) on up to `workers` threads (0 = one
/// per hardware thread) and returns the results in index order. `fn` must
/// be self-contained: each invocation builds its own Engine/Cluster, so
/// trials share no mutable state. Exceptions from `fn` propagate from the
/// first failing index.
///
/// Templated on the callable so each trial is a direct (usually inlined)
/// call — no std::function type erasure and no per-call virtual dispatch
/// in the sweep loop.
template <typename Fn,
          typename Result = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>>
std::vector<Result> run_parallel_trials(std::size_t trials, Fn&& fn,
                                        std::size_t workers = 0) {
  std::vector<Result> results(trials);
  if (trials == 0) return results;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, trials);

  if (workers == 1) {
    for (std::size_t i = 0; i < trials; ++i) results[i] = fn(i);
    return results;
  }

  std::mutex next_mutex;
  std::size_t next = 0;
  std::exception_ptr first_error;
  std::size_t first_error_index = trials;

  auto worker = [&] {
    for (;;) {
      std::size_t i;
      {
        const std::lock_guard<std::mutex> lock(next_mutex);
        if (next >= trials || first_error) return;
        i = next++;
      }
      try {
        results[i] = fn(i);
      } catch (...) {
        // Single lock: first_error_index starts at `trials`, so the index
        // comparison alone decides whether this failure is the new first.
        const std::lock_guard<std::mutex> lock(next_mutex);
        if (i < first_error_index) {
          first_error = std::current_exception();
          first_error_index = i;
        }
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace phoenix::sim
