// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic choice in the simulation (latency jitter, synthetic load,
// job arrivals) draws from one seedable stream so a whole experiment replays
// bit-identically from its seed.
#pragma once

#include <cstdint>

namespace phoenix::sim {

/// xoshiro256** generator, seeded via SplitMix64. Small, fast, and good
/// enough statistically for workload synthesis; not for cryptography.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Normally distributed value (Box-Muller).
  double normal(double mean, double stddev) noexcept;

  /// Bernoulli draw with probability p of true.
  bool chance(double p) noexcept;

 private:
  std::uint64_t state_[4];
};

/// Derives an independent child seed from a root seed and a stream id.
///
/// Seeding each RNG consumer with derive_stream_seed(root, id) gives it its
/// own stream, so adding or removing draws in one consumer cannot shift the
/// draws of another. The derivation is pure (same inputs -> same seed) and
/// decorrelates adjacent stream ids through two SplitMix64 rounds, so
/// streams 0 and 1 do not see shifted copies of one sequence.
std::uint64_t derive_stream_seed(std::uint64_t root_seed,
                                 std::uint64_t stream_id) noexcept;

}  // namespace phoenix::sim
