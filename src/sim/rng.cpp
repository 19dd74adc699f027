#include "sim/rng.h"

#include <cmath>
#include <numbers>

namespace phoenix::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // xoshiro state must not be all-zero; SplitMix64 guarantees that for any seed.
  for (auto& s : state_) s = splitmix64(seed);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range
  return lo + next() % span;
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) noexcept {
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

bool Rng::chance(double p) noexcept { return uniform() < p; }

std::uint64_t derive_stream_seed(std::uint64_t root_seed,
                                 std::uint64_t stream_id) noexcept {
  // Mix the stream id into the root with a distinct odd multiplier, then run
  // two SplitMix64 rounds so every output bit depends on every input bit of
  // both the root and the id (adjacent stream ids land far apart).
  std::uint64_t x = root_seed ^ (0xd1b54a32d192ed03ULL * (stream_id + 1));
  const std::uint64_t a = splitmix64(x);
  return splitmix64(x) ^ rotl(a, 23);
}

}  // namespace phoenix::sim
