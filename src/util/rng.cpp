#include "util/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace debuglet {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::next_below(0)");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1 = next_double();
  while (u1 <= 1e-300) u1 = next_double();
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::exponential(double mean) {
  double u = next_double();
  while (u <= 1e-300) u = next_double();
  return -mean * std::log(u);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::size_t Rng::index(std::size_t size) {
  if (size == 0) throw std::invalid_argument("Rng::index(0)");
  return static_cast<std::size_t>(next_below(size));
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += (w > 0 ? w : 0);
  if (total <= 0.0)
    throw std::invalid_argument("Rng::weighted_index: no positive weight");
  double pick = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0 ? weights[i] : 0;
    if (pick < w) return i;
    pick -= w;
  }
  return weights.size() - 1;
}

Rng Rng::fork(std::uint64_t label) {
  std::uint64_t mix = next_u64() ^ (label * 0x9E3779B97F4A7C15ULL);
  return Rng(mix);
}

}  // namespace debuglet
