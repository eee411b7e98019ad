// Small helpers shared by the benchmark's translation units: the clock,
// a self-contained seeded generator, quantiles, the open-loop wait, and
// an ordered list of named metrics.
//
// The generator is the benchmark's own (not navsep::Rng) so that a change
// to the library's random-number code can never change the inputs the
// benchmark feeds the library.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace navbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a);
  return d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count());
}

/// xoshiro256** seeded through SplitMix64.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t x =
        seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
    for (auto& word : s_) word = splitmix(x);
  }

  std::uint64_t next() {
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

  /// Uniform in [0, bound); bound > 0.
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  static std::uint64_t splitmix(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t s_[4]{};
};

/// Linearly interpolated q-quantile of `values` (sorted in place); 0 for
/// an empty sample.
template <typename T>
double quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) +
         (static_cast<double>(values[hi]) - static_cast<double>(values[lo])) *
             frac;
}

inline double median(std::vector<double> values) {
  return quantile(values, 0.5);
}

inline double ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

/// Spin on the clock until `due`. An open-loop generator must send on
/// time, and on a virtual machine a sleeping thread's idle vCPU can take a
/// millisecond to wake, which would be counted against the server. (No
/// pause instruction: a pause loop can make the hypervisor deschedule the
/// vCPU.)
inline void wait_until(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

/// An ordered list of named metrics with units.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }

  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }

  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// One number as JSON: finite values with full precision, 0 otherwise.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace navbench
