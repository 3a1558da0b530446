#include "speed.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Fixed host work that no program change touches: a dependent random
/// walk over an 8 MiB table (cache and TLB misses), hash-map inserts
/// and lookups, allocation churn and a sort, roughly the simulator's
/// mix.  Returns a value derived from every step so none is elided.
std::uint64_t reference_work() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(std::size_t{1} << 21);
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t& v : t) v = static_cast<std::uint32_t>(xorshift(x));
    return t;
  }();
  const std::size_t mask = table.size() - 1;
  std::uint64_t h = 0;
  std::uint32_t i = 1;
  for (int step = 0; step < 10000; ++step) {
    i = table[(i ^ static_cast<std::uint32_t>(h)) & mask];
    h = h * 31 + i;
  }
  std::unordered_map<std::uint32_t, std::uint32_t> map;
  std::uint64_t x = h | 1;
  for (int k = 0; k < 5000; ++k) {
    map[static_cast<std::uint32_t>(xorshift(x) & 0xffff)] += 1;
  }
  for (int k = 0; k < 5000; ++k) {
    const auto it = map.find(static_cast<std::uint32_t>(xorshift(x) & 0xffff));
    if (it != map.end()) h += it->second;
  }
  std::vector<std::vector<std::uint32_t>> lists(256);
  for (int k = 0; k < 10000; ++k) {
    lists[xorshift(x) & 0xff].push_back(static_cast<std::uint32_t>(x));
  }
  std::vector<std::uint32_t> part(table.begin(), table.begin() + 15000);
  std::sort(part.begin(), part.end());
  return h + part[7500] + lists[7].size();
}

}  // namespace

double reference_ns() {
  static volatile std::uint64_t sink = 0;
  const Clock::time_point start = Clock::now();
  sink = sink + reference_work();
  return static_cast<double>(elapsed_ns(start, Clock::now()));
}

SpeedGauge::SpeedGauge() { samples_.push_back(reference_ns()); }

void SpeedGauge::sample() { samples_.push_back(reference_ns()); }

double SpeedGauge::factor(std::ptrdiff_t from, std::ptrdiff_t to) const {
  const auto n = static_cast<std::ptrdiff_t>(samples_.size());
  from = std::clamp<std::ptrdiff_t>(from, 0, n - 1);
  to = std::clamp<std::ptrdiff_t>(to, from + 1, n);
  std::vector<double> window(samples_.begin() + from, samples_.begin() + to);
  std::sort(window.begin(), window.end());
  const std::size_t m = window.size();
  const double median =
      m % 2 == 1 ? window[m / 2] : 0.5 * (window[m / 2 - 1] + window[m / 2]);
  return kReferenceNominalNs / median;
}

}  // namespace perfbench
