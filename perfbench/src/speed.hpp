// Machine-speed gauge.
//
// On a shared host the speed of this process drifts by up to 2x over
// minutes as other tenants come and go, which swamps any program
// change.  The gauge times a fixed reference kernel (harness code that
// no program change touches) between rounds of ops; a wall time is
// reported at the reference speed by multiplying it with
// kReferenceNominalNs / (median reference time around it).  A change
// to the program moves the op times but not the reference, so it shows
// in full; a slower host moves both and cancels.
#pragma once

#include <cstddef>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// The reference kernel's time at the reference speed.
inline constexpr double kReferenceNominalNs = 2.5e6;

/// Runs the reference kernel once; returns its wall time in ns.
[[nodiscard]] double reference_ns();

class SpeedGauge {
 public:
  /// Takes the first sample.
  SpeedGauge();

  void sample();
  [[nodiscard]] std::size_t samples() const noexcept { return samples_.size(); }

  /// kReferenceNominalNs / median of samples [from, to), with the range
  /// clamped to the samples taken.
  [[nodiscard]] double factor(std::ptrdiff_t from, std::ptrdiff_t to) const;

 private:
  std::vector<double> samples_;
};

}  // namespace perfbench
