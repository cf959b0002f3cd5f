// reference.hpp — a fixed piece of work that measures the host's speed.
//
// The benchmark shares its host with other tenants, and their load moves
// the simulator's speed by tens of percent, within seconds and over hours,
// even in CPU time: they contend for the shared caches and memory.  A fixed
// reference kernel, sampled after every measured block, slows down with
// it, so the single-threaded workloads' timings are reported scaled to a
// nominal reference time.  The kernel mixes what the simulator spends its
// time on: dependent loads over a working set larger than the private
// caches, hash-table probes and heap operations.
//
// The kernel must not see what the library did before it, or a library
// change would move the scale: all of its memory is allocated once, in the
// constructor, and a sample allocates nothing, so the library's heap
// cannot slow it; and each sample first walks its working set untimed, so
// the cache and TLB contents the library left behind do not count.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace lispcp::benchmark {

class HostReference {
 public:
  /// The reference's CPU time on an uncontended host of the kind the
  /// baseline was measured on; the scale's fixed point.
  static constexpr double kNominalSeconds = 0.040;
  /// How much harder the workloads' time follows the host's slow swings
  /// than the kernel's does, as the power of the kernel's slowdown that
  /// undoes them: over sets of runs an hour apart the workloads slowed by
  /// the kernel's slowdown to a power between 1.2 and 2.6, and 1.5 left the
  /// sets closest (benchmark/README.md).
  static constexpr double kSensitivity = 1.5;

  /// Allocates the working set.
  HostReference();

  /// Runs the fixed work once and records its CPU seconds.
  void sample();

  /// `seconds` measured while the reference took `reference_s`, at nominal
  /// host speed.
  [[nodiscard]] static double scale_time(double seconds, double reference_s) {
    return seconds * std::pow(kNominalSeconds / reference_s, kSensitivity);
  }
  /// A rate measured while the reference took `reference_s`, at nominal
  /// host speed.
  [[nodiscard]] static double scale_rate(double per_s, double reference_s) {
    return per_s * std::pow(reference_s / kNominalSeconds, kSensitivity);
  }

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

  /// Resident memory the reference holds for its whole life, in MB.
  [[nodiscard]] double footprint_mb() const;

 private:
  [[nodiscard]] std::uint64_t work(int chase_steps);

  std::vector<std::uint32_t> next_;   ///< one random cycle over all slots
  std::vector<std::uint64_t> table_;  ///< open-addressing keys, 0 = empty
  std::vector<std::uint64_t> heap_;   ///< capacity reserved up front
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;            ///< keeps the work observable
};

}  // namespace lispcp::benchmark
