/// \file stats.hpp
/// \brief Order statistics for the benchmark's timings: median, quartiles
/// and the tail percentile rule (p99, or the highest percentile that still
/// has at least ten samples beyond it).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace e2e {

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty input.
double median(std::vector<double> values);

/// A tail percentile chosen by the rule every benchmark timing follows:
/// p99 when at least kMinBeyond samples lie above it, otherwise the
/// highest nearest-rank percentile that keeps kMinBeyond samples beyond
/// it. With kMinBeyond or fewer samples no percentile qualifies and the
/// maximum is reported with `qualified = false`.
struct TailPercentile {
  static constexpr std::size_t kMinBeyond = 10;

  double value = 0.0;       ///< The selected sample.
  double percentile = 0.0;  ///< Which percentile it is (e.g. 99, 92.3).
  std::size_t samples = 0;  ///< Sample count the percentile is taken over.
  std::size_t beyond = 0;   ///< Samples strictly ranked above it.
  bool qualified = false;   ///< At least kMinBeyond samples beyond it.

  /// "p99 of 1187 samples (11 beyond)" — printed beside the metric.
  [[nodiscard]] std::string describe() const;
};

/// Applies the tail rule to `values` (any order).
TailPercentile tail_percentile(std::vector<double> values);

}  // namespace e2e
