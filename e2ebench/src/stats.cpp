#include "stats.hpp"

#include <algorithm>
#include <cstdio>

namespace e2e {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string TailPercentile::describe() const {
  char text[128];
  std::snprintf(text, sizeof(text), "p%.4g of %zu samples (%zu beyond)%s",
                percentile, samples, beyond,
                qualified ? "" : " [too few samples: maximum]");
  return text;
}

TailPercentile tail_percentile(std::vector<double> values) {
  TailPercentile tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Nearest rank: the p-th percentile is the ceil(p/100 * n)-th smallest
  // sample (1-based), so n - rank samples lie beyond it.
  const std::size_t rank99 = (99 * n + 99) / 100;  // ceil(0.99 n), exact.
  std::size_t rank = rank99;
  if (n - rank < TailPercentile::kMinBeyond) {
    rank = n > TailPercentile::kMinBeyond ? n - TailPercentile::kMinBeyond : n;
  }
  tail.value = values[rank - 1];
  tail.beyond = n - rank;
  tail.qualified = tail.beyond >= TailPercentile::kMinBeyond;
  tail.percentile = rank == rank99 ? 99.0
                                   : 100.0 * static_cast<double>(rank) /
                                         static_cast<double>(n);
  return tail;
}

}  // namespace e2e
