/// \file oracles.hpp
/// \brief Brute-force reference implementations of Machine's availability
/// queries and of the First-Fit / Last-Fit selectors. Each one visits every
/// CPU through Machine's per-CPU accessors only (is_free, avail_time), so
/// it shares no state with the expected-end index or the word sets it is
/// compared against.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "cluster/allocation.hpp"
#include "cluster/machine.hpp"
#include "util/error.hpp"

namespace bsld::testing {

/// CPU visiting order: First Fit scans ascending ids, Last Fit descending.
enum class CpuOrder { kAscending, kDescending };

inline std::vector<CpuId> cpus_in(const cluster::Machine& machine,
                                  CpuOrder order) {
  std::vector<CpuId> out;
  for (CpuId cpu = 0; cpu < machine.cpu_count(); ++cpu) out.push_back(cpu);
  if (order == CpuOrder::kDescending) std::reverse(out.begin(), out.end());
  return out;
}

/// Machine::earliest_start: the (size - free)-th smallest clamped
/// availability among the busy CPUs, by nth_element.
inline Time oracle_earliest_start(const cluster::Machine& machine,
                                  std::int32_t size, Time now) {
  BSLD_REQUIRE(size > 0 && size <= machine.cpu_count(),
               "oracle: allocation size must be within [1, cpu_count]");
  std::int32_t free = 0;
  std::vector<Time> busy;
  for (CpuId cpu = 0; cpu < machine.cpu_count(); ++cpu) {
    if (machine.is_free(cpu)) {
      ++free;
    } else {
      busy.push_back(machine.avail_time(cpu, now));
    }
  }
  if (free >= size) return now;
  const auto kth = busy.begin() + (size - free - 1);
  std::nth_element(busy.begin(), kth, busy.end());
  return *kth;
}

/// Machine::available_by: CPUs with avail_time <= t.
inline std::int32_t oracle_available_by(const cluster::Machine& machine,
                                        Time t, Time now) {
  std::int32_t count = 0;
  for (CpuId cpu = 0; cpu < machine.cpu_count(); ++cpu) {
    if (machine.avail_time(cpu, now) <= t) ++count;
  }
  return count;
}

/// ResourceSelector::select_at: the first `size` CPUs in `order` available
/// by `start`; nullopt where the selector throws.
inline std::optional<std::vector<CpuId>> oracle_select_at(
    const cluster::Machine& machine, std::int32_t size, Time start, Time now,
    CpuOrder order) {
  std::vector<CpuId> out;
  for (const CpuId cpu : cpus_in(machine, order)) {
    if (machine.avail_time(cpu, now) <= start) {
      out.push_back(cpu);
      if (static_cast<std::int32_t>(out.size()) == size) return out;
    }
  }
  return std::nullopt;
}

/// ResourceSelector::select_backfill: the first `size` free CPUs in
/// `order`, skipping reserved ones when the job would run past the
/// reserved start. Membership comes from `reservation->cpus`.
inline std::optional<std::vector<CpuId>> oracle_select_backfill(
    const cluster::Machine& machine, std::int32_t size, Time expected_end,
    const cluster::Reservation* reservation, CpuOrder order) {
  const bool respects_shadow =
      reservation == nullptr || !reservation->active() ||
      expected_end <= reservation->start;
  std::vector<char> reserved(static_cast<std::size_t>(machine.cpu_count()), 0);
  if (!respects_shadow) {
    for (const CpuId cpu : reservation->cpus) {
      reserved[static_cast<std::size_t>(cpu)] = 1;
    }
  }
  std::vector<CpuId> out;
  for (const CpuId cpu : cpus_in(machine, order)) {
    if (!machine.is_free(cpu) || reserved[static_cast<std::size_t>(cpu)]) {
      continue;
    }
    out.push_back(cpu);
    if (static_cast<std::int32_t>(out.size()) == size) return out;
  }
  return std::nullopt;
}

}  // namespace bsld::testing
