/// \file first_fit.hpp
/// \brief Resource selection policies. The paper's simulations use First
/// Fit (§3.1): processes are mapped to the lowest-indexed processors that
/// satisfy the allocation constraints. The interface keeps selection
/// pluggable, mirroring Alvio's scheduling-policy / resource-selection
/// split.
///
/// Both selectors work on 64-CPU words of the Machine's bit sets: a word of
/// qualifying CPUs (free, or available by the start time; minus the
/// reservation for a shadow-crossing backfill) is built in one step and the
/// lowest or highest set bits are taken with countr_zero / countl_zero.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cluster/allocation.hpp"
#include "cluster/machine.hpp"

namespace bsld::cluster {

/// Strategy mapping job processes to processors.
class ResourceSelector {
 public:
  virtual ~ResourceSelector() = default;

  /// Selects `size` CPUs all available by `start` (per Machine::avail_time
  /// at `now`). Called by findAllocation once the start time is known.
  /// Throws bsld::Error when fewer than `size` CPUs qualify.
  [[nodiscard]] virtual std::vector<CpuId> select_at(
      const Machine& machine, std::int32_t size, Time start, Time now) const = 0;

  /// Backfill selection: `size` CPUs that are free *now* and whose use
  /// until `expected_end` cannot delay `reservation` (a CPU inside the
  /// reservation may only be used when expected_end <= reservation->start).
  /// Returns nullopt when impossible. `reservation` may be null.
  [[nodiscard]] virtual std::optional<std::vector<CpuId>> select_backfill(
      const Machine& machine, std::int32_t size, Time now, Time expected_end,
      const Reservation* reservation) const = 0;

  /// Human-readable policy name.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// First Fit: lowest-indexed qualifying CPUs.
class FirstFit final : public ResourceSelector {
 public:
  [[nodiscard]] std::vector<CpuId> select_at(const Machine& machine,
                                             std::int32_t size, Time start,
                                             Time now) const override;
  [[nodiscard]] std::optional<std::vector<CpuId>> select_backfill(
      const Machine& machine, std::int32_t size, Time now, Time expected_end,
      const Reservation* reservation) const override;
  [[nodiscard]] std::string name() const override { return "FirstFit"; }
};

/// Last Fit: highest-indexed qualifying CPUs. Functionally equivalent under
/// count-based feasibility; exists to demonstrate the selector seam and as
/// a control in tests (schedule metrics must not depend on the selector for
/// identical feasibility decisions).
class LastFit final : public ResourceSelector {
 public:
  [[nodiscard]] std::vector<CpuId> select_at(const Machine& machine,
                                             std::int32_t size, Time start,
                                             Time now) const override;
  [[nodiscard]] std::optional<std::vector<CpuId>> select_backfill(
      const Machine& machine, std::int32_t size, Time now, Time expected_end,
      const Reservation* reservation) const override;
  [[nodiscard]] std::string name() const override { return "LastFit"; }
};

/// Builds a selector by name ("FirstFit", "LastFit"); throws on unknown.
std::unique_ptr<ResourceSelector> make_selector(const std::string& name);

}  // namespace bsld::cluster
