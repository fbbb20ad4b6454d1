/// \file oracles.hpp
/// \brief Brute-force reference implementations of Machine's availability
/// queries, of the First-Fit / Last-Fit selectors and of EASY's backfill
/// pass. The machine oracles visit every CPU through Machine's per-CPU
/// accessors only (is_free, avail_time), so they share no state with the
/// expected-end index or the word sets they are compared against.
/// ReferenceEasy offers every queued job to the assigner on every pass, so
/// it shares no candidate bookkeeping with core::EasyBackfilling.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/allocation.hpp"
#include "cluster/first_fit.hpp"
#include "cluster/machine.hpp"
#include "core/dynamic_raise.hpp"
#include "core/frequency.hpp"
#include "core/scheduler.hpp"
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

/// EASY backfilling with the full scan: after every completion each
/// non-head queued job is offered to the assigner's backfill_gear, closed
/// or not. The queue is a plain vector and the free CPUs outside the
/// reservation are counted CPU by CPU. With `raise`, DynamicRaiseEasy's
/// rule runs after every handler.
class ReferenceEasy final : public core::SchedulingPolicy {
 public:
  ReferenceEasy(std::unique_ptr<cluster::ResourceSelector> selector,
                std::unique_ptr<core::FrequencyAssigner> assigner,
                std::optional<core::DynamicRaiseConfig> raise = std::nullopt)
      : selector_(std::move(selector)),
        assigner_(std::move(assigner)),
        raise_(raise) {}

  void on_submit(core::SchedulerContext& ctx, JobId id) override {
    queue_.push_back(id);
    if (queue_.size() == 1) {
      schedule_heads(ctx);
    } else {
      try_backfill_one(ctx, id);
    }
    maybe_raise(ctx);
  }

  void on_job_end(core::SchedulerContext& ctx, JobId /*id*/) override {
    if (queue_.empty()) {
      reservation_.clear();
    } else if (schedule_heads(ctx)) {
      const std::vector<JobId> candidates(queue_.begin() + 1, queue_.end());
      for (const JobId id : candidates) try_backfill_one(ctx, id);
    }
    maybe_raise(ctx);
  }

  [[nodiscard]] std::size_t queue_size() const override {
    return queue_.size();
  }
  [[nodiscard]] std::string name() const override { return "ReferenceEasy"; }

 private:
  bool schedule_heads(core::SchedulerContext& ctx) {
    reservation_.clear();
    const cluster::Machine& machine = ctx.machine();
    while (!queue_.empty()) {
      const JobId head = queue_.front();
      const wl::Job& job = ctx.job(head);
      const Time start = machine.earliest_start(job.size, ctx.now());
      if (start <= ctx.now()) {
        const GearIndex gear = assigner_->reservation_gear(
            ctx, job, ctx.now(), queue_.size() - 1);
        const std::vector<CpuId> cpus =
            selector_->select_at(machine, job.size, ctx.now(), ctx.now());
        queue_.erase(queue_.begin());
        ctx.start_job(head, cpus, gear);
        continue;
      }
      reservation_.job = head;
      reservation_.start = start;
      reservation_.set_cpus(
          selector_->select_at(machine, job.size, start, ctx.now()),
          machine.cpu_count());
      return true;
    }
    return false;
  }

  [[nodiscard]] std::int32_t free_outside_reservation(
      const cluster::Machine& machine) const {
    std::int32_t count = 0;
    for (CpuId cpu = 0; cpu < machine.cpu_count(); ++cpu) {
      if (machine.is_free(cpu) && !reservation_.contains(cpu)) ++count;
    }
    return count;
  }

  void try_backfill_one(core::SchedulerContext& ctx, JobId id) {
    const cluster::Machine& machine = ctx.machine();
    const wl::Job& job = ctx.job(id);
    const Time now = ctx.now();
    const auto end_at = [&](GearIndex gear) {
      return now +
             core::job_scaled_duration(ctx, job, job.requested_time, gear);
    };
    const auto feasible = [&](GearIndex gear) {
      if (reservation_.active() && end_at(gear) > reservation_.start) {
        return free_outside_reservation(machine) >= job.size;
      }
      return machine.free_now() >= job.size;
    };
    const std::optional<GearIndex> gear =
        assigner_->backfill_gear(ctx, job, feasible, queue_.size() - 1);
    if (!gear) return;
    const std::optional<std::vector<CpuId>> cpus = selector_->select_backfill(
        machine, job.size, now, end_at(*gear),
        reservation_.active() ? &reservation_ : nullptr);
    BSLD_REQUIRE(cpus.has_value(), "ReferenceEasy: no CPUs for a backfill");
    queue_.erase(std::find(queue_.begin(), queue_.end(), id));
    ctx.start_job(id, *cpus, *gear);
  }

  void maybe_raise(core::SchedulerContext& ctx) {
    if (!raise_ ||
        static_cast<std::int64_t>(queue_.size()) <= raise_->queue_limit) {
      return;
    }
    const GearIndex top = ctx.time_model().gears().top_index();
    for (const JobId id : ctx.running_jobs()) {
      const GearIndex current = ctx.running_gear(id);
      if (current >= top) continue;
      ctx.boost_job(id, raise_->one_step
                            ? static_cast<GearIndex>(current + 1)
                            : top);
    }
  }

  std::unique_ptr<cluster::ResourceSelector> selector_;
  std::unique_ptr<core::FrequencyAssigner> assigner_;
  std::optional<core::DynamicRaiseConfig> raise_;
  std::vector<JobId> queue_;
  cluster::Reservation reservation_;
};

}  // namespace bsld::testing
