/// \file machine.hpp
/// \brief The simulated DVFS-enabled cluster: per-CPU occupancy and the
/// availability profile that backfilling's findAllocation queries.
///
/// Each CPU runs at most one process (rigid jobs, one process per CPU). A
/// busy CPU advertises the time its job is *expected* to end — start +
/// requested time scaled by the job's gear — because that is all EASY
/// backfilling may assume; actual completions trigger rescheduling. Since
/// only running jobs hold CPUs (EASY keeps a single reservation, handled by
/// the scheduler), free capacity is non-decreasing in time.
///
/// Two structures are maintained incrementally next to the per-CPU arrays,
/// so the scheduler's queries never scan every CPU:
///  * the expected-end index: busy-CPU counts keyed by expected end, in a
///    vector sorted by end. `assign` and `release` update it once per job
///    (all CPUs of one call share one end; a job split by a partial
///    re-time costs one update per run of equal ends), in O(log J + J)
///    for J distinct ends. `earliest_start` walks it in time order until
///    enough busy CPUs are covered; `available_by` sums it up to `t`.
///    Both are O(entries walked) <= O(J), J <= running jobs;
///  * the free-CPU word set (allocation.hpp's layout), updated one word
///    write per touched word. Selectors take CPUs a word at a time: O(P/64)
///    words, plus one compare per CPU of each visited word that holds busy
///    CPUs when the start is in the future.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/allocation.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace bsld::cluster {

/// Mutable cluster state.
class Machine {
 public:
  /// A machine with `cpu_count` identical DVFS-enabled processors.
  explicit Machine(std::int32_t cpu_count);

  [[nodiscard]] std::int32_t cpu_count() const {
    return static_cast<std::int32_t>(jobs_.size());
  }

  /// Job currently on `cpu`, or kNoJob.
  [[nodiscard]] JobId running_job(CpuId cpu) const {
    check_cpu(cpu);
    return jobs_[static_cast<std::size_t>(cpu)];
  }
  [[nodiscard]] bool is_free(CpuId cpu) const {
    return running_job(cpu) == kNoJob;
  }

  /// Number of CPUs free right now (O(1)).
  [[nodiscard]] std::int32_t free_now() const { return free_now_; }

  /// Time at which `cpu` is expected to be available, from the viewpoint of
  /// `now`: `now` when free, otherwise max(expected end, now + 1) — the
  /// clamp keeps overrunning jobs (actual > requested time) from appearing
  /// free before their real completion event.
  [[nodiscard]] Time avail_time(CpuId cpu, Time now) const {
    check_cpu(cpu);
    const auto index = static_cast<std::size_t>(cpu);
    if (jobs_[index] == kNoJob) return now;
    return std::max(expected_end_[index], now + 1);
  }

  /// Earliest time at which `size` CPUs are simultaneously available
  /// (>= now): the (size - free_now)-th smallest clamped availability
  /// among the busy CPUs. Throws bsld::Error when size exceeds the machine.
  /// O(1) when enough CPUs are free, else O(distinct ends walked).
  [[nodiscard]] Time earliest_start(std::int32_t size, Time now) const;

  /// Number of CPUs available by time `t` (avail_time <= t). O(1) for
  /// t <= now, else O(distinct ends <= t).
  [[nodiscard]] std::int32_t available_by(Time t, Time now) const;

  /// Words of the free-CPU bit set (see cpu_word_count).
  [[nodiscard]] std::size_t word_count() const { return free_words_.size(); }

  /// Word `w` of the free-CPU bit set. O(1).
  [[nodiscard]] std::uint64_t free_word(std::size_t w) const {
    return free_words_[w];
  }

  /// The CPUs of word `w` with avail_time(cpu, now) <= start, as a bit set.
  /// O(1) unless start > now and the word holds busy CPUs; then one
  /// branch-free compare per CPU of the word.
  [[nodiscard]] std::uint64_t available_word(std::size_t w, Time start,
                                             Time now) const {
    if (start < now) return 0;
    if (start == now) return free_words_[w];
    // start >= now + 1, so the clamp cannot lift a busy CPU past start.
    return free_words_[w] | busy_ending_by(w, start);
  }

  /// `cpus` busy CPUs are expected to end at `end`.
  struct BusyAtEnd {
    Time end;
    std::int32_t cpus;
  };

  /// The expected-end index: one entry per distinct expected end of a busy
  /// CPU, ascending in time. Ends before `now` belong to overrunning jobs;
  /// callers clamp them as avail_time does.
  [[nodiscard]] const std::vector<BusyAtEnd>& busy_by_end() const {
    return busy_by_end_;
  }

  /// Marks `cpus` busy with `job` until `expected_end`. Throws bsld::Error,
  /// leaving the machine unchanged, when any CPU is already busy or listed
  /// twice.
  void assign(JobId job, const std::vector<CpuId>& cpus, Time expected_end);

  /// Frees the given CPUs. Throws bsld::Error, leaving the machine
  /// unchanged, when a CPU is not running `job` or is listed twice.
  void release(JobId job, const std::vector<CpuId>& cpus);

  /// Re-times a running job's expected end on the given CPUs (used when a
  /// job's frequency is raised mid-flight). Throws bsld::Error when a CPU
  /// is not running `job`.
  void update_expected_end(JobId job, const std::vector<CpuId>& cpus,
                           Time expected_end);

  /// Busy CPU count right now.
  [[nodiscard]] std::int32_t busy_now() const {
    return cpu_count() - free_now_;
  }

 private:
  void check_cpu(CpuId cpu) const {
    BSLD_REQUIRE(cpu >= 0 && cpu < cpu_count(), "Machine: cpu out of range");
  }
  /// The busy CPUs of word `w` whose expected end is <= t.
  [[nodiscard]] std::uint64_t busy_ending_by(std::size_t w, Time t) const;
  /// First index entry ending at or after `end`.
  std::vector<BusyAtEnd>::iterator index_at(Time end);
  /// Adds `count` CPUs ending at `end` to the expected-end index.
  void index_add(Time end, std::int32_t count);
  /// Takes `count` CPUs ending at `end` out of the expected-end index.
  void unindex(Time end, std::int32_t count);

  std::vector<JobId> jobs_;          ///< kNoJob when free.
  std::vector<Time> expected_end_;   ///< Valid only for busy CPUs.
  std::vector<std::uint64_t> free_words_;  ///< Bit set: CPU is free.
  std::vector<BusyAtEnd> busy_by_end_;     ///< Sorted by end.
  std::int32_t free_now_ = 0;
};

}  // namespace bsld::cluster
