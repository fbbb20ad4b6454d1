/// \file easy.hpp
/// \brief EASY backfilling (Mu'alem & Feitelson) with pluggable frequency
/// assignment — the paper's power-aware scheduler when combined with
/// BsldThresholdAssigner, and the baseline when combined with TopFrequency.
///
/// Semantics (paper §2.1/§2.2):
///  * jobs run in FCFS order; only the head of the wait queue holds a
///    reservation at its earliest possible start time;
///  * a later job may be backfilled iff it can start immediately without
///    delaying the reservation (it must either finish before the reserved
///    start or use only CPUs outside the reserved set);
///  * all queued jobs are rescheduled whenever a job finishes (early
///    completions shift the whole schedule, so the reservation is
///    recomputed from scratch);
///  * gear selection follows Fig. 1 (head path) and Fig. 2 (backfill path)
///    via the injected FrequencyAssigner.
///
/// A queued job the assigner reports closed for backfill
/// (FrequencyAssigner::backfill_closed) is never offered for backfill
/// again; it stays queued, counts in WQsize and starts as a head.
#pragma once

#include <memory>
#include <vector>

#include "cluster/first_fit.hpp"
#include "core/frequency.hpp"
#include "core/scheduler.hpp"
#include "core/wait_queue.hpp"

namespace bsld::core {

/// EASY backfilling policy.
class EasyBackfilling final : public SchedulingPolicy {
 public:
  /// Both collaborators are required; the policy owns them.
  EasyBackfilling(std::unique_ptr<cluster::ResourceSelector> selector,
                  std::unique_ptr<FrequencyAssigner> assigner);

  void on_submit(SchedulerContext& ctx, JobId id) override;
  void on_job_end(SchedulerContext& ctx, JobId id) override;

  [[nodiscard]] std::size_t queue_size() const override {
    return queue_.size();
  }
  [[nodiscard]] const cluster::Reservation* reservation() const override;
  [[nodiscard]] std::string name() const override;

 private:
  /// Jobs waiting on execution other than `self` (WQsize of the paper).
  [[nodiscard]] std::size_t wq_size_excluding(JobId self) const;

  /// Starts queued head jobs while possible, then (re)builds the head
  /// reservation. Returns true when a reservation is active afterwards.
  bool schedule_heads(SchedulerContext& ctx);

  /// One FCFS scan over the open candidates attempting backfills; drops
  /// candidates that left the queue, became the head or closed.
  void backfill_scan(SchedulerContext& ctx);

  /// BackfillJob(J) for a single candidate (`job` is ctx.job(id)); true
  /// when it started.
  bool try_backfill_one(SchedulerContext& ctx, JobId id, const wl::Job& job);

  /// MakeJobReservation's immediate-start body for the current head.
  void start_head(SchedulerContext& ctx, JobId id);

  std::unique_ptr<cluster::ResourceSelector> selector_;
  std::unique_ptr<FrequencyAssigner> assigner_;
  WaitQueue queue_;
  cluster::Reservation reservation_;
  /// Free CPUs outside the reserved set (maintained during backfill scans).
  std::int32_t free_outside_reservation_ = 0;
  /// Queued non-head jobs still open for backfill, in FCFS order. After
  /// every handler this is a subsequence of queue_ without its head; jobs
  /// that start as heads are dropped by the same pass.
  std::vector<JobId> open_;
};

}  // namespace bsld::core
