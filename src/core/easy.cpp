#include "core/easy.hpp"

#include <bit>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace bsld::core {

EasyBackfilling::EasyBackfilling(
    std::unique_ptr<cluster::ResourceSelector> selector,
    std::unique_ptr<FrequencyAssigner> assigner)
    : selector_(std::move(selector)), assigner_(std::move(assigner)) {
  BSLD_REQUIRE(selector_ != nullptr, "EasyBackfilling: selector is required");
  BSLD_REQUIRE(assigner_ != nullptr, "EasyBackfilling: assigner is required");
}

const cluster::Reservation* EasyBackfilling::reservation() const {
  return reservation_.active() ? &reservation_ : nullptr;
}

std::string EasyBackfilling::name() const {
  std::ostringstream os;
  os << "EASY[" << selector_->name() << "," << assigner_->name() << "]";
  return os.str();
}

std::size_t EasyBackfilling::wq_size_excluding(JobId self) const {
  BSLD_REQUIRE(queue_.contains(self),
               "EasyBackfilling: WQsize queried for a job not in the queue");
  return queue_.size() - 1;
}

void EasyBackfilling::on_submit(SchedulerContext& ctx, JobId id) {
  queue_.push(id);
  if (queue_.size() == 1) {
    // The newcomer is the head: MakeJobReservation (start now or reserve).
    schedule_heads(ctx);
    return;
  }
  // A head reservation already exists (class invariant: a non-empty queue
  // always has one after every handler); machine state did not change, so
  // only the new job gets a backfill attempt.
  BSLD_REQUIRE(reservation_.active(),
               "EasyBackfilling: non-empty queue without a reservation");
  if (!try_backfill_one(ctx, id, ctx.job(id))) open_.push_back(id);
}

void EasyBackfilling::on_job_end(SchedulerContext& ctx, JobId id) {
  (void)id;  // CPUs are already released; identity is irrelevant here.
  // "Rescheduling of all queued jobs is done when a job finishes earlier
  // than it has been expected" — we rebuild the schedule on every
  // completion (an exact-time completion is the boundary case of that rule
  // and needs the same pass to start the jobs the completion unblocks).
  if (queue_.empty()) {
    reservation_.clear();
    return;
  }
  if (schedule_heads(ctx)) {
    backfill_scan(ctx);
  } else {
    open_.clear();  // every queued job started as a head.
  }
}

void EasyBackfilling::start_head(SchedulerContext& ctx, JobId id) {
  const wl::Job& job = ctx.job(id);
  const GearIndex gear = assigner_->reservation_gear(
      ctx, job, ctx.now(), wq_size_excluding(id));
  const std::vector<CpuId> cpus =
      selector_->select_at(ctx.machine(), job.size, ctx.now(), ctx.now());
  queue_.pop_head();
  ctx.start_job(id, cpus, gear);
}

bool EasyBackfilling::schedule_heads(SchedulerContext& ctx) {
  reservation_.clear();
  const cluster::Machine& machine = ctx.machine();
  while (!queue_.empty()) {
    const JobId head = queue_.head();
    const wl::Job& job = ctx.job(head);
    BSLD_REQUIRE(job.size <= machine.cpu_count(),
                 "EasyBackfilling: job larger than the machine");
    const Time start = machine.earliest_start(job.size, ctx.now());
    if (start <= ctx.now()) {
      start_head(ctx, head);
      continue;
    }
    // Future start: reserve the First-Fit CPU set available at `start`.
    // The head's earliest start does not depend on its gear (free capacity
    // is non-decreasing in time), so the reservation is gear-agnostic; the
    // binding gear decision happens at the pass in which the job starts
    // (DESIGN.md §4 decision 4).
    reservation_.job = head;
    reservation_.start = start;
    reservation_.set_cpus(
        selector_->select_at(machine, job.size, start, ctx.now()),
        machine.cpu_count());
    free_outside_reservation_ = machine.free_now();
    for (std::size_t w = 0; w < machine.word_count(); ++w) {
      free_outside_reservation_ -=
          std::popcount(reservation_.word(w) & machine.free_word(w));
    }
    return true;
  }
  return false;
}

void EasyBackfilling::backfill_scan(SchedulerContext& ctx) {
  // Compact open_ in place while trying its survivors in FCFS order. The
  // head never backfills (it owns the reservation and stays the head until
  // it starts); a closed job fails every later attempt, so skipping it
  // changes no decision. Only the tried job leaves the queue, so the ids
  // not yet visited stay valid.
  const JobId head = queue_.head();
  std::size_t kept = 0;
  for (const JobId id : open_) {
    if (id == head || !queue_.contains(id)) continue;
    const wl::Job& job = ctx.job(id);
    if (assigner_->backfill_closed(ctx, job)) continue;
    if (try_backfill_one(ctx, id, job)) continue;
    open_[kept++] = id;
  }
  open_.resize(kept);
}

bool EasyBackfilling::try_backfill_one(SchedulerContext& ctx, JobId id,
                                       const wl::Job& job) {
  const cluster::Machine& machine = ctx.machine();
  if (machine.free_now() < job.size) return false;  // cheap reject

  const Time now = ctx.now();
  const auto feasible = [&](GearIndex gear) {
    const Time end = now + job_scaled_duration(ctx, job, job.requested_time, gear);
    if (reservation_.active() && end > reservation_.start) {
      // Would still hold CPUs at the reserved start: only CPUs outside the
      // reservation qualify.
      return free_outside_reservation_ >= job.size;
    }
    return machine.free_now() >= job.size;
  };

  const std::optional<GearIndex> gear =
      assigner_->backfill_gear(ctx, job, feasible, wq_size_excluding(id));
  if (!gear) return false;

  const Time end = now + job_scaled_duration(ctx, job, job.requested_time, *gear);
  const std::optional<std::vector<CpuId>> cpus = selector_->select_backfill(
      machine, job.size, now, end, reservation_.active() ? &reservation_ : nullptr);
  BSLD_REQUIRE(cpus.has_value(),
               "EasyBackfilling: selector disagreed with feasibility counters");
  for (const CpuId cpu : *cpus) {
    if (reservation_.active() && !reservation_.contains(cpu)) {
      --free_outside_reservation_;
    }
  }
  queue_.remove(id);
  ctx.start_job(id, *cpus, *gear);
  return true;
}

}  // namespace bsld::core
