#include "core/easy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "testing/helpers.hpp"
#include "testing/oracles.hpp"
#include "util/error.hpp"

namespace bsld::core {
namespace {

using testing::Models;
using testing::job;
using testing::workload;

class EasyTest : public ::testing::Test {
 protected:
  Models models_;
};

TEST_F(EasyTest, RequiresCollaborators) {
  EXPECT_THROW(EasyBackfilling(nullptr, std::make_unique<TopFrequency>()),
               Error);
  EXPECT_THROW(
      EasyBackfilling(cluster::make_selector("FirstFit"), nullptr), Error);
}

TEST_F(EasyTest, NameReflectsComposition) {
  const EasyBackfilling policy(cluster::make_selector("FirstFit"),
                               std::make_unique<TopFrequency>());
  EXPECT_EQ(policy.name(), "EASY[FirstFit,Ftop]");
}

TEST_F(EasyTest, FcfsOrderWhenNoBackfillPossible) {
  // Identical full-machine jobs must run strictly in submit order.
  const auto result = testing::run(
      workload(4, {job(1, 0, 100, 100, 4), job(2, 1, 100, 100, 4),
                   job(3, 2, 100, 100, 4)}),
      models_);
  EXPECT_EQ(result.jobs[0].start, 0);
  EXPECT_EQ(result.jobs[1].start, 100);
  EXPECT_EQ(result.jobs[2].start, 200);
}

TEST_F(EasyTest, BackfillNeverDelaysHeadReservation) {
  // Head (job 2) reserves all CPUs at t=1200 (job 1's requested end).
  // Job 3 (1500 s) would cross the shadow on a reserved CPU, so it must
  // NOT backfill; job 4 (100 s, finishes before the shadow) must.
  const auto result = testing::run(
      workload(4, {job(1, 0, 1200, 1200, 3), job(2, 10, 500, 600, 4),
                   job(3, 20, 1500, 1500, 1), job(4, 30, 100, 100, 1)}),
      models_);
  EXPECT_EQ(result.jobs[1].start, 1200);  // reservation honoured exactly
  EXPECT_GE(result.jobs[2].start, 1200);  // job 3 did not backfill
  EXPECT_EQ(result.jobs[3].start, 30);    // job 4 backfilled at submit
}

TEST_F(EasyTest, EarlyCompletionTriggersRescheduling) {
  // Job 1 requests 2000 s but ends at 500: the head must start at 500,
  // not at the requested end.
  const auto result = testing::run(
      workload(2, {job(1, 0, 500, 2000, 2), job(2, 10, 100, 200, 2)}),
      models_);
  EXPECT_EQ(result.jobs[1].start, 500);
}

TEST_F(EasyTest, BackfilledJobRunsOutsideReservedCpusWhenCrossingShadow) {
  // 4 CPUs: job 1 on {0,1} until 1000. Head job 2 wants 3 -> reserved
  // start 1000 on {0,1,2} (First Fit at t=1000). Job 3 (2 CPUs, 2000 s,
  // crosses the shadow) fits only if CPUs {2,3} minus reservation overlap
  // -> only CPU 3 outside the reservation: must NOT start.
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1000, 2), job(2, 10, 500, 500, 3),
                   job(3, 20, 2000, 2000, 2)}),
      models_);
  EXPECT_EQ(result.jobs[1].start, 1000);
  EXPECT_GE(result.jobs[2].start, 1500);  // after head completes
}

TEST_F(EasyTest, SingleCpuCrossingShadowOutsideReservationBackfills) {
  // Same setup but job 3 needs only 1 CPU: CPU 3 is free and outside the
  // reserved set, so the long job backfills immediately.
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1000, 2), job(2, 10, 500, 500, 3),
                   job(3, 20, 2000, 2000, 1)}),
      models_);
  EXPECT_EQ(result.jobs[2].start, 20);
  EXPECT_EQ(result.jobs[1].start, 1000);  // still on time
}

TEST_F(EasyTest, QueueSizeTracksWaitingJobs) {
  EasyBackfilling policy(cluster::make_selector("FirstFit"),
                         std::make_unique<TopFrequency>());
  EXPECT_EQ(policy.queue_size(), 0u);
  EXPECT_EQ(policy.reservation(), nullptr);
}

TEST_F(EasyTest, ReservationGearAgnosticButStartGearDecidedLate) {
  // With DVFS: job 1 itself is reduced (lone arrival, zero wait) and runs
  // 600 * 1.9375 ~ 1162 s. The head (job 2) reserved against job 1's
  // *requested* end but starts the moment job 1 really finishes, and its
  // gear reflects that actual wait.
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  const auto result = testing::run(
      workload(2, {job(1, 0, 600, 4000, 2), job(2, 10, 7000, 7200, 2)}),
      models_, testing::policy("easy", dvfs));
  EXPECT_EQ(result.jobs[0].gear, 0);
  EXPECT_EQ(result.jobs[0].end, 1162);
  EXPECT_EQ(result.jobs[1].start, 1162);
  // Wait 1152 s on RQ 7200: (1152 + 7200*1.9375)/7200 = 2.097 > 2 at
  // gear 0; (1152 + 7200*1.545)/7200 = 1.705 <= 2 at gear 1 -> gear 1.
  EXPECT_EQ(result.jobs[1].gear, 1);
}

TEST_F(EasyTest, DvfsDilationBlocksShadowCrossingBackfill) {
  // Job 1 is itself reduced (zero wait) and occupies its CPUs until
  // 1000 * 1.9375 = 1937, which is also the head's reserved start. Job 3
  // at the lowest gear would run past that shadow (20 + 1200*1.9375 >
  // 1937) with no CPU outside the reservation, so the Fig. 2 loop climbs
  // to gear 1 (20 + 1200*1.545 = 1874 <= 1937), which also passes the
  // BSLD test.
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 3.0;  // permissive: feasibility decides, not BSLD
  dvfs.wq_threshold = std::nullopt;
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1000, 3), job(2, 10, 500, 500, 4),
                   job(3, 20, 1150, 1200, 1)}),
      models_, testing::policy("easy", dvfs));
  EXPECT_EQ(result.jobs[0].gear, 0);
  EXPECT_EQ(result.jobs[2].start, 20);
  EXPECT_EQ(result.jobs[2].gear, 1);
}

TEST_F(EasyTest, WqThresholdGatesBackfilledJobs) {
  // With WQ=0, a job backfilled while others wait must run at Ftop.
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 3.0;
  dvfs.wq_threshold = 0;
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1000, 3), job(2, 10, 500, 500, 4),
                   job(3, 20, 100, 150, 1)}),
      models_, testing::policy("easy", dvfs));
  // Job 3 backfills at 20 but the queue holds job 2 -> Ftop.
  EXPECT_EQ(result.jobs[2].start, 20);
  EXPECT_EQ(result.jobs[2].gear, models_.gears.top_index());
}

/// Forwards to the paper's assigner and logs, in call order, every
/// backfill_gear offer and every backfill_closed answer.
class CountingAssigner final : public FrequencyAssigner {
 public:
  struct Call {
    JobId id;
    Time now;
    bool closure;  ///< backfill_closed (else backfill_gear).
    bool closed;   ///< backfill_closed's answer.
  };

  CountingAssigner(DvfsConfig config, std::vector<Call>& log)
      : inner_(config), log_(log) {}

  [[nodiscard]] GearIndex reservation_gear(const SchedulerContext& ctx,
                                           const wl::Job& job, Time start,
                                           std::size_t wq_size) const override {
    return inner_.reservation_gear(ctx, job, start, wq_size);
  }
  [[nodiscard]] std::optional<GearIndex> backfill_gear(
      const SchedulerContext& ctx, const wl::Job& job,
      util::FunctionRef<bool(GearIndex)> feasible,
      std::size_t wq_size) const override {
    log_.push_back({job.id, ctx.now(), false, false});
    return inner_.backfill_gear(ctx, job, feasible, wq_size);
  }
  [[nodiscard]] bool backfill_closed(const SchedulerContext& ctx,
                                     const wl::Job& job) const override {
    const bool closed = inner_.backfill_closed(ctx, job);
    log_.push_back({job.id, ctx.now(), true, closed});
    return closed;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  BsldThresholdAssigner inner_;
  std::vector<Call>& log_;
};

TEST_F(EasyTest, ClosedJobsAreNeverOfferedForBackfillAgain) {
  // Jobs 1-4 hold one CPU each until 1000..4000; head job 5 reserves all
  // four at 4000. Jobs 6-10 (2 CPUs, RQ 100 s) fit no earlier than the
  // 2000 pass, when their predicted BSLD at Ftop is (1990 + 100) / 600 >
  // 2: they close there, skip the 3000 pass in which job 11 backfills, and
  // start as heads after job 5. Beta 0 keeps every gear's duration equal.
  std::vector<wl::Job> jobs = {
      job(1, 0, 1000, 1000, 1),   job(2, 0, 2000, 2000, 1),
      job(3, 0, 3000, 3000, 1),   job(4, 0, 4000, 4000, 1),
      job(5, 0, 1000, 1000, 4),   job(6, 10, 100, 100, 2),
      job(7, 10, 100, 100, 2),    job(8, 10, 100, 100, 2),
      job(9, 10, 100, 100, 2),    job(10, 10, 100, 100, 2),
      job(11, 2500, 100, 100, 3)};
  for (wl::Job& entry : jobs) entry.beta = 0.0;
  const wl::Workload load = workload(4, jobs);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 0;

  std::vector<CountingAssigner::Call> log;
  EasyBackfilling policy(cluster::make_selector("FirstFit"),
                         std::make_unique<CountingAssigner>(dvfs, log));
  sim::Simulation simulation(load, policy, models_.power, models_.time);
  const sim::SimulationResult result = simulation.run();

  std::map<JobId, Time> closed_at;
  for (const CountingAssigner::Call& call : log) {
    if (closed_at.contains(call.id)) {
      ADD_FAILURE() << "job " << call.id << " closed at "
                    << closed_at[call.id] << " was "
                    << (call.closure ? "asked about closure" : "offered")
                    << " again at " << call.now;
    }
    if (call.closure && call.closed) closed_at[call.id] = call.now;
  }
  EXPECT_EQ(closed_at, (std::map<JobId, Time>{
                           {6, 2000}, {7, 2000}, {8, 2000}, {9, 2000},
                           {10, 2000}}));
  EXPECT_EQ(result.jobs[10].start, 3000);  // job 11 backfilled after them
  for (std::size_t i = 5; i < 10; ++i) {
    EXPECT_GE(result.jobs[i].start, 5000);  // closed jobs start as heads
  }

  // The full-scan reference offers the same closed jobs at 3000 again.
  std::vector<CountingAssigner::Call> reference_log;
  testing::ReferenceEasy reference(
      cluster::make_selector("FirstFit"),
      std::make_unique<CountingAssigner>(dvfs, reference_log));
  sim::Simulation replay(load, reference, models_.power, models_.time);
  const sim::SimulationResult replayed = replay.run();
  EXPECT_TRUE(std::any_of(reference_log.begin(), reference_log.end(),
                          [](const CountingAssigner::Call& call) {
                            return call.id == 6 && call.now == 3000;
                          }));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(replayed.jobs[i].start, result.jobs[i].start);
    EXPECT_EQ(replayed.jobs[i].gear, result.jobs[i].gear);
  }
}

TEST_F(EasyTest, LoneArrivalOnEmptyMachineGetsDvfs) {
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 0;
  const auto result =
      testing::run(workload(4, {job(1, 0, 5000, 5400, 2)}), models_,
                   testing::policy("easy", dvfs));
  EXPECT_EQ(result.jobs[0].gear, 0);  // empty queue: WQ=0 still allows DVFS
}

}  // namespace
}  // namespace bsld::core
