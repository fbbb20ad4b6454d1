#include "core/easy.hpp"

#include <gtest/gtest.h>

#include "testing/helpers.hpp"
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
