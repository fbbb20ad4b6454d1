#include "core/frequency.hpp"

#include <gtest/gtest.h>

#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace bsld::core {
namespace {

class FrequencyTest : public ::testing::Test {
 protected:
  FrequencyTest() : context_(8, models_.time) {
    // A long job (requested 7200 s >> Th) submitted at t=0.
    context_.add_job(testing::job(1, 0, 7000, 7200, 4));
    // A short job (requested 300 s < Th).
    context_.add_job(testing::job(2, 0, 200, 300, 1));
  }

  DvfsConfig config(double threshold, std::optional<std::int64_t> wq) {
    DvfsConfig out;
    out.bsld_threshold = threshold;
    out.wq_threshold = wq;
    return out;
  }

  testing::Models models_;
  testing::FakeContext context_;
};

TEST_F(FrequencyTest, TopFrequencyAlwaysTop) {
  const TopFrequency assigner;
  EXPECT_EQ(assigner.reservation_gear(context_, context_.job(1), 0, 100),
            models_.gears.top_index());
  const auto gear = assigner.backfill_gear(
      context_, context_.job(1), [](GearIndex) { return true; }, 100);
  ASSERT_TRUE(gear.has_value());
  EXPECT_EQ(*gear, models_.gears.top_index());
  EXPECT_FALSE(assigner
                   .backfill_gear(context_, context_.job(1),
                                  [](GearIndex) { return false; }, 0)
                   .has_value());
}

TEST_F(FrequencyTest, LowestSatisfyingGearWins) {
  // Zero wait, long job: predicted BSLD at gear g equals Coef(g).
  // Coef = [1.9375, 1.545, 1.321, 1.176, 1.075, 1.0].
  const BsldThresholdAssigner loose(config(2.0, std::nullopt));
  EXPECT_EQ(loose.reservation_gear(context_, context_.job(1), 0, 0), 0);

  const BsldThresholdAssigner tight(config(1.5, std::nullopt));
  // 1.9375 > 1.5, 1.545 > 1.5, 1.321 <= 1.5 -> gear 2.
  EXPECT_EQ(tight.reservation_gear(context_, context_.job(1), 0, 0), 2);
}

TEST_F(FrequencyTest, WaitPushesGearUp) {
  const BsldThresholdAssigner assigner(config(2.0, std::nullopt));
  // With 5802 s of wait (start 5802, submit 0) and RQ=7200:
  // gear 3: (5802 + 7200*1.176)/7200 = 1.98 <= 2, gear 2 fails.
  EXPECT_EQ(assigner.reservation_gear(context_, context_.job(1), 5802, 0), 3);
}

TEST_F(FrequencyTest, FtopFallbackWhenNothingSatisfies) {
  const BsldThresholdAssigner assigner(config(2.0, std::nullopt));
  // Enormous wait: even Ftop exceeds the threshold; the head job must
  // still be scheduled at Ftop (DESIGN.md §4 decision 2).
  EXPECT_EQ(assigner.reservation_gear(context_, context_.job(1), 100000, 0),
            models_.gears.top_index());
}

TEST_F(FrequencyTest, ShortJobFloorAbsorbsDilation) {
  const BsldThresholdAssigner assigner(config(1.5, std::nullopt));
  // RQ=300 < Th=600: predicted = (0 + 300*1.9375)/600 = 0.97 -> 1 <= 1.5.
  EXPECT_EQ(assigner.reservation_gear(context_, context_.job(2), 0, 0), 0);
}

TEST_F(FrequencyTest, WqGateForcesTop) {
  const BsldThresholdAssigner assigner(config(3.0, 4));
  EXPECT_EQ(assigner.reservation_gear(context_, context_.job(1), 0, 4), 0);
  EXPECT_EQ(assigner.reservation_gear(context_, context_.job(1), 0, 5),
            models_.gears.top_index());
}

TEST_F(FrequencyTest, WqZeroAllowsDvfsOnlyWhenAlone) {
  const BsldThresholdAssigner assigner(config(3.0, 0));
  EXPECT_EQ(assigner.reservation_gear(context_, context_.job(1), 0, 0), 0);
  EXPECT_EQ(assigner.reservation_gear(context_, context_.job(1), 0, 1),
            models_.gears.top_index());
}

TEST_F(FrequencyTest, WqCountsSelfMakesZeroThresholdInert) {
  DvfsConfig with_self = config(3.0, 0);
  with_self.wq_counts_self = true;
  const BsldThresholdAssigner assigner(with_self);
  // Even an empty queue counts the job itself: 1 > 0 -> Ftop.
  EXPECT_EQ(assigner.reservation_gear(context_, context_.job(1), 0, 0),
            models_.gears.top_index());
}

TEST_F(FrequencyTest, NoLimitIgnoresQueue) {
  const BsldThresholdAssigner assigner(config(2.0, std::nullopt));
  EXPECT_EQ(assigner.reservation_gear(context_, context_.job(1), 0, 100000), 0);
}

TEST_F(FrequencyTest, BackfillPicksLowestFeasibleSatisfyingGear) {
  const BsldThresholdAssigner assigner(config(2.0, std::nullopt));
  // Gears 0-1 infeasible (dilated job would cross the shadow), gear 2+
  // feasible; BSLD satisfied everywhere (zero wait, long job, thr 2 ...
  // gear 0 satisfies but is infeasible; expect the first feasible gear).
  const auto gear = assigner.backfill_gear(
      context_, context_.job(1), [](GearIndex g) { return g >= 2; }, 0);
  ASSERT_TRUE(gear.has_value());
  EXPECT_EQ(*gear, 2);
}

TEST_F(FrequencyTest, BackfillNulloptWhenNothingWorks) {
  const BsldThresholdAssigner assigner(config(2.0, std::nullopt));
  EXPECT_FALSE(assigner
                   .backfill_gear(context_, context_.job(1),
                                  [](GearIndex) { return false; }, 0)
                   .has_value());
}

TEST_F(FrequencyTest, BackfillOverWqLiteralElseBranch) {
  // Fig. 2 else-branch: queue over threshold -> only Ftop, and the literal
  // pseudocode also demands satisfiesBSLD at Ftop.
  const BsldThresholdAssigner assigner(config(2.0, 0));
  context_.set_now(100000);  // job 1 has waited 100000 s: BSLD(Ftop) > 2
  EXPECT_FALSE(assigner
                   .backfill_gear(context_, context_.job(1),
                                  [](GearIndex) { return true; }, 5)
                   .has_value());

  DvfsConfig relaxed = config(2.0, 0);
  relaxed.backfill_requires_bsld_at_top = false;
  const BsldThresholdAssigner lenient(relaxed);
  const auto gear = lenient.backfill_gear(
      context_, context_.job(1), [](GearIndex) { return true; }, 5);
  ASSERT_TRUE(gear.has_value());
  EXPECT_EQ(*gear, models_.gears.top_index());
}

TEST_F(FrequencyTest, BackfillClosureIsPermanentAndRejectsEveryWqSize) {
  // Scan the clock forward: once backfill_closed answers true it keeps
  // answering true, and from then on backfill_gear rejects the job even
  // with every gear feasible, on both sides of the WQ threshold.
  const auto all_feasible = [](GearIndex) { return true; };
  for (const double threshold : {1.0, 1.5, 2.0, 3.0}) {
    for (const std::optional<std::int64_t> wq :
         {std::optional<std::int64_t>{0}, std::optional<std::int64_t>{16},
          std::optional<std::int64_t>{}}) {
      const BsldThresholdAssigner assigner(config(threshold, wq));
      for (const double beta : {-1.0, 0.0, 0.3, 1.0}) {
        for (const JobId id : {JobId{1}, JobId{2}}) {
          wl::Job job = context_.job(id);
          job.beta = beta;
          context_.add_job(job);
          Time closed_at = kNoTime;
          for (Time now = 0; now <= 100'000; now += 37) {
            context_.set_now(now);
            const bool closed = assigner.backfill_closed(context_, job);
            if (closed_at != kNoTime) {
              ASSERT_TRUE(closed) << "reopened at " << now << " after "
                                  << closed_at << ", job " << id;
            }
            if (!closed) continue;
            if (closed_at == kNoTime) closed_at = now;
            for (const std::size_t wq_size : {0u, 1u, 5u, 16u, 17u, 1000u}) {
              ASSERT_FALSE(assigner
                               .backfill_gear(context_, job, all_feasible,
                                              wq_size)
                               .has_value())
                  << "closed job " << id << " backfilled at " << now;
            }
          }
          // 100000 s of wait puts every job over every threshold.
          EXPECT_NE(closed_at, kNoTime) << "job " << id;
        }
      }
    }
  }
}

TEST_F(FrequencyTest, NoClosureForFtopOrTheAblatedLiteralCheck) {
  context_.set_now(100'000);  // BSLD at Ftop far over any threshold.
  EXPECT_FALSE(TopFrequency().backfill_closed(context_, context_.job(1)));
  DvfsConfig ablated = config(2.0, 0);
  ablated.backfill_requires_bsld_at_top = false;
  const BsldThresholdAssigner lenient(ablated);
  EXPECT_FALSE(lenient.backfill_closed(context_, context_.job(1)));
  // Still backfillable at Ftop once the queue passes the WQ threshold.
  EXPECT_TRUE(lenient
                  .backfill_gear(context_, context_.job(1),
                                 [](GearIndex) { return true; }, 5)
                  .has_value());
  EXPECT_TRUE(BsldThresholdAssigner(config(2.0, 0))
                  .backfill_closed(context_, context_.job(1)));
}

TEST_F(FrequencyTest, SatisfiesBsldMatchesEquation2) {
  const BsldThresholdAssigner assigner(config(2.0, std::nullopt));
  // (5802 + 7200*1.176)/7200 = 1.982 <= 2.
  EXPECT_TRUE(assigner.satisfies_bsld(context_, context_.job(1), 5802, 3));
  // (5802 + 7200*1.321)/7200 = 2.127 > 2.
  EXPECT_FALSE(assigner.satisfies_bsld(context_, context_.job(1), 5802, 2));
}

TEST_F(FrequencyTest, NamesDescribeConfiguration) {
  EXPECT_EQ(BsldThresholdAssigner(config(2.0, 16)).name(), "BSLD<=2,WQ<=16");
  EXPECT_EQ(BsldThresholdAssigner(config(1.5, std::nullopt)).name(),
            "BSLD<=1.5,WQ<=NO");
  EXPECT_EQ(TopFrequency().name(), "Ftop");
}

TEST_F(FrequencyTest, InvalidConfigsRejected) {
  EXPECT_THROW(BsldThresholdAssigner{config(0.5, std::nullopt)}, Error);
  EXPECT_THROW(BsldThresholdAssigner{config(2.0, -1)}, Error);
  DvfsConfig bad = config(2.0, std::nullopt);
  bad.bsld_floor = 0;
  EXPECT_THROW(BsldThresholdAssigner{bad}, Error);
}

}  // namespace
}  // namespace bsld::core
