#include "core/fcfs.hpp"

#include <gtest/gtest.h>

#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace bsld::core {
namespace {

using testing::Models;
using testing::job;
using testing::workload;

class FcfsTest : public ::testing::Test {
 protected:
  Models models_;
};

TEST_F(FcfsTest, RequiresCollaborators) {
  EXPECT_THROW(Fcfs(nullptr, std::make_unique<TopFrequency>()), Error);
  EXPECT_THROW(Fcfs(cluster::make_selector("FirstFit"), nullptr), Error);
}

TEST_F(FcfsTest, NameReflectsComposition) {
  const Fcfs policy(cluster::make_selector("FirstFit"),
                    std::make_unique<TopFrequency>());
  EXPECT_EQ(policy.name(), "FCFS[FirstFit,Ftop]");
}

TEST_F(FcfsTest, NoOvertakingEvenWhenBackfillWouldFit) {
  // EASY would backfill job 3 onto the idle CPU; FCFS must not.
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1200, 3), job(2, 10, 500, 600, 4),
                   job(3, 20, 100, 150, 1)}),
      models_, testing::policy("fcfs"));
  EXPECT_EQ(result.jobs[0].start, 0);
  EXPECT_EQ(result.jobs[1].start, 1000);
  EXPECT_EQ(result.jobs[2].start, 1500);  // strictly after job 2
}

TEST_F(FcfsTest, HeadStartsAsSoonAsItFits) {
  const auto result = testing::run(
      workload(4, {job(1, 0, 100, 100, 2), job(2, 0, 100, 100, 2)}),
      models_, testing::policy("fcfs"));
  EXPECT_EQ(result.jobs[0].start, 0);
  EXPECT_EQ(result.jobs[1].start, 0);  // both fit side by side
}

TEST_F(FcfsTest, DrainsMultipleHeadsOnOneCompletion) {
  const auto result = testing::run(
      workload(4, {job(1, 0, 100, 100, 4), job(2, 1, 50, 60, 2),
                   job(3, 2, 50, 60, 2)}),
      models_, testing::policy("fcfs"));
  EXPECT_EQ(result.jobs[1].start, 100);
  EXPECT_EQ(result.jobs[2].start, 100);  // both start when job 1 frees
}

TEST_F(FcfsTest, DvfsAssignerComposesWithFcfs) {
  // The paper's portability claim: the assigner is policy-agnostic.
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  const auto result =
      testing::run(workload(4, {job(1, 0, 5000, 5400, 2)}), models_,
                   testing::policy("fcfs", dvfs));
  EXPECT_EQ(result.jobs[0].gear, 0);
  EXPECT_EQ(result.reduced_jobs, 1);
}

TEST_F(FcfsTest, EasyNeverWorseOnTheseTraces) {
  // Sanity anchor on fixed traces: EASY's avg wait must not exceed FCFS's
  // (backfilling only uses otherwise-idle CPUs here).
  const wl::Workload load =
      workload(4, {job(1, 0, 1000, 1200, 3), job(2, 10, 500, 600, 4),
                   job(3, 20, 100, 150, 1), job(4, 25, 200, 250, 1)});
  const auto easy = testing::run(load, models_);
  const auto fcfs = testing::run(load, models_, testing::policy("fcfs"));
  EXPECT_LE(easy.avg_wait, fcfs.avg_wait);
}

}  // namespace
}  // namespace bsld::core
