#include "core/conservative.hpp"

#include <gtest/gtest.h>

#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace bsld::core {
namespace {

using testing::Models;
using testing::job;
using testing::workload;

class ConservativeTest : public ::testing::Test {
 protected:
  Models models_;
};

TEST_F(ConservativeTest, RequiresCollaborators) {
  EXPECT_THROW(
      ConservativeBackfilling(nullptr, std::make_unique<TopFrequency>()),
      Error);
  EXPECT_THROW(
      ConservativeBackfilling(cluster::make_selector("FirstFit"), nullptr),
      Error);
}

TEST_F(ConservativeTest, NameReflectsComposition) {
  const ConservativeBackfilling policy(cluster::make_selector("FirstFit"),
                                       std::make_unique<TopFrequency>());
  EXPECT_EQ(policy.name(), "CONS[FirstFit,Ftop]");
}

TEST_F(ConservativeTest, BackfillsIntoHolesLikeEasy) {
  // Short narrow job slides ahead of a wide head without delaying it.
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1200, 3), job(2, 10, 500, 600, 4),
                   job(3, 20, 100, 150, 1)}),
      models_, testing::policy("conservative"));
  EXPECT_EQ(result.jobs[2].start, 20);
  EXPECT_EQ(result.jobs[1].start, 1000);
}

TEST_F(ConservativeTest, ProtectsEveryReservationNotJustTheHead) {
  // 4 CPUs. Job 1 holds everything until 1000 (req == run). Queue: job 2
  // (4 CPUs, long) then job 3 (4 CPUs, short) then job 4 (1 CPU, runs 950).
  // EASY reserves only for job 2 (start 1000) and would happily backfill
  // job 4 anywhere it fits now — nowhere, so both wait. The interesting
  // case: after job 1 ends, job 4 must not start in a way that delays job
  // 3's reservation (the *second* queued job) under conservative rules.
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1000, 4), job(2, 10, 500, 500, 4),
                   job(3, 20, 200, 200, 4), job(4, 30, 950, 1000, 1)}),
      models_, testing::policy("conservative"));
  // Plan: job2 @1000-1500, job3 @1500-1700, job4 may start @1700 or slot
  // into nothing earlier (its 1000 s crosses both reservations).
  EXPECT_EQ(result.jobs[1].start, 1000);
  EXPECT_EQ(result.jobs[2].start, 1500);
  EXPECT_EQ(result.jobs[3].start, 1700);
}

TEST_F(ConservativeTest, ShortJobUsesHoleBetweenReservations) {
  // Like above but job 4 fits exactly into the 1000..1500 spare CPU — wait,
  // job 2 uses all 4 CPUs, so the only hole is after 1700. Give job 2 just
  // 3 CPUs instead: job 4 (1 CPU, 400 s) fits alongside it at 1000.
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1000, 4), job(2, 10, 500, 500, 3),
                   job(3, 20, 200, 200, 4), job(4, 30, 400, 450, 1)}),
      models_, testing::policy("conservative"));
  EXPECT_EQ(result.jobs[1].start, 1000);
  EXPECT_EQ(result.jobs[3].start, 1000);  // hole next to job 2
  EXPECT_EQ(result.jobs[2].start, 1500);  // still on time
}

TEST_F(ConservativeTest, EarlyCompletionCompressesSchedule) {
  const auto result = testing::run(
      workload(2, {job(1, 0, 300, 2000, 2), job(2, 10, 100, 200, 2)}),
      models_, testing::policy("conservative"));
  EXPECT_EQ(result.jobs[1].start, 300);  // compressed to the real end
}

TEST_F(ConservativeTest, ComposesWithDvfsAssigner) {
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  const auto result =
      testing::run(workload(4, {job(1, 0, 5000, 5400, 2)}), models_,
                   testing::policy("conservative", dvfs));
  EXPECT_EQ(result.jobs[0].gear, 0);
  EXPECT_EQ(result.reduced_jobs, 1);
}

TEST_F(ConservativeTest, NeverWorseThanFcfsOnTheseTraces) {
  const wl::Workload load =
      workload(8, {job(1, 0, 1000, 1200, 6), job(2, 10, 500, 600, 8),
                   job(3, 20, 100, 150, 2), job(4, 25, 200, 250, 1),
                   job(5, 40, 400, 500, 2)});
  const auto cons =
      testing::run(load, models_, testing::policy("conservative"));
  const auto fcfs = testing::run(load, models_, testing::policy("fcfs"));
  EXPECT_LE(cons.avg_wait, fcfs.avg_wait);
}

TEST_F(ConservativeTest, DrainsEverythingDeterministically) {
  std::vector<wl::Job> jobs;
  for (int i = 0; i < 60; ++i) {
    jobs.push_back(job(i + 1, i * 37, 200 + (i % 7) * 100,
                       300 + (i % 7) * 100, 1 + (i % 8)));
  }
  const wl::Workload load = workload(8, jobs);
  const auto a = testing::run(load, models_, testing::policy("conservative"));
  const auto b = testing::run(load, models_, testing::policy("conservative"));
  ASSERT_EQ(a.jobs.size(), 60u);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].start, b.jobs[i].start);
    EXPECT_EQ(a.jobs[i].gear, b.jobs[i].gear);
  }
}

}  // namespace
}  // namespace bsld::core
