#include "workload/cleaner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace bsld::wl {
namespace {

/// The jobs a CleaningJobStream keeps from `jobs`, and its final report.
struct Cleaned {
  std::vector<Job> jobs;
  CleanReport report;
};

Cleaned clean_jobs(std::vector<Job> jobs, const CleanOptions& options = {}) {
  Workload workload;
  workload.name = "test";
  workload.cpus = 100;
  workload.jobs = std::move(jobs);
  CleaningJobStream stream(
      std::make_unique<VectorJobStream>(std::move(workload)), options);
  Cleaned out;
  out.jobs = materialize(stream).jobs;
  out.report = stream.report();
  return out;
}

TEST(CleanerTest, DropsInvalidRecords) {
  const Cleaned cleaned = clean_jobs({
      {1, 0, 100, 200, 4, 0},
      {2, 0, 100, 200, 0, 0},    // size 0
      {3, 0, -5, 200, 4, 0},     // negative runtime
      {4, -1, 100, 200, 4, 0},   // negative submit
  });
  EXPECT_EQ(cleaned.report.kept, 1u);
  EXPECT_EQ(cleaned.report.dropped_invalid, 3u);
  ASSERT_EQ(cleaned.jobs.size(), 1u);
  EXPECT_EQ(cleaned.jobs[0].id, 1);
}

TEST(CleanerTest, DropsZeroRuntimeByDefaultKeepsWhenDisabled) {
  CleanOptions options;
  EXPECT_EQ(clean_jobs({{1, 0, 0, 200, 4, 0}}, options).report.kept, 0u);

  options.drop_zero_runtime = false;
  EXPECT_EQ(clean_jobs({{1, 0, 0, 200, 4, 0}}, options).report.kept, 1u);
}

TEST(CleanerTest, ClampsOversizedJobs) {
  CleanOptions options;
  options.machine_cpus = 100;
  const Cleaned cleaned = clean_jobs({{1, 0, 100, 200, 500, 0}}, options);
  EXPECT_EQ(cleaned.report.clamped_size, 1u);
  EXPECT_EQ(cleaned.jobs[0].size, 100);
}

TEST(CleanerTest, NoClampWhenMachineUnknown) {
  CleanOptions options;
  options.machine_cpus = 0;
  const Cleaned cleaned = clean_jobs({{1, 0, 100, 200, 500, 0}}, options);
  EXPECT_EQ(cleaned.jobs[0].size, 500);
}

TEST(CleanerTest, RepairsEstimatesBelowRuntime) {
  const Cleaned cleaned = clean_jobs({{1, 0, 300, 100, 4, 0}});
  EXPECT_EQ(cleaned.report.clamped_runtime, 1u);
  EXPECT_EQ(cleaned.jobs[0].requested_time, 300);
}

TEST(CleanerTest, FillsMissingEstimates) {
  const Cleaned cleaned = clean_jobs({{1, 0, 300, 0, 4, 0}});
  EXPECT_EQ(cleaned.jobs[0].requested_time, 300);
}

TEST(CleanerTest, FlurryRemoval) {
  // User 9 submits 5 jobs within a minute; limit is 3 per hour window.
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back({i + 1, i * 10, 100, 200, 1, 9});
  }
  jobs.push_back({6, 20, 100, 200, 1, 7});  // different user unaffected
  CleanOptions options;
  options.flurry_max_jobs = 3;
  options.flurry_window = 3600;
  const Cleaned cleaned = clean_jobs(std::move(jobs), options);
  EXPECT_EQ(cleaned.report.dropped_flurry, 2u);
  EXPECT_EQ(cleaned.report.kept, 4u);
}

TEST(CleanerTest, FlurryWindowSlides) {
  // Two bursts of 3, far apart: both survive a 3-jobs-per-window limit.
  std::vector<Job> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back({i + 1, i, 100, 200, 1, 9});
  for (int i = 0; i < 3; ++i) jobs.push_back({i + 4, 10000 + i, 100, 200, 1, 9});
  CleanOptions options;
  options.flurry_max_jobs = 3;
  options.flurry_window = 3600;
  const Cleaned cleaned = clean_jobs(std::move(jobs), options);
  EXPECT_EQ(cleaned.report.dropped_flurry, 0u);
  EXPECT_EQ(cleaned.report.kept, 6u);
}

}  // namespace
}  // namespace bsld::wl
