/// \file pm_seeded_test.cpp
/// \brief Power-managed runs on re-seeded archive traces: a binding
/// cluster cap over CTC at seeds whose schedules start a job at the front
/// of the job window while the cap manager's start hook fills the observer
/// batch. Every job must still complete with a well-formed BSLD.

#include <gtest/gtest.h>

#include <cstdint>

#include "report/experiment.hpp"
#include "workload/source.hpp"

namespace bsld::report {
namespace {

class PmSeededArchiveTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PmSeededArchiveTest, CappedCtcRunCompletesEveryJob) {
  constexpr std::int64_t kJobs = 2000;
  RunSpec spec;  // EASY, no DVFS.
  spec.workload =
      wl::WorkloadSource::from_archive(wl::Archive::kCTC, kJobs, GetParam());
  spec.pm.name = "cap-uniform";
  spec.pm.cap_watts = 4000.0;

  const RunResult result = run_one(spec);
  EXPECT_EQ(result.sim().job_count, kJobs);
  EXPECT_GE(result.sim().avg_bsld, 1.0);
  ASSERT_EQ(result.sim().jobs.size(), static_cast<std::size_t>(kJobs));
  for (const sim::JobOutcome& job : result.sim().jobs) {
    EXPECT_GE(job.bsld, 1.0) << "job " << job.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmSeededArchiveTest,
                         ::testing::Values(1001u, 1004u, 1007u, 1032u));

}  // namespace
}  // namespace bsld::report
