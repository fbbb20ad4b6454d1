/// \file streaming_scale_test.cpp
/// \brief The streaming pipeline's scale criteria: aggregates bit-identical
/// to the materialized path (including the machine-scaling and per-job-beta
/// stream decorators), and a 10^6-job streaming run whose per-job memory
/// stays window-bounded — asserted through the simulation's own
/// peak_live_jobs counter, not process RSS — with every time-series
/// instrument capped at O(1) retention.
///
/// The million-job run uses an undersaturated inline generator profile:
/// archive profiles run near saturation, so their wait queue (and with it
/// the scheduler's per-event cost) grows with trace length — fine for the
/// paper's 5000-job evaluations, far too slow for a 10^6-job unit of CI.
/// Window-boundedness is a property of the pipeline, not of the workload.
#include <gtest/gtest.h>

#include <cstdint>

#include "report/experiment.hpp"
#include "sim/instruments.hpp"
#include "workload/source.hpp"
#include "workload/synthetic.hpp"

namespace bsld::report {
namespace {

/// A 256-CPU profile at ~35% offered load with short runtimes: the queue
/// stays shallow, so simulation cost is linear in jobs and the test's
/// duration is dominated by event throughput, not backlog scans.
wl::WorkloadSpec low_load_profile(std::int64_t jobs) {
  wl::WorkloadSpec spec;
  spec.name = "lowload";
  spec.cpus = 256;
  spec.num_jobs = jobs;
  spec.arrival.load_target = 0.35;
  spec.runtime.classes = {{1.0, 4.0, 1.0}};
  return spec;
}

void expect_bit_identical(const RunResult& lazy, const RunResult& eager) {
  // Bit-identical, not approximately equal: the streaming path must pop
  // the exact same event sequence as the materialized one.
  EXPECT_EQ(lazy.sim().job_count, eager.sim().job_count);
  EXPECT_EQ(lazy.sim().avg_bsld, eager.sim().avg_bsld);
  EXPECT_EQ(lazy.sim().avg_wait, eager.sim().avg_wait);
  EXPECT_EQ(lazy.sim().energy.total_joules, eager.sim().energy.total_joules);
  EXPECT_EQ(lazy.sim().makespan, eager.sim().makespan);
  EXPECT_EQ(lazy.sim().reduced_jobs, eager.sim().reduced_jobs);
  EXPECT_EQ(lazy.sim().jobs_per_gear, eager.sim().jobs_per_gear);
  EXPECT_EQ(lazy.sim().utilization, eager.sim().utilization);
  EXPECT_EQ(lazy.sim().events_processed, eager.sim().events_processed);
}

TEST(StreamingScaleTest, StreamingAggregatesMatchMaterializedPrefix) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_spec(low_load_profile(100000), 11);
  spec.retain_jobs = false;  // aggregate-only on both paths.
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 4;
  spec.policy.dvfs = dvfs;

  RunSpec streamed = spec;
  streamed.stream = true;

  const RunResult eager = run_one(spec);
  const RunResult lazy = run_one(streamed);
  expect_bit_identical(lazy, eager);

  // The materialized run holds the whole trace; the streaming run holds a
  // window of it.
  EXPECT_EQ(eager.sim().peak_live_jobs, eager.sim().job_count);
  EXPECT_LT(lazy.sim().peak_live_jobs, lazy.sim().job_count / 10);
}

TEST(StreamingScaleTest, StreamDecoratorsReproduceTheEagerTransforms) {
  // Machine scaling below 1 clamps job sizes and per-job beta draws one
  // value per trace position — applied as jobs are pulled, they must give
  // the same jobs whether the trace was materialized first or not.
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 5000);
  spec.size_scale = 0.8;  // scaled machine smaller: sizes clamp.
  spec.per_job_beta = {{0.3, 0.7}};
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 1.5;
  spec.policy.dvfs = dvfs;
  spec.instruments = {"wait-trace", "utilization"};

  RunSpec streamed = spec;
  streamed.stream = true;

  const RunResult eager = run_one(spec);
  const RunResult lazy = run_one(streamed);
  expect_bit_identical(lazy, eager);

  // Instrument output is bit-identical too (sampling off by default).
  const auto* eager_waits =
      instrument_as<sim::WaitQueueTrace>(eager, "wait-trace");
  const auto* lazy_waits =
      instrument_as<sim::WaitQueueTrace>(lazy, "wait-trace");
  ASSERT_NE(eager_waits, nullptr);
  ASSERT_NE(lazy_waits, nullptr);
  ASSERT_EQ(lazy_waits->waits().size(), eager_waits->waits().size());
  for (std::size_t i = 0; i < eager_waits->waits().size(); ++i) {
    EXPECT_EQ(lazy_waits->waits()[i].wait, eager_waits->waits()[i].wait);
    EXPECT_EQ(lazy_waits->waits()[i].start, eager_waits->waits()[i].start);
  }
}

TEST(StreamingScaleTest, MillionJobRunStaysWindowBounded) {
  constexpr std::int64_t kJobs = 1000000;
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_spec(low_load_profile(kJobs), 11);
  spec.stream = true;
  spec.retain_jobs = false;
  spec.instruments = {"wait-trace", "utilization"};
  spec.sample.cap = 512;

  const RunResult result = run_one(spec);
  EXPECT_EQ(result.sim().job_count, kJobs);
  EXPECT_TRUE(result.sim().jobs.empty());  // no per-job retention.

  // The windowed core's own high-water counter is the memory bound: jobs
  // resident at once are capped by the submit lookahead (4096) plus the
  // queue backlog and the batched-delivery flush cadence — never O(jobs).
  EXPECT_GT(result.sim().peak_live_jobs, 0);
  EXPECT_LT(result.sim().peak_live_jobs, 16384);

  // Sampled instruments cap their retention regardless of series length.
  const auto* waits =
      instrument_as<sim::WaitQueueTrace>(result, "wait-trace");
  ASSERT_NE(waits, nullptr);
  EXPECT_LE(waits->waits().size(), 512u);
  EXPECT_LE(waits->depth().size(), 512u);
  const auto* utilization =
      instrument_as<sim::UtilizationTrace>(result, "utilization");
  ASSERT_NE(utilization, nullptr);
  EXPECT_LE(utilization->samples().size(), 512u);
  EXPECT_GT(utilization->samples().size(), 0u);
}

}  // namespace
}  // namespace bsld::report
