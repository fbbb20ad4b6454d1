/// \file pm_driver_test.cpp
/// \brief End-to-end power management through the simulation loop:
/// pm=none bit-parity with no manager at all, cap throttling and gating
/// effects on real runs, sleep wake latencies, and setpoint determinism.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "pm/registry.hpp"
#include "pm/spec.hpp"
#include "testing/helpers.hpp"

namespace bsld::sim {
namespace {

using testing::job;
using testing::Models;
using testing::run;
using testing::workload;

wl::Workload mixed_workload() {
  return workload(8, {job(1, 0, 100, 200, 4), job(2, 10, 50, 100, 2),
                      job(3, 20, 200, 400, 2), job(4, 30, 80, 160, 4),
                      job(5, 400, 60, 120, 8), job(6, 500, 30, 60, 1)});
}

std::unique_ptr<pm::PowerManager> make_manager(const pm::PmSpec& spec,
                                               const Models& models) {
  return pm::PowerManagerRegistry::global().make(spec, models.power);
}

void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.avg_bsld, b.avg_bsld);
  EXPECT_EQ(a.avg_wait, b.avg_wait);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.jobs_per_gear, b.jobs_per_gear);
  EXPECT_EQ(a.energy.computational_joules, b.energy.computational_joules);
  EXPECT_EQ(a.energy.total_joules, b.energy.total_joules);
  EXPECT_EQ(a.energy.idle_joules, b.energy.idle_joules);
  EXPECT_EQ(a.energy.sleep_core_seconds, b.energy.sleep_core_seconds);
  EXPECT_EQ(a.energy.sleep_joules, b.energy.sleep_joules);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].start, b.jobs[i].start) << i;
    EXPECT_EQ(a.jobs[i].end, b.jobs[i].end) << i;
    EXPECT_EQ(a.jobs[i].gear, b.jobs[i].gear) << i;
    EXPECT_EQ(a.jobs[i].bsld, b.jobs[i].bsld) << i;
  }
}

TEST(PmDriver, NoneManagerIsBitIdenticalToNoManager) {
  const Models models;
  const wl::Workload load = mixed_workload();
  const std::unique_ptr<pm::PowerManager> none =
      make_manager(pm::PmSpec{}, models);

  // Both the no-DVFS baseline and the paper's DVFS policy: the registered
  // "none" manager must not perturb a single event on either path.
  for (const auto& dvfs : {std::optional<core::DvfsConfig>{},
                           std::optional<core::DvfsConfig>{core::DvfsConfig{}}}) {
    const SimulationResult bare =
        run(load, models, testing::policy("easy", dvfs));
    SimulationConfig config;
    config.power_manager = none.get();
    const SimulationResult managed =
        run(load, models, testing::policy("easy", dvfs), config);
    expect_identical(bare, managed);
  }
}

TEST(PmDriver, CapThrottleDilatesTheRun) {
  const Models models;
  // One 4-CPU job on a 4-CPU machine under a cap that only fits gear 2:
  // the whole run executes at gear 2 and the makespan is the dilated
  // runtime, exactly as the time model predicts.
  const wl::Workload load = workload(4, {job(1, 0, 1000, 2000, 4)});
  pm::PmSpec spec;
  spec.name = "cap-uniform";
  spec.cap_watts = 4.0 * models.power.active_power(2);
  const std::unique_ptr<pm::PowerManager> manager = make_manager(spec, models);

  SimulationConfig config;
  config.power_manager = manager.get();
  const SimulationResult capped = run(load, models, {}, config);
  ASSERT_EQ(capped.jobs.size(), 1U);
  EXPECT_EQ(capped.jobs[0].gear, 2);
  EXPECT_EQ(capped.makespan, models.time.scale_duration(1000, 2));

  const SimulationResult free_run = run(load, models);
  EXPECT_GT(capped.makespan, free_run.makespan);
  // Running lower and longer trades energy: less power but stretched
  // idle-free runtime; computational energy must drop at the lower gear.
  EXPECT_LT(capped.energy.computational_joules,
            free_run.energy.computational_joules);
}

TEST(PmDriver, GatedAdmissionRunsAfterTheBudgetFrees) {
  const Models models;
  // Two 4-CPU jobs on an 8-CPU machine: without a cap they run side by
  // side; under 150 W only one fits (at gear 1), the other is gated on
  // its allocation and executes after the first finishes.
  const wl::Workload load =
      workload(8, {job(1, 0, 100, 200, 4), job(2, 0, 100, 200, 4)});
  pm::PmSpec spec;
  spec.name = "cap-uniform";
  spec.cap_watts = 150.0;
  const std::unique_ptr<pm::PowerManager> manager = make_manager(spec, models);

  SimulationConfig config;
  config.power_manager = manager.get();
  const SimulationResult capped = run(load, models, {}, config);
  const Time dilated = models.time.scale_duration(100, 1);
  ASSERT_EQ(capped.jobs.size(), 2U);
  EXPECT_EQ(capped.jobs[0].end, dilated);
  // The gated job holds its allocation from t=0; its gated wait shows up
  // as stretched runtime (start stays at the allocation time), and it
  // only executes after job 1 releases the budget.
  EXPECT_EQ(capped.jobs[1].start, 0);
  EXPECT_EQ(capped.jobs[1].end, 2 * dilated);
  EXPECT_EQ(capped.makespan, 2 * dilated);

  const SimulationResult free_run = run(load, models);
  EXPECT_EQ(free_run.makespan, 100);  // Side by side at the top gear.
}

TEST(PmDriver, SleepWakeLatencyShiftsTheSecondJob) {
  const Models models;
  // Job 2 arrives after CPU 0 slept past the first C-state threshold: its
  // completion carries the 10 s wake latency on top of its runtime.
  const wl::Workload load =
      workload(4, {job(1, 0, 10, 20, 1), job(2, 1000, 10, 20, 1)});
  pm::PmSpec spec;
  spec.name = "sleep";
  const std::unique_ptr<pm::PowerManager> manager = make_manager(spec, models);

  SimulationConfig config;
  config.power_manager = manager.get();
  const SimulationResult slept = run(load, models, {}, config);
  const SimulationResult awake = run(load, models);
  ASSERT_EQ(slept.jobs.size(), 2U);
  EXPECT_EQ(awake.jobs[1].end, 1010);
  EXPECT_EQ(slept.jobs[1].end, 1020);  // + the state-0 wake latency.

  // Sleeping CPUs were repriced below idle power: the sleep accounting is
  // populated and total energy drops against the no-manager run.
  EXPECT_GT(slept.energy.sleep_core_seconds, 0.0);
  EXPECT_GT(slept.energy.sleep_joules, 0.0);
  EXPECT_LT(slept.energy.sleep_joules,
            slept.energy.sleep_core_seconds * models.power.idle_power());
  EXPECT_LT(slept.energy.total_joules, awake.energy.total_joules);
}

TEST(PmDriver, SetpointRunsAreDeterministicAndBinding) {
  const Models models;
  const wl::Workload load = mixed_workload();
  pm::PmSpec spec;
  spec.name = "setpoint";
  spec.setpoint_watts = 50.0;  // Far below any active configuration.
  spec.interval_s = 60;

  const auto run_once = [&] {
    const std::unique_ptr<pm::PowerManager> manager =
        make_manager(spec, models);
    SimulationConfig config;
    config.power_manager = manager.get();
    return run(load, models, {}, config);
  };
  const SimulationResult first = run_once();
  const SimulationResult second = run_once();
  expect_identical(first, second);

  // A 50 W target on a ~400 W load is binding: the controller throttles
  // the cluster and the run stretches past the unmanaged one.
  const SimulationResult free_run = run(load, models);
  EXPECT_GT(first.makespan, free_run.makespan);
}

/// Emits a full observer batch of informational kCapChange events from
/// inside every start hook, so the batch flushes — and the job-window
/// eviction sweep runs — while the job being started is mid-start.
class BatchFillingManager final : public pm::PowerManager {
 public:
  /// Simulation's observer batch capacity: this many emits always flush.
  static constexpr int kBatchCapacity = 128;

  [[nodiscard]] const char* name() const override { return "batch-filling"; }
  pm::StartDecision on_job_start(pm::PmContext& context, JobId id,
                                 const std::vector<CpuId>& cpus,
                                 GearIndex gear) override {
    (void)cpus;
    for (int i = 0; i < kBatchCapacity; ++i) {
      pm::PmEvent event;
      event.kind = pm::PmEventKind::kCapChange;
      event.time = context.now();
      event.job = id;
      context.emit(event);
    }
    return pm::StartDecision{false, gear, 0};
  }
};

TEST(PmDriver, StartHookFlushKeepsTheStartingJobResident) {
  // Job 1 is the window's front when it starts at t = 0; the flush its
  // start hook forces must not retire it before it is marked running.
  const Models models;
  const wl::Workload load = mixed_workload();
  BatchFillingManager manager;
  SimulationConfig config;
  config.power_manager = &manager;
  const SimulationResult managed = run(load, models, {}, config);
  EXPECT_EQ(managed.job_count, static_cast<std::int64_t>(load.jobs.size()));
  // The events are informational: the schedule is the unmanaged one.
  expect_identical(managed, run(load, models));
}

}  // namespace
}  // namespace bsld::sim
