// Differential test: EASY backfilling, which drops closed jobs from its
// backfill candidates for good, against the full-scan ReferenceEasy that
// offers every queued job on every pass. Random saturated workloads on
// small machines (deep queues, early completions, per-job beta) must give
// the same start decision — job, CPUs, gear, time — and the same raises.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/first_fit.hpp"
#include "core/policy_registry.hpp"
#include "pm/registry.hpp"
#include "sim/simulation.hpp"
#include "testing/helpers.hpp"
#include "testing/oracles.hpp"
#include "util/rng.hpp"

namespace bsld::core {
namespace {

struct Decision {
  JobId id;
  std::vector<CpuId> cpus;
  GearIndex gear;
  Time at;
  bool boost;  ///< A boost_job call (cpus empty) rather than a start.
  friend bool operator==(const Decision&, const Decision&) = default;
};

/// Forwards every call to the simulation and logs starts and boosts.
class RecordingContext final : public SchedulerContext {
 public:
  RecordingContext(SchedulerContext& inner, std::vector<Decision>& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] Time now() const override { return inner_.now(); }
  [[nodiscard]] const cluster::Machine& machine() const override {
    return inner_.machine();
  }
  [[nodiscard]] const wl::Job& job(JobId id) const override {
    return inner_.job(id);
  }
  [[nodiscard]] const power::BetaTimeModel& time_model() const override {
    return inner_.time_model();
  }
  void start_job(JobId id, const std::vector<CpuId>& cpus,
                 GearIndex gear) override {
    log_.push_back({id, cpus, gear, inner_.now(), false});
    inner_.start_job(id, cpus, gear);
  }
  [[nodiscard]] std::vector<JobId> running_jobs() const override {
    return inner_.running_jobs();
  }
  [[nodiscard]] GearIndex running_gear(JobId id) const override {
    return inner_.running_gear(id);
  }
  void boost_job(JobId id, GearIndex gear) override {
    log_.push_back({id, {}, gear, inner_.now(), true});
    inner_.boost_job(id, gear);
  }

 private:
  SchedulerContext& inner_;
  std::vector<Decision>& log_;
};

/// Runs `inner` behind a RecordingContext.
class RecordingPolicy final : public SchedulingPolicy {
 public:
  explicit RecordingPolicy(SchedulingPolicy& inner) : inner_(inner) {}

  void on_submit(SchedulerContext& ctx, JobId id) override {
    RecordingContext recording(ctx, log);
    inner_.on_submit(recording, id);
  }
  void on_job_end(SchedulerContext& ctx, JobId id) override {
    RecordingContext recording(ctx, log);
    inner_.on_job_end(recording, id);
  }
  [[nodiscard]] std::size_t queue_size() const override {
    return inner_.queue_size();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::vector<Decision> log;

 private:
  SchedulingPolicy& inner_;
};

struct Case {
  std::string label;
  PolicySpec spec;
  std::optional<double> cap_fraction;  ///< cap-uniform budget share.
};

std::vector<Case> cases() {
  std::vector<Case> out;
  PolicySpec ftop;
  out.push_back({"ftop", ftop, std::nullopt});
  for (const double threshold : {1.0, 1.5, 2.0, 3.0}) {
    for (const std::optional<std::int64_t> wq :
         {std::optional<std::int64_t>{0}, std::optional<std::int64_t>{4},
          std::optional<std::int64_t>{16}, std::optional<std::int64_t>{}}) {
      for (const bool literal : {true, false}) {
        PolicySpec spec;
        DvfsConfig dvfs;
        dvfs.bsld_threshold = threshold;
        dvfs.wq_threshold = wq;
        dvfs.backfill_requires_bsld_at_top = literal;
        spec.dvfs = dvfs;
        out.push_back({"bsld " + std::to_string(threshold) + " wq " +
                           (wq ? std::to_string(*wq) : "NO") +
                           (literal ? " literal" : " ablated"),
                       spec, std::nullopt});
      }
    }
  }
  PolicySpec raised;
  DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  raised.dvfs = dvfs;
  raised.raise = DynamicRaiseConfig{4, false};
  out.push_back({"easy+raise top", raised, std::nullopt});
  raised.raise = DynamicRaiseConfig{2, true};
  raised.selector = "LastFit";
  out.push_back({"easy+raise step LastFit", raised, std::nullopt});
  PolicySpec capped;
  dvfs.wq_threshold = 16;
  capped.dvfs = dvfs;
  out.push_back({"bsld 2 wq 16 cap-uniform", capped, 0.5});
  return out;
}

/// A saturated random workload: bursty arrivals, requested times that
/// overestimate the runtime (early completions reshuffle the schedule),
/// and per-job beta drawn from {platform, 0, random}.
wl::Workload random_workload(util::Rng& rng, std::int32_t cpus,
                             std::int32_t jobs) {
  std::vector<wl::Job> list;
  Time submit = 0;
  for (JobId id = 1; id <= jobs; ++id) {
    submit += rng.uniform_int(0, 3) == 0 ? rng.uniform_int(0, 400) : 0;
    const Time requested = rng.uniform_int(1, 4) == 1
                               ? rng.uniform_int(30, 600)
                               : rng.uniform_int(600, 20'000);
    const Time run = rng.uniform_int(0, 2) == 0
                         ? requested
                         : rng.uniform_int(1, requested);
    const auto size = static_cast<std::int32_t>(
        rng.uniform_int(0, 4) == 0 ? rng.uniform_int(1, cpus)
                                   : rng.uniform_int(1, cpus / 4));
    wl::Job job = testing::job(id, submit, run, requested, size);
    switch (rng.uniform_int(0, 2)) {
      case 0: break;  // platform beta
      case 1: job.beta = 0.0; break;
      default: job.beta = rng.uniform(0.0, 1.0); break;
    }
    list.push_back(job);
  }
  return testing::workload(cpus, std::move(list));
}

std::vector<Decision> run_recorded(const wl::Workload& load,
                                   SchedulingPolicy& policy, const Case& c,
                                   const testing::Models& models) {
  RecordingPolicy recording(policy);
  sim::SimulationConfig config;
  std::unique_ptr<pm::PowerManager> manager;
  if (c.cap_fraction) {
    pm::PmSpec pm;
    pm.name = "cap-uniform";
    pm.cap_watts = *c.cap_fraction * load.cpus *
                   models.power.active_power(models.gears.top_index());
    manager = pm::PowerManagerRegistry::global().make(pm, models.power);
    config.power_manager = manager.get();
  }
  sim::Simulation simulation(load, recording, models.power, models.time,
                             config);
  (void)simulation.run();
  return recording.log;
}

class EasyOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EasyOracleTest, PrunedScanMatchesFullScan) {
  const testing::Models models;
  util::Rng rng(GetParam());
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.label);
    const auto cpus = static_cast<std::int32_t>(rng.uniform_int(8, 96));
    const wl::Workload load = random_workload(rng, cpus, 300);

    const std::unique_ptr<SchedulingPolicy> pruned =
        PolicyRegistry::global().make(c.spec);
    testing::ReferenceEasy reference(
        cluster::make_selector(c.spec.selector),
        PolicyRegistry::global().make_assigner(c.spec), c.spec.raise);

    const std::vector<Decision> expected =
        run_recorded(load, reference, c, models);
    const std::vector<Decision> actual = run_recorded(load, *pruned, c, models);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i])
          << "decision " << i << ": job " << expected[i].id << " at "
          << expected[i].at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EasyOracleTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace bsld::core
