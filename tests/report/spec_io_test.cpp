/// \file spec_io_test.cpp
/// \brief RunSpec serialization: parse/format round-trips must be
/// byte-identical, parsed specs must equal their source specs, and a spec
/// replayed from its serialized form must reproduce the original results
/// bit-for-bit — the property that makes run configs savable, diffable and
/// replayable.
#include <gtest/gtest.h>

#include "report/experiment.hpp"
#include "util/error.hpp"

namespace bsld::report {
namespace {

std::vector<RunSpec> representative_specs() {
  std::vector<RunSpec> specs;

  specs.emplace_back();  // all defaults

  {
    RunSpec spec;
    spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 300, 9);
    spec.size_scale = 1.5;
    core::DvfsConfig dvfs;
    dvfs.bsld_threshold = 1.5;
    dvfs.wq_threshold = 16;
    spec.policy.dvfs = dvfs;
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.policy.name = "conservative";
    spec.policy.selector = "LastFit";
    core::DvfsConfig dvfs;
    dvfs.wq_threshold = std::nullopt;
    dvfs.backfill_requires_bsld_at_top = false;
    spec.policy.dvfs = dvfs;
    spec.beta = 0.3;
    spec.power.top_active_power_watts = 120.0;
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // dynamic raise + per-job beta + custom gears
    core::DvfsConfig dvfs;
    spec.policy.dvfs = dvfs;
    core::DynamicRaiseConfig raise;
    raise.queue_limit = 8;
    spec.policy.raise = raise;
    spec.per_job_beta = {{0.25, 0.75}};
    spec.gears = cluster::GearSet({{1.0, 1.0}, {2.0, 1.25}, {3.0, 1.5}});
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.workload = wl::WorkloadSource::from_swf("traces/real.swf", 2000, 512);
    spec.policy.name = "fcfs";
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // instrumented streaming run
    spec.instruments = {"wait-trace", "utilization", "energy"};
    spec.retain_jobs = false;
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // power-capped run
    spec.pm.name = "cap-proportional";
    spec.pm.cap_watts = 4000.0;
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // closed-loop power control, every tunable set
    spec.pm.name = "setpoint";
    spec.pm.setpoint_watts = 350000.0;
    spec.pm.cap_watts = 400000.0;
    spec.pm.interval_s = 120;
    spec.pm.gain = 0.25;
    specs.push_back(spec);
  }
  {
    wl::WorkloadSpec workload;
    workload.name = "inline";
    workload.cpus = 48;
    workload.num_jobs = 200;
    workload.runtime.classes = {{0.5, 4.0, 0.5}, {0.5, 7.5, 1.5}};
    RunSpec spec;
    spec.workload = wl::WorkloadSource::from_spec(workload, 3);
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // streaming run with sampled traces, every new key set
    spec.stream = true;
    spec.retain_jobs = false;
    spec.instruments = {"wait-trace", "utilization"};
    spec.sample.cap = 4096;
    spec.sample.mode = util::SamplePlan::Mode::kReservoir;
    spec.sample.seed = 12345;
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // trace length beyond the int32 boundary
    spec.workload =
        wl::WorkloadSource::from_archive(wl::Archive::kCTC,
                                         std::int64_t{3'000'000'000});
    spec.stream = true;
    specs.push_back(spec);
  }
  return specs;
}

TEST(SpecIoTest, JobCountSurvivesTheInt32Boundary) {
  // WorkloadSource::jobs is int64 end to end: a trace length one past
  // INT32_MAX must round-trip through the config text unclamped.
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(
      wl::Archive::kSDSC, std::int64_t{2147483648});  // 2^31
  const RunSpec parsed =
      RunSpec::parse(util::Config::parse(spec.to_config().to_string()));
  EXPECT_EQ(parsed.workload.jobs, std::int64_t{2147483648});
  EXPECT_EQ(parsed, spec);
}

TEST(SpecIoTest, ParseFormatRoundTripIsByteIdentical) {
  for (const RunSpec& spec : representative_specs()) {
    const std::string text = spec.to_config().to_string();
    const RunSpec parsed = RunSpec::parse(util::Config::parse(text));
    EXPECT_EQ(parsed, spec) << text;
    EXPECT_EQ(parsed.to_config().to_string(), text);
    EXPECT_EQ(parsed.key(), spec.key());
    EXPECT_EQ(parsed.label(), spec.label());
  }
}

TEST(SpecIoTest, PartialConfigKeepsDefaults) {
  const RunSpec parsed = RunSpec::parse(util::Config::parse(
      "workload.archive = SDSCBlue\npolicy.name = fcfs\n"));
  RunSpec expected;
  expected.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSCBlue);
  expected.policy.name = "fcfs";
  EXPECT_EQ(parsed, expected);
}

TEST(SpecIoTest, ReplayedSpecReproducesResults) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 250);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 4;
  spec.policy.dvfs = dvfs;

  const RunSpec replayed =
      RunSpec::parse(util::Config::parse(spec.to_config().to_string()));
  const RunResult original = run_one(spec);
  const RunResult replay = run_one(replayed);
  EXPECT_DOUBLE_EQ(original.sim().avg_bsld, replay.sim().avg_bsld);
  EXPECT_DOUBLE_EQ(original.sim().energy.total_joules,
                   replay.sim().energy.total_joules);
  EXPECT_EQ(original.sim().makespan, replay.sim().makespan);
  EXPECT_EQ(original.sim().reduced_jobs, replay.sim().reduced_jobs);
}

TEST(SpecIoTest, PmKeysParseAndLabelTheRun) {
  const RunSpec parsed = RunSpec::parse(util::Config::parse(
      "pm = cap-uniform\npm.cap_watts = 4000\n"));
  ASSERT_TRUE(parsed.pm.enabled());
  EXPECT_EQ(parsed.pm.name, "cap-uniform");
  EXPECT_EQ(parsed.pm.cap_watts, 4000.0);
  EXPECT_NE(parsed.label().find("PM:cap-uniform@4000W"), std::string::npos)
      << parsed.label();
  // The default spec's label carries no PM segment.
  EXPECT_EQ(RunSpec{}.label().find("PM:"), std::string::npos);
}

TEST(SpecIoTest, UnknownPmManagerRejected) {
  EXPECT_THROW(RunSpec::parse(util::Config::parse("pm = warp-drive\n")),
               Error);
}

TEST(SpecIoTest, PmFamilyRulesEnforcedAtParseTime) {
  // A capping manager without its cap fails when the spec is read, not
  // mid-sweep when the manager is built.
  EXPECT_THROW(RunSpec::parse(util::Config::parse("pm = cap-uniform\n")),
               Error);
  EXPECT_THROW(
      RunSpec::parse(util::Config::parse("pm = sleep\npm.gain = 0.5\n")),
      Error);
}

TEST(SpecIoTest, EqualSpecsShareTheKey) {
  RunSpec a;
  RunSpec b;
  EXPECT_EQ(a.key(), b.key());
  // key() is memoized, so a spec is frozen once keyed; tweak a copy
  // instead (copy construction/assignment resets the copy's cache).
  RunSpec c = a;
  c.size_scale = 1.2;
  EXPECT_NE(a.key(), c.key());
  RunSpec d;
  d = c;
  d.size_scale = 1.4;
  EXPECT_NE(c.key(), d.key());
}

TEST(SpecIoTest, MalformedPerJobBetaRejected) {
  EXPECT_THROW((void)RunSpec::parse(
                   util::Config::parse("beta.per_job = 0.5\n")),
               Error);
}

TEST(SpecIoTest, UnknownPolicyRejected) {
  EXPECT_THROW((void)RunSpec::parse(
                   util::Config::parse("policy.name = round-robin\n")),
               Error);
}

TEST(SpecIoTest, UnknownWorkloadKindRejected) {
  EXPECT_THROW((void)RunSpec::parse(
                   util::Config::parse("workload.source = database\n")),
               Error);
}

TEST(SpecIoTest, UnknownInstrumentRejectedListingRegistry) {
  try {
    (void)RunSpec::parse(util::Config::parse("instruments = wait-trase\n"));
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    // Typos fail discoverably: the message names the registered set.
    EXPECT_NE(std::string(error.what()).find("wait-trace"), std::string::npos)
        << error.what();
  }
}

TEST(SpecIoTest, UnknownAssignerRejectedListingRegistry) {
  // Rejected when the spec is read, not when the first run builds it.
  try {
    (void)RunSpec::parse(util::Config::parse("policy.assigner = oracle\n"));
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("oracle"), std::string::npos) << what;
    EXPECT_NE(what.find("bsld, ftop"), std::string::npos) << what;
  }
}

TEST(SpecIoTest, BsldAssignerWithoutDvfsRejectedAtParse) {
  // The bsld assigner builds from the DVFS config; without policy.dvfs the
  // spec names a policy no run could build, so reading it fails.
  try {
    (void)RunSpec::parse(util::Config::parse("policy.assigner = bsld\n"));
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("DVFS"), std::string::npos) << what;
  }
  EXPECT_NO_THROW((void)RunSpec::parse(util::Config::parse(
      "policy.assigner = bsld\npolicy.dvfs = true\n")));
}

TEST(SpecIoTest, RaisePolicyWithoutRaiseKeysRejectedAtParse) {
  try {
    (void)RunSpec::parse(util::Config::parse("policy.name = easy+raise\n"));
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("raise"), std::string::npos) << what;
  }
  EXPECT_NO_THROW((void)RunSpec::parse(util::Config::parse(
      "policy.name = easy+raise\npolicy.raise.queue_limit = 8\n")));
}

TEST(SpecIoTest, UnknownSelectorRejected) {
  try {
    (void)RunSpec::parse(util::Config::parse("policy.selector = Bogus\n"));
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("Bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("FirstFit, LastFit"), std::string::npos) << what;
  }
}

TEST(SpecIoTest, DefaultInstrumentFieldsKeepLegacySerialization) {
  // Specs without instruments/retain_jobs must serialize exactly as before
  // the measurement fields existed — saved spec files stay byte-stable.
  const RunSpec spec;
  const std::string text = spec.to_config().to_string();
  EXPECT_EQ(text.find("instruments"), std::string::npos);
  EXPECT_EQ(text.find("retain_jobs"), std::string::npos);
}

}  // namespace
}  // namespace bsld::report
