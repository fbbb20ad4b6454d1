#include "report/experiment.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "pm/registry.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "workload/stream.hpp"

namespace bsld::report {

RunSpec RunSpec::parse(const util::Config& config) {
  RunSpec spec;
  spec.workload = wl::source_from_config(config);
  spec.size_scale = config.get_double("scale", spec.size_scale);
  spec.policy = core::policy_from_config(config);
  spec.gears = cluster::gear_set_from_config(config);
  spec.beta = config.get_double("time.beta", spec.beta);
  spec.power = power::power_config_from(config);
  if (config.contains("beta.per_job")) {
    const std::vector<double> range =
        config.get_double_list("beta.per_job", {});
    BSLD_REQUIRE(range.size() == 2,
                 "RunSpec: beta.per_job expects `low, high`");
    spec.per_job_beta = {range[0], range[1]};
  }
  spec.pm = pm::pm_from_config(config);
  spec.instruments = config.get_string_list("instruments", {});
  for (const std::string& name : spec.instruments) {
    sim::InstrumentRegistry::global().require(name);
  }
  spec.retain_jobs = config.get_bool("retain_jobs", true);
  spec.stream = config.get_bool("stream", false);
  const std::int64_t cap = config.get_int("sample.cap", 0);
  BSLD_REQUIRE(cap >= 0, "RunSpec: sample.cap must be >= 0");
  spec.sample.cap = static_cast<std::uint64_t>(cap);
  const std::string mode = config.get_string("sample.mode", "decimate");
  if (mode == "decimate") {
    spec.sample.mode = util::SamplePlan::Mode::kDecimate;
  } else if (mode == "reservoir") {
    spec.sample.mode = util::SamplePlan::Mode::kReservoir;
  } else {
    throw Error("RunSpec: unknown sample.mode `" + mode +
                "` (expected decimate or reservoir)");
  }
  // Seeds use the full uint64 range, which get_int cannot represent;
  // parse the raw text instead so every saved seed replays.
  const std::string seed_text = config.get_string("sample.seed", "0");
  const std::optional<std::uint64_t> seed = util::parse_uint(seed_text);
  BSLD_REQUIRE(seed.has_value(),
               "RunSpec: sample.seed is not a 64-bit unsigned integer");
  spec.sample.seed = *seed;
  return spec;
}

util::Config RunSpec::to_config() const {
  util::Config config;
  wl::source_to_config(workload, config);
  config.set("scale", util::config_double(size_scale));
  core::policy_to_config(policy, config);
  std::vector<double> frequencies;
  std::vector<double> voltages;
  for (const cluster::Gear& gear : gears.all()) {
    frequencies.push_back(gear.frequency_ghz);
    voltages.push_back(gear.voltage_v);
  }
  config.set("gears.frequencies_ghz", util::config_double_list(frequencies));
  config.set("gears.voltages_v", util::config_double_list(voltages));
  config.set("time.beta", util::config_double(beta));
  config.set("power.activity_ratio", util::config_double(power.activity_ratio));
  config.set("power.static_fraction_at_top",
             util::config_double(power.static_fraction_at_top));
  config.set("power.top_active_power_watts",
             util::config_double(power.top_active_power_watts));
  if (per_job_beta) {
    config.set("beta.per_job",
               util::config_double_list(
                   {per_job_beta->first, per_job_beta->second}));
  }
  pm::pm_to_config(pm, config);
  if (!instruments.empty()) {
    config.set("instruments", util::config_string_list(instruments));
  }
  if (!retain_jobs) config.set("retain_jobs", "false");
  if (stream) config.set("stream", "true");
  if (sample.cap != 0) config.set("sample.cap", std::to_string(sample.cap));
  if (sample.mode != util::SamplePlan::Mode::kDecimate) {
    config.set("sample.mode", "reservoir");
  }
  if (sample.seed != 0) config.set("sample.seed", std::to_string(sample.seed));
  return config;
}

const std::string& RunSpec::key() const {
  return key_cache.get([this] { return to_config().to_string(); });
}

std::string RunSpec::label() const {
  std::ostringstream os;
  os << wl::source_label(workload) << " x" << size_scale << ' '
     << core::policy_label(policy);
  if (pm.enabled()) os << " PM:" << pm::pm_label(pm);
  return os.str();
}

namespace {

// The platform models are heap-allocated and co-owned by every instrument
// handed back on the result: EnergyProbe and UtilizationTrace hold
// references into them (the models own their GearSet by value), so they
// must live as long as the last instrument, not just one run_* frame.
struct Platform {
  power::PowerModel power;
  power::BetaTimeModel time;
  Platform(power::PowerModel p, power::BetaTimeModel t)
      : power(std::move(p)), time(std::move(t)) {}
};

/// Everything a run needs besides its job source.
struct RunAssembly {
  std::shared_ptr<Platform> platform;
  std::unique_ptr<core::SchedulingPolicy> policy;
  std::unique_ptr<pm::PowerManager> manager;
  sim::SimulationConfig config;
  std::vector<std::shared_ptr<sim::Instrument>> instruments;
};

RunAssembly assemble_run(const RunSpec& spec, std::int32_t scaled_cpus) {
  RunAssembly parts;
  parts.platform = std::make_shared<Platform>(
      power::PowerModel(spec.gears, spec.power),
      power::BetaTimeModel(spec.gears, spec.beta));
  parts.policy = core::PolicyRegistry::global().make(spec.policy);
  // nullptr when the spec says pm = none: the simulation takes the exact
  // pre-pm code paths, keeping the baseline bit-identical.
  if (spec.pm.enabled()) {
    parts.manager = pm::PowerManagerRegistry::global().make(
        spec.pm, parts.platform->power);
  }
  parts.config.cpus = scaled_cpus;
  parts.config.retain_jobs = spec.retain_jobs;
  parts.config.power_manager = parts.manager.get();

  // Extra views of the run's event stream, by registry name, in spec order.
  const sim::InstrumentContext context{parts.platform->power,
                                       parts.platform->time, spec.sample};
  parts.instruments.reserve(spec.instruments.size());
  const std::shared_ptr<Platform> platform = parts.platform;
  for (const std::string& name : spec.instruments) {
    auto built = sim::InstrumentRegistry::global().make(name, context);
    // The deleter captures `platform`, extending the models' lifetime to
    // the last surviving instrument.
    parts.instruments.emplace_back(built.release(),
                                   [platform](sim::Instrument* instrument) {
                                     std::default_delete<sim::Instrument>()(
                                         instrument);
                                   });
  }
  return parts;
}

/// The per-job transforms of a spec, applied as jobs are pulled: clamps
/// sizes for a shrunken machine and draws per-job betas, consuming the rng
/// sequentially in trace order.
class ShapedStream final : public wl::JobStream {
 public:
  ShapedStream(wl::JobStream& inner, std::int32_t clamp_size,
               std::optional<std::pair<double, double>> beta_range,
               std::uint64_t beta_seed)
      : inner_(&inner),
        clamp_(clamp_size),
        beta_(beta_range),
        rng_(beta_seed) {}

  std::optional<wl::Job> next() override {
    std::optional<wl::Job> job = inner_->next();
    if (!job.has_value()) return job;
    if (clamp_ > 0) job->size = std::min(job->size, clamp_);
    if (beta_) job->beta = rng_.uniform(beta_->first, beta_->second);
    return job;
  }
  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::int32_t cpus() const override { return inner_->cpus(); }
  [[nodiscard]] std::int64_t size_hint() const override {
    return inner_->size_hint();
  }

 private:
  wl::JobStream* inner_;
  std::int32_t clamp_;  ///< 0 = no clamping (machine not shrunken).
  std::optional<std::pair<double, double>> beta_;
  util::Rng rng_;
};

/// The one run body behind run_workload() and run_stream(): shapes
/// `source` for the scaled machine and the per-job betas, then simulates it
/// under `submit_lookahead` with the spec's instruments attached.
RunResult run_source(wl::JobStream& source, const RunSpec& spec,
                     std::int64_t submit_lookahead) {
  BSLD_REQUIRE(spec.size_scale > 0.0, "RunSpec: size_scale must be positive");
  const auto scaled_cpus = static_cast<std::int32_t>(
      std::llround(static_cast<double>(source.cpus()) * spec.size_scale));
  BSLD_REQUIRE(scaled_cpus >= 1, "RunSpec: scaled machine has no CPUs");
  // Enlarged systems keep original job sizes (paper §1: "Since our jobs are
  // rigid we have used original job sizes"); shrunken ones must clamp.
  const std::int32_t clamp = scaled_cpus < source.cpus() ? scaled_cpus : 0;
  // Per-job sensitivities (future-work extension) are seeded from the
  // workload source, so equal specs stay bit-identical.
  ShapedStream shaped(source, clamp, spec.per_job_beta,
                      wl::source_seed(spec.workload) ^ 0xbe7abe7aULL);

  RunAssembly parts = assemble_run(spec, scaled_cpus);
  parts.config.submit_lookahead = submit_lookahead;
  sim::Simulation simulation(shaped, *parts.policy, parts.platform->power,
                             parts.platform->time, parts.config);
  for (const auto& instrument : parts.instruments) {
    simulation.add_observer(*instrument);
  }
  return RunResult{spec, simulation.run(), std::move(parts.instruments)};
}

}  // namespace

RunResult run_one(const RunSpec& spec) {
  // Fail fast: don't open the workload for a spec the run would reject
  // anyway.
  BSLD_REQUIRE(spec.size_scale > 0.0, "run_one(): size_scale must be positive");
  if (spec.stream) return run_stream(spec);
  return run_workload(wl::load_source(spec.workload), spec);
}

RunResult run_workload(const wl::Workload& workload, const RunSpec& spec) {
  // The whole list is admitted up front, so hand-built lists need not be
  // sorted.
  wl::WorkloadViewStream view(workload);
  return run_source(view, spec, std::numeric_limits<std::int64_t>::max());
}

RunResult run_stream(const RunSpec& spec) {
  const std::unique_ptr<wl::JobStream> source = wl::open_stream(spec.workload);
  return run_source(*source, spec, sim::SimulationConfig{}.submit_lookahead);
}

RunResult::RunResult(RunSpec spec_in, sim::SimulationResult sim_in,
                     std::vector<std::shared_ptr<sim::Instrument>>
                         instruments_in)
    : spec(std::move(spec_in)), instruments(std::move(instruments_in)) {
  set_sim(std::move(sim_in));
}

const sim::SimulationResult& RunResult::sim() const {
  static const sim::SimulationResult kEmpty{};
  return sim_ ? *sim_ : kEmpty;
}

void RunResult::set_sim(sim::SimulationResult value) {
  sim_ = std::make_shared<const sim::SimulationResult>(std::move(value));
}

const sim::Instrument* RunResult::instrument(std::string_view name) const {
  for (const auto& instrument : instruments) {
    if (instrument && instrument->name() == name) return instrument.get();
  }
  return nullptr;
}

NormalizedEnergy normalized_energy(const sim::SimulationResult& run,
                                   const sim::SimulationResult& baseline) {
  BSLD_REQUIRE(baseline.energy.computational_joules > 0.0 &&
                   baseline.energy.total_joules > 0.0,
               "normalized_energy(): degenerate baseline");
  return NormalizedEnergy{
      run.energy.computational_joules / baseline.energy.computational_joules,
      run.energy.total_joules / baseline.energy.total_joules};
}

}  // namespace bsld::report
