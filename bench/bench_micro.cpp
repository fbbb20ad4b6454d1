/// \file bench_micro.cpp
/// \brief google-benchmark microbenchmarks of the simulation substrate:
/// event-engine throughput, allocation search, one EASY scheduling pass
/// and a sequence of them through one policy,
/// trace generation, end-to-end simulation rate per archive, sweep-grid
/// throughput through report::SweepRunner (dedup off vs on), and the
/// streaming pipeline (pull-path ingest rate and the million-job windowed
/// run).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <unistd.h>
#include <utility>
#include <vector>

#include "cluster/first_fit.hpp"
#include "core/policy_registry.hpp"
#include "core/scheduler.hpp"
#include "power/time_model.hpp"
#include "report/result_cache.hpp"
#include "report/sweep.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/source.hpp"
#include "workload/stream.hpp"
#include "workload/synthetic.hpp"

using namespace bsld;

namespace {

void BM_EngineScheduleDrain(benchmark::State& state) {
  const auto events = static_cast<std::int64_t>(state.range(0));
  util::Rng rng(42);
  for (auto _ : state) {
    sim::Engine engine;
    for (std::int64_t i = 0; i < events; ++i) {
      engine.schedule(sim::Event{rng.uniform_int(0, 1'000'000),
                                 sim::EventKind::kJobSubmit, 0, i});
    }
    while (auto event = engine.pop()) benchmark::DoNotOptimize(*event);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineScheduleDrain)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_EarliestStart(benchmark::State& state) {
  const auto cpus = static_cast<std::int32_t>(state.range(0));
  cluster::Machine machine(cpus);
  util::Rng rng(7);
  // Fill ~2/3 of the machine with fake jobs of staggered expected ends.
  std::vector<CpuId> cpu_list;
  for (CpuId c = 0; c < cpus * 2 / 3; ++c) cpu_list.push_back(c);
  for (CpuId c : cpu_list) {
    machine.assign(c + 1, {c}, rng.uniform_int(100, 100000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.earliest_start(cpus / 2, 50));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EarliestStart)->Arg(430)->Arg(1152)->Arg(9216);

/// Scheduler-layer double for BM_EasySchedulePass: a machine, a job table
/// and a fixed clock; start_job occupies the machine as the simulation
/// would, so the pass sees the CPUs it hands out.
class PassContext final : public core::SchedulerContext {
 public:
  PassContext(cluster::Machine machine, Time now,
              const power::BetaTimeModel& time_model,
              const std::map<JobId, wl::Job>& jobs)
      : machine_(std::move(machine)), now_(now), time_model_(time_model),
        jobs_(jobs) {}

  cluster::Machine& mutable_machine() { return machine_; }
  void set_now(Time now) { now_ = now; }
  [[nodiscard]] Time now() const override { return now_; }
  [[nodiscard]] const cluster::Machine& machine() const override {
    return machine_;
  }
  [[nodiscard]] const wl::Job& job(JobId id) const override {
    return jobs_.at(id);
  }
  [[nodiscard]] const power::BetaTimeModel& time_model() const override {
    return time_model_;
  }
  void start_job(JobId id, const std::vector<CpuId>& cpus,
                 GearIndex /*gear*/) override {
    machine_.assign(id, cpus, now_ + jobs_.at(id).requested_time);
    if (starts != nullptr) starts->emplace_back(id, cpus);
  }
  [[nodiscard]] std::vector<JobId> running_jobs() const override { return {}; }
  [[nodiscard]] GearIndex running_gear(JobId /*id*/) const override {
    throw Error("PassContext: no running-job records");
  }
  void boost_job(JobId /*id*/, GearIndex /*gear*/) override {
    throw Error("PassContext: no running-job records");
  }

  /// When set, start_job also logs each start, so a multi-pass bench can
  /// complete the job later.
  std::vector<std::pair<JobId, std::vector<CpuId>>>* starts = nullptr;

 private:
  cluster::Machine machine_;
  Time now_;
  const power::BetaTimeModel& time_model_;
  const std::map<JobId, wl::Job>& jobs_;
};

/// One EASY + BSLD-threshold on_job_end pass (the paper-grid policy) on a
/// machine of range(0) CPUs: a full machine with staggered expected ends
/// and 116 queued jobs (the paper grid's mean queue) sees one job of ~1/10
/// of the machine finish. Only the pass is timed; rebuilding the queue and
/// the occupancy between passes is not.
void BM_EasySchedulePass(benchmark::State& state) {
  const auto cpus = static_cast<std::int32_t>(state.range(0));
  const Time now = 1'000'000;
  util::Rng rng(13);
  std::map<JobId, wl::Job> jobs;
  const auto add_job = [&](JobId id, std::int32_t size) {
    wl::Job job;
    job.id = id;
    job.submit = now - rng.uniform_int(0, 50'000);
    job.requested_time = rng.uniform_int(60, 40'000);
    job.run_time = job.requested_time;
    job.size = size;
    jobs[id] = job;
  };
  const auto draw_size = [&] {
    return static_cast<std::int32_t>(
        rng.uniform_int(1, std::max(1, cpus / 16)));
  };

  // Fill the machine completely; job 1 holds ~1/10 of it and is the one
  // that finishes.
  cluster::Machine full(cpus);
  std::vector<CpuId> finishing;
  CpuId next_cpu = 0;
  for (JobId id = 1; next_cpu < cpus; ++id) {
    const std::int32_t size =
        std::min(id == 1 ? std::max(1, cpus / 10) : draw_size(),
                 cpus - next_cpu);
    std::vector<CpuId> cpu_list;
    for (std::int32_t k = 0; k < size; ++k) cpu_list.push_back(next_cpu++);
    full.assign(id, cpu_list, now + rng.uniform_int(1, 40'000));
    if (id == 1) finishing = cpu_list;
  }
  constexpr JobId kFirstQueued = 1'000'000;
  constexpr int kQueued = 116;
  for (int k = 0; k < kQueued; ++k) add_job(kFirstQueued + k, draw_size());

  const cluster::GearSet gears = cluster::paper_gear_set();
  const power::BetaTimeModel time_model(gears, 0.5);
  core::PolicySpec spec;
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 16;
  spec.dvfs = dvfs;
  for (auto _ : state) {
    state.PauseTiming();
    PassContext ctx(full, now, time_model, jobs);
    const auto policy = core::PolicyRegistry::global().make(spec);
    for (int k = 0; k < kQueued; ++k) policy->on_submit(ctx, kFirstQueued + k);
    ctx.mutable_machine().release(1, finishing);
    state.ResumeTiming();
    policy->on_job_end(ctx, 1);
    benchmark::DoNotOptimize(policy->queue_size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EasySchedulePass)->Arg(430)->Arg(9216)->UseRealTime();

/// EASY + BSLD-threshold over a sequence of completions: one policy holds
/// range(0) queued jobs on a full 1152-CPU machine, then the 64 earliest
/// expected ends complete one after another; jobs a pass starts join the
/// sequence with their own ends. Unlike BM_EasySchedulePass the policy's
/// state carries across passes (116 is the paper grid's mean queue, 570
/// the depth a binding power cap holds). Only the passes are timed.
void BM_EasyCompletionSequence(benchmark::State& state) {
  const auto queued = static_cast<int>(state.range(0));
  constexpr std::int32_t kCpus = 1152;
  constexpr std::int32_t kMaxSize = kCpus / 16;
  constexpr int kCompletions = 64;
  const Time now = 1'000'000;
  util::Rng rng(19);
  std::map<JobId, wl::Job> jobs;
  const auto draw_size = [&] {
    return static_cast<std::int32_t>(rng.uniform_int(1, kMaxSize));
  };

  struct Running {
    Time end;
    JobId id;
    std::vector<CpuId> cpus;
    bool operator>(const Running& other) const {
      return end != other.end ? end > other.end : id > other.id;
    }
  };
  cluster::Machine full(kCpus);
  std::vector<Running> initial;
  CpuId next_cpu = 0;
  for (JobId id = 1; next_cpu < kCpus; ++id) {
    const std::int32_t size = std::min(draw_size(), kCpus - next_cpu);
    Running job{now + rng.uniform_int(1, 40'000), id, {}};
    for (std::int32_t k = 0; k < size; ++k) job.cpus.push_back(next_cpu++);
    full.assign(id, job.cpus, job.end);
    initial.push_back(std::move(job));
  }
  constexpr JobId kFirstQueued = 1'000'000;
  for (int k = 0; k < queued; ++k) {
    wl::Job job;
    job.id = kFirstQueued + k;
    job.submit = now - rng.uniform_int(0, 50'000);
    job.requested_time = rng.uniform_int(60, 40'000);
    job.run_time = job.requested_time;
    job.size = draw_size();
    jobs[job.id] = job;
  }

  const cluster::GearSet gears = cluster::paper_gear_set();
  const power::BetaTimeModel time_model(gears, 0.5);
  core::PolicySpec spec;
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 16;
  spec.dvfs = dvfs;
  std::vector<std::pair<JobId, std::vector<CpuId>>> starts;
  for (auto _ : state) {
    state.PauseTiming();
    PassContext ctx(full, now, time_model, jobs);
    ctx.starts = &starts;
    const auto policy = core::PolicyRegistry::global().make(spec);
    for (int k = 0; k < queued; ++k) policy->on_submit(ctx, kFirstQueued + k);
    std::priority_queue<Running, std::vector<Running>, std::greater<>>
        running(std::greater<>{}, initial);
    starts.clear();
    state.ResumeTiming();
    for (int k = 0; k < kCompletions && !running.empty(); ++k) {
      Running done = running.top();
      running.pop();
      ctx.set_now(std::max(ctx.now(), done.end));
      ctx.mutable_machine().release(done.id, done.cpus);
      policy->on_job_end(ctx, done.id);
      for (auto& [id, cpus] : starts) {
        running.push({ctx.now() + jobs.at(id).requested_time, id,
                      std::move(cpus)});
      }
      starts.clear();
    }
    benchmark::DoNotOptimize(policy->queue_size());
  }
  state.SetItemsProcessed(state.iterations() * kCompletions);
}
BENCHMARK(BM_EasyCompletionSequence)->Arg(116)->Arg(570)->UseRealTime();

void BM_GenerateTrace(benchmark::State& state) {
  const auto archive = static_cast<wl::Archive>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wl::load_source(wl::WorkloadSource::from_archive(archive)));
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_GenerateTrace)
    ->Arg(static_cast<int>(wl::Archive::kCTC))
    ->Arg(static_cast<int>(wl::Archive::kLLNLAtlas));

void BM_SimulateArchive(benchmark::State& state) {
  const auto archive = static_cast<wl::Archive>(state.range(0));
  report::RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(archive);
  core::DvfsConfig config;
  config.bsld_threshold = 2.0;
  config.wq_threshold = 16;
  spec.policy.dvfs = config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(report::run_one(spec));
  }
  state.SetItemsProcessed(state.iterations() * 5000);  // jobs per run
}
BENCHMARK(BM_SimulateArchive)
    ->Arg(static_cast<int>(wl::Archive::kCTC))
    ->Arg(static_cast<int>(wl::Archive::kSDSC))
    ->Arg(static_cast<int>(wl::Archive::kSDSCBlue))
    ->Arg(static_cast<int>(wl::Archive::kLLNLThunder))
    ->Arg(static_cast<int>(wl::Archive::kLLNLAtlas))
    ->Unit(benchmark::kMillisecond);

/// Power-management cost on the headline simulation: Arg(0) runs the CTC
/// DVFS case with the default pm=none spec — guarded so the pm hook in
/// the simulation loop stays free when no manager is installed — and
/// Arg(1) runs the same case under a binding 4 kW cap-uniform budget,
/// bounding the cost of throttle/gate bookkeeping when one is.
void BM_PowerCapSweep(benchmark::State& state) {
  report::RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kCTC);
  core::DvfsConfig config;
  config.bsld_threshold = 2.0;
  config.wq_threshold = 16;
  spec.policy.dvfs = config;
  if (state.range(0) == 1) {
    spec.pm.name = "cap-uniform";
    spec.pm.cap_watts = 4000.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(report::run_one(spec));
  }
  state.SetItemsProcessed(state.iterations() * 5000);  // jobs per run
}
BENCHMARK(BM_PowerCapSweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Grid throughput through SweepRunner: 24 specs of which only 6 are
/// distinct (each repeated 4x, the shape of a figure grid with shared
/// baselines). Arg(1) enables spec-keyed dedup — the headline win — while
/// Arg(0) measures the raw pool.
void BM_SweepThroughput(benchmark::State& state) {
  const bool dedup = state.range(0) != 0;
  std::vector<report::RunSpec> specs;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (const double threshold : {1.5, 2.0, 3.0}) {
      for (const bool wq_limited : {true, false}) {
        report::RunSpec spec;
        spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kCTC, 400);
        core::DvfsConfig dvfs;
        dvfs.bsld_threshold = threshold;
        if (wq_limited) dvfs.wq_threshold = 4;
        else dvfs.wq_threshold = std::nullopt;
        spec.policy.dvfs = dvfs;
        specs.push_back(spec);
      }
    }
  }
  report::SweepRunner::Options options;
  options.threads = 2;
  options.dedup = dedup;
  for (auto _ : state) {
    report::SweepRunner runner(options);
    benchmark::DoNotOptimize(runner.run(specs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_SweepThroughput)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Streaming vs retained measurement on a large synthetic workload:
/// Arg(1) keeps the full JobOutcome vector (the default), Arg(0) runs the
/// aggregate-only observer set. The `retained_kb` counter reports the
/// per-run memory the streaming mode avoids; SimulationResult aggregates
/// are bit-identical either way (covered by the integration suite).
void BM_RetainJobsMode(benchmark::State& state) {
  const bool retain = state.range(0) != 0;
  constexpr std::int32_t kJobs = 60'000;
  report::RunSpec spec;
  spec.workload =
      wl::WorkloadSource::from_archive(wl::Archive::kLLNLThunder, kJobs);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 16;
  spec.policy.dvfs = dvfs;
  spec.retain_jobs = retain;
  double retained_kb = 0.0;
  for (auto _ : state) {
    const report::RunResult result = report::run_one(spec);
    benchmark::DoNotOptimize(result.sim().avg_bsld);
    retained_kb = static_cast<double>(result.sim().jobs.capacity() *
                                      sizeof(sim::JobOutcome)) /
                  1024.0;
  }
  state.counters["retained_kb"] = retained_kb;
  state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_RetainJobsMode)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Warm-sweep throughput through the persistent result cache: the grid of
/// BM_SweepThroughput pre-stored once, then every iteration served entirely
/// from disk (progress.executed == 0). This is the "repeated sweeps are
/// free" headline — compare against BM_SweepThroughput/1 (the same grid,
/// simulated).
void BM_CacheHitSweep(benchmark::State& state) {
  std::vector<report::RunSpec> specs;
  for (const double threshold : {1.5, 2.0, 3.0}) {
    for (const bool wq_limited : {true, false}) {
      report::RunSpec spec;
      spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kCTC, 400);
      core::DvfsConfig dvfs;
      dvfs.bsld_threshold = threshold;
      if (wq_limited) dvfs.wq_threshold = 4;
      else dvfs.wq_threshold = std::nullopt;
      spec.policy.dvfs = dvfs;
      specs.push_back(spec);
    }
  }

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("bsld-bench-cache-" + std::to_string(static_cast<long>(::getpid())));
  report::ResultCache cache(root);
  {
    report::SweepRunner::Options options;
    options.threads = 2;
    options.cache = &cache;
    report::SweepRunner warmup(options);
    (void)warmup.run(specs);  // populate the store once.
  }

  std::size_t executed = 0;
  for (auto _ : state) {
    report::SweepRunner::Options options;
    options.threads = 2;
    options.cache = &cache;
    report::SweepRunner runner(options);
    benchmark::DoNotOptimize(runner.run(specs));
    executed += runner.progress().executed;
  }
  state.counters["simulated"] = static_cast<double>(executed);  // expect 0.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_CacheHitSweep)->Unit(benchmark::kMillisecond);

/// An undersaturated generator profile: the wait queue stays shallow, so
/// the streaming benchmarks measure pipeline throughput, not the
/// scheduler's backlog scans (archive profiles run near saturation and
/// their per-event cost grows with trace length).
wl::WorkloadSpec low_load_spec(std::int64_t jobs) {
  wl::WorkloadSpec spec;
  spec.name = "lowload";
  spec.cpus = 256;
  spec.num_jobs = jobs;
  spec.arrival.load_target = 0.35;
  spec.runtime.classes = {{1.0, 4.0, 1.0}};
  return spec;
}

/// Pull-path ingest rate: open_stream() drained job by job, no simulation.
/// This is the floor every streaming run pays per job — generator draws,
/// (submit, id) ordering, and the virtual next() dispatch.
void BM_StreamIngest(benchmark::State& state) {
  const auto jobs = static_cast<std::int64_t>(state.range(0));
  const wl::WorkloadSource source =
      wl::WorkloadSource::from_spec(low_load_spec(jobs), 11);
  for (auto _ : state) {
    const std::unique_ptr<wl::JobStream> stream = wl::open_stream(source);
    while (std::optional<wl::Job> job = stream->next()) {
      benchmark::DoNotOptimize(*job);
    }
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_StreamIngest)->Arg(100'000)->Unit(benchmark::kMillisecond);

/// The headline scale case: one million jobs pulled through the streaming
/// pipeline end to end — bounded lookahead window, aggregate-only
/// observers, sampled traces — with the window high-water mark reported as
/// a counter (the O(1)-memory claim, asserted exactly by the integration
/// suite).
void BM_MillionJobSim(benchmark::State& state) {
  report::RunSpec spec;
  spec.workload = wl::WorkloadSource::from_spec(low_load_spec(1'000'000), 11);
  spec.stream = true;
  spec.retain_jobs = false;
  spec.instruments = {"wait-trace", "utilization"};
  spec.sample.cap = 512;
  double peak_live = 0.0;
  for (auto _ : state) {
    const report::RunResult result = report::run_one(spec);
    benchmark::DoNotOptimize(result.sim().avg_bsld);
    peak_live = static_cast<double>(result.sim().peak_live_jobs);
  }
  state.counters["peak_live_jobs"] = peak_live;
  state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_MillionJobSim)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
