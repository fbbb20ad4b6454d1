#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace e2e {

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t label) {
  // splitmix64 finalizer over the pair: independent streams per label.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + label + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;  // 0 would select an archive's default seed.
}

std::size_t pick(bsld::util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::string hex_digest(std::uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  return hex;
}

std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: run unpinned.
  return cpus;
}

void pin_thread(int cpu) {
  static const std::vector<int> all = usable_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  } else {
    for (const int each : all) {
      if (each >= 0) CPU_SET(each, &set);
    }
  }
  (void)sched_setaffinity(0, sizeof(set), &set);  // 0 = the calling thread.
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

double per(double total, double count, double scale) {
  return count > 0 ? scale * total / count : 0.0;
}

}  // namespace

TracedRun trace_spec(const bsld::report::RunSpec& spec, TraceTotals& totals,
                     bsld::report::RunResult& plain) {
  double start = now_s();
  plain = bsld::report::run_one(spec);
  totals.untraced_s += now_s() - start;
  start = now_s();
  TracedRun decorated = traced_run(spec, totals.tracer);
  totals.traced_s += now_s() - start;
  totals.events += decorated.sim.events_processed;
  totals.peak_live_jobs =
      std::max(totals.peak_live_jobs, decorated.sim.peak_live_jobs);
  return decorated;
}

void report_layers(Outcome& outcome, const TraceTotals& run) {
  const Tracer& tracer = run.tracer;
  const auto events = static_cast<double>(run.events);
  const LayerTotals totals = layer_totals(tracer.spans.spans());
  const LayerCounters& c = tracer.counters;
  const auto calls = static_cast<double>(c.policy_calls);
  outcome.set("core.calls", calls, "count");
  outcome.set("core.self_s", totals.self(Layer::kCore), "s");
  outcome.set("core.ns_per_call", per(totals.self(Layer::kCore), calls, 1e9),
              "ns");
  outcome.set("core.queue_mean",
              per(static_cast<double>(c.queue_sum), calls, 1.0), "jobs");
  outcome.set("sim.ctx_calls", static_cast<double>(c.ctx_calls), "count");
  outcome.set("sim.ctx_self_s", totals.self(Layer::kCtx), "s");
  outcome.set("sim.self_s", totals.self(Layer::kSim), "s");
  outcome.set("sim.events", events, "count");
  outcome.set("sim.ns_per_event", per(totals.self(Layer::kSim), events, 1e9),
              "ns");
  outcome.set("sim.peak_live_jobs", static_cast<double>(run.peak_live_jobs),
              "jobs");
  outcome.set("sim.obs_flushes", static_cast<double>(c.obs_flushes), "count");
  outcome.set("sim.obs_records", static_cast<double>(c.obs_records), "count");
  outcome.set("sim.obs_self_s", totals.self(Layer::kObs), "s");
  outcome.set("workload.calls", static_cast<double>(c.stream_calls), "count");
  outcome.set("workload.self_s", totals.self(Layer::kWorkload), "s");
  outcome.set("workload.ns_per_job",
              per(totals.self(Layer::kWorkload),
                  static_cast<double>(c.jobs_ingested), 1e9),
              "ns");
  outcome.set("pm.calls", static_cast<double>(c.pm_calls), "count");
  outcome.set("pm.self_s", totals.self(Layer::kPm), "s");
  outcome.set("pm.ns_per_call",
              per(totals.self(Layer::kPm), static_cast<double>(c.pm_calls), 1e9),
              "ns");
  outcome.set("pm.gate_ratio",
              per(static_cast<double>(c.pm_gated),
                  static_cast<double>(c.pm_starts), 1.0),
              "fraction");
  outcome.set("trace.overhead_frac",
              run.untraced_s > 0 ? run.traced_s / run.untraced_s - 1.0 : 0.0,
              "fraction");
  outcome.set("trace.unattributed_frac",
              per(totals.self(Layer::kSpec), totals.duration(Layer::kSpec), 1.0),
              "fraction");
  outcome.note("spans=" + std::to_string(tracer.spans.spans().size()));
  if (!tracer.spans.well_nested()) {
    outcome.ops.record(false);
    outcome.note("failed=spans not well nested");
  }
}

void dump_spans(const Options& options, const Tracer& tracer) {
  std::ofstream out(options.work_dir / ("spans-" + options.workload + ".csv"));
  tracer.spans.write_csv(out);
}

}  // namespace e2e
