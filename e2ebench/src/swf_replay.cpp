// swf-replay: one long streaming replay (stream = true, retain_jobs =
// false) of an SWF file written at set-up, repeated for the run. The trace
// comes from an undersaturated synthetic profile (256 CPUs, load ~0.35),
// so the queue stays shallow and per-job fixed costs lead: SWF parsing,
// engine events, the job window and observer delivery. Memory is
// O(window), so peak RSS exposes an O(jobs) regression.

#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "workload/source.hpp"
#include "workload/swf.hpp"

namespace e2e {

namespace {

namespace br = bsld::report;
namespace bw = bsld::wl;

constexpr std::int64_t kReplayJobs = 50'000;
constexpr std::size_t kWriteChunk = 4096;

bw::WorkloadSpec low_load_profile(std::int64_t jobs) {
  bw::WorkloadSpec spec;
  spec.name = "lowload";
  spec.cpus = 256;
  spec.num_jobs = jobs;
  spec.arrival.load_target = 0.35;
  spec.runtime.classes = {{1.0, 4.0, 1.0}};
  return spec;
}

/// Streams the seeded synthetic trace into an SWF file chunk by chunk (no
/// O(jobs) buffer, so set-up does not raise the RSS high-water mark).
/// Returns the records written.
std::int64_t write_trace(const std::filesystem::path& path,
                         std::uint64_t seed) {
  const std::unique_ptr<bw::JobStream> source = bw::open_stream(
      bw::WorkloadSource::from_spec(low_load_profile(kReplayJobs), seed));
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot create " + path.string());
  bw::Workload chunk{source->name(), source->cpus(), {}};
  chunk.jobs.reserve(kWriteChunk);
  std::int64_t written = 0;
  while (std::optional<bw::Job> job = source->next()) {
    chunk.jobs.push_back(*job);
    if (chunk.jobs.size() == kWriteChunk) {
      bw::write_swf(out, chunk);  // repeats the `;` header: SWF comments.
      written += static_cast<std::int64_t>(chunk.jobs.size());
      chunk.jobs.clear();
    }
  }
  bw::write_swf(out, chunk);
  written += static_cast<std::int64_t>(chunk.jobs.size());
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path.string());
  return written;
}

/// The paper policy (EASY, BSLD threshold 2, WQ threshold 16) streaming the
/// file through wait-trace, utilization and energy instruments, with the
/// time series capped at 512 samples.
br::RunSpec replay_spec(const std::filesystem::path& path) {
  br::RunSpec spec;
  spec.workload = bw::WorkloadSource::from_swf(path.string());
  bsld::core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 16;
  spec.policy.dvfs = dvfs;
  spec.instruments = {"wait-trace", "utilization", "energy"};
  spec.sample.cap = 512;
  spec.stream = true;
  spec.retain_jobs = false;
  return spec;
}

bool replay_ok(Outcome& outcome, const bsld::sim::SimulationResult& result,
               std::int64_t written, const bsld::sim::SimulationResult* first) {
  bool ok = true;
  if (result.job_count != written) {
    outcome.note("failed=replay simulated " + std::to_string(result.job_count) +
                 " of " + std::to_string(written) + " records");
    ok = false;
  }
  if (first != nullptr && !same_aggregates(result, *first)) {
    outcome.note("failed=replay not repeatable");
    ok = false;
  }
  return ok;
}

std::string instrument_csv(const bsld::sim::Instrument& instrument) {
  std::ostringstream out;
  instrument.write_csv(out);
  return out.str();
}

void untraced(const Options& options, Outcome& outcome) {
  const std::filesystem::path path = options.work_dir / "replay.swf";
  std::int64_t written = 0;
  const double setup_s = setup_time_s(2, [&] {
    written = write_trace(path, derive_seed(options.seed, 0x5f1));
    return written;
  });
  const br::RunSpec spec = replay_spec(path);

  // Replays run in rounds of one per usable CPU, each pinned to its CPU:
  // single-threaded speed differs between the cores of a shared host, and
  // whole rounds give every core the same weight in every run.
  const std::vector<int> cpus = usable_cpus();
  std::vector<bsld::sim::SimulationResult> results;
  std::vector<double> wall_ms;
  double timed_s = 0.0;
  while (results.empty() || timed_s < options.seconds) {
    for (const int cpu : cpus) {
      pin_thread(cpu);
      const double begin = now_s();
      results.push_back(br::run_one(spec).sim());
      const double wall_s = now_s() - begin;
      wall_ms.push_back(1e3 * wall_s);
      timed_s += wall_s;
    }
  }
  pin_thread(-1);
  const double rss_mb = peak_rss_mb();  // before the checks allocate.

  double jobs = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    outcome.ops.record(
        replay_ok(outcome, results[i], written, i == 0 ? nullptr : &results[0]));
    jobs += static_cast<double>(results[i].job_count);
  }

  const TailPercentile tail = tail_percentile(wall_ms);
  outcome.set("setup_s", setup_s, "s");
  outcome.set("jobs_per_s", jobs / timed_s, "jobs/s");
  outcome.set("peak_rss_mb", rss_mb, "MB");
  outcome.set("query_p50_ms", median(wall_ms), "ms");
  outcome.set("query_p99_ms", tail.value, "ms");
  outcome.set("queries_per_s", static_cast<double>(results.size()) / timed_s,
              "req/s");
  outcome.note("query=one full replay of the " + std::to_string(written) +
               "-record trace");
  outcome.note("replays=" + std::to_string(results.size()) + " over " +
               std::to_string(cpus.size()) + " cpus");
  outcome.note("query_p99_ms=" + tail.describe());
  outcome.note("peak_live_jobs=" + std::to_string(results[0].peak_live_jobs));
  outcome.note("digest=" + hex_digest(fold_digest(kDigestSeed, results[0])));
}

void traced(const Options& options, Outcome& outcome) {
  const std::filesystem::path path = options.work_dir / "replay.swf";
  const std::int64_t written = write_trace(path, derive_seed(options.seed, 0x5f1));
  const br::RunSpec spec = replay_spec(path);

  TraceTotals totals;
  br::RunResult plain;
  const TracedRun decorated = trace_spec(spec, totals, plain);

  // Fidelity: same aggregates, and the instruments captured the same
  // series.
  bool same = replay_ok(outcome, decorated.sim, written, &plain.sim());
  for (std::size_t i = 0; i < decorated.instruments.size(); ++i) {
    if (instrument_csv(*decorated.instruments[i]) !=
        instrument_csv(*plain.instruments[i])) {
      outcome.note("failed=traced " + decorated.instruments[i]->name() +
                   " differs");
      same = false;
    }
  }
  outcome.ops.record(same);
  report_layers(outcome, totals);
  outcome.note("digest=" + hex_digest(fold_digest(kDigestSeed, plain.sim())));
  dump_spans(options, totals.tracer);
}

}  // namespace

Outcome run_swf_replay(const Options& options) {
  Outcome outcome;
  if (options.trace) {
    traced(options, outcome);
  } else {
    untraced(options, outcome);
  }
  return outcome;
}

}  // namespace e2e
