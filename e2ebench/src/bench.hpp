/// \file bench.hpp
/// \brief The three benchmark workloads and what a run reports.
///
/// An untraced run (trace = false) times the workload end to end and fills
/// the end-to-end metrics; a traced run does a fixed amount of the same
/// work through the decorated rebuild (decorators.hpp) and fills the
/// per-layer metrics. Both count every operation they check in `ops`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.hpp"
#include "decorators.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Work space for inputs, cache dirs, the daemon socket and span
  /// dumps (relative to the working directory: socket paths are short).
  std::filesystem::path work_dir;
  unsigned threads = 1;  ///< Worker threads: min(nproc, 4).
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  OpTally ops;
  std::vector<Metric> metrics;
  /// `key=value` facts printed with the stamp: sample counts, digests,
  /// which percentile the tail metric is, failures.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& text) { notes.push_back(text); }
};

Outcome run_paper_grid(const Options& options);
Outcome run_swf_replay(const Options& options);
Outcome run_daemon_mixed(const Options& options);

// --- Shared helpers ---------------------------------------------------------

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

/// Derives an independent 64-bit seed from `seed` and a stream label.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t label);

/// Uniform index in [0, n).
std::size_t pick(bsld::util::Rng& rng, std::size_t n);

/// 16 hex digits.
std::string hex_digest(std::uint64_t digest);

/// The CPUs this process may run on (sched_getaffinity), ascending.
std::vector<int> usable_cpus();

/// Pins the calling thread to `cpu`, or back to every usable CPU when
/// `cpu` is negative. Best effort: a refused request leaves it unpinned.
void pin_thread(int cpu);

/// Process high-water resident set (getrusage), MiB.
double peak_rss_mb();

/// Set-up time, seconds. `setup` runs `rounds` times on every usable CPU,
/// pinned to it: single-threaded speed differs between the cores of a
/// shared host, so each round weighs every core equally. Returns the median
/// over rounds of the round's mean; whatever `setup` returns is destroyed
/// after its timer stops. Leaves the calling thread unpinned.
template <typename Setup>
double setup_time_s(int rounds, Setup&& setup) {
  const std::vector<int> cpus = usable_cpus();
  std::vector<double> round_means;
  for (int round = 0; round < rounds; ++round) {
    double sum = 0.0;
    for (const int cpu : cpus) {
      pin_thread(cpu);
      const double start = now_s();
      [[maybe_unused]] const auto made = setup();
      sum += now_s() - start;
    }
    round_means.push_back(sum / static_cast<double>(cpus.size()));
  }
  pin_thread(-1);
  return median(std::move(round_means));
}

/// What a traced run accumulates over the specs it traces.
struct TraceTotals {
  Tracer tracer;
  double untraced_s = 0.0;  ///< Σ run_one wall.
  double traced_s = 0.0;    ///< Σ traced_run wall.
  std::uint64_t events = 0;
  std::int64_t peak_live_jobs = 0;
};

/// Runs `spec` through report::run_one (into `plain`) and then through
/// traced_run, timing both, and returns the decorated run.
TracedRun trace_spec(const bsld::report::RunSpec& spec, TraceTotals& totals,
                     bsld::report::RunResult& plain);

/// Fills the per-layer metrics common to every workload from the spans and
/// counters, and fails the run when the spans do not nest.
void report_layers(Outcome& outcome, const TraceTotals& totals);

/// Writes the recorder's spans to `<work_dir>/spans-<workload>.csv`
/// (overwritten by the workload's next traced run).
void dump_spans(const Options& options, const Tracer& tracer);

}  // namespace e2e
