// paper-grid: the §5.1 grid (5 archives x 3 BSLD x 4 WQ thresholds plus one
// no-DVFS baseline per archive, 5000 jobs each) through report::SweepRunner
// with dedup on and no cache. The archives run near saturation, so EASY
// backfilling and the frequency assigner do the work; pm, instruments, the
// cache and the daemon are not involved.

#include <map>
#include <thread>

#include "bench.hpp"
#include "report/figures.hpp"
#include "report/sweep.hpp"
#include "workload/source.hpp"

namespace e2e {

namespace {

namespace br = bsld::report;
namespace bw = bsld::wl;

constexpr std::int32_t kGridJobs = 5000;
/// Grid specs re-run through the streaming path after timing.
constexpr std::size_t kStreamChecks = 3;
/// Distinct seeded grids the passes of an untraced run cycle through.
constexpr std::size_t kPassGrids = 8;

bool is_baseline(const br::RunSpec& spec) { return !spec.policy.dvfs; }

/// The paper grid with each archive model seeded from the benchmark seed.
std::vector<br::RunSpec> grid_specs(std::uint64_t seed) {
  br::OriginalSizeGrid grid = br::original_size_grid(kGridJobs);
  std::vector<br::RunSpec> specs = std::move(grid.dvfs_specs);
  specs.insert(specs.end(), grid.baseline_specs.begin(),
               grid.baseline_specs.end());
  for (br::RunSpec& spec : specs) {
    spec.workload.seed =
        derive_seed(seed, static_cast<std::uint64_t>(spec.workload.archive));
  }
  return specs;
}

/// One SweepRunner pass over the grid.
struct Pass {
  std::vector<br::RunResult> results;
  double wall_s = 0.0;
  std::vector<double> row_s;  ///< Pass start -> each row's completion.
  /// Σ over workers of their last completion: the time workers were busy
  /// (each picks its next spec as soon as the previous one is done).
  double busy_s = 0.0;
  std::size_t executed = 0;
};

Pass run_pass(const std::vector<br::RunSpec>& specs, unsigned threads) {
  br::SweepRunner::Options runner_options;
  runner_options.threads = threads;
  runner_options.dedup = true;
  br::SweepRunner runner(runner_options);
  Pass pass;
  std::map<std::thread::id, double> last_done;
  const double start = now_s();
  // Called on the worker that ran the spec, serialized by the runner.
  runner.on_progress([&](const br::SweepRunner::Progress&, const br::RunSpec&) {
    const double at = now_s() - start;
    pass.row_s.push_back(at);
    last_done[std::this_thread::get_id()] = at;
  });
  pass.results = runner.run(specs);
  pass.wall_s = now_s() - start;
  for (const auto& [id, at] : last_done) pass.busy_s += at;
  pass.executed = runner.progress().executed;
  return pass;
}

/// Counts every grid slot of `pass` as one operation that must satisfy the
/// grid invariants; returns the digest of the pass's aggregates.
std::uint64_t check_pass(Outcome& outcome, const Pass& pass,
                         const std::vector<br::RunSpec>& specs) {
  std::uint64_t digest = kDigestSeed;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const bsld::sim::SimulationResult& sim = pass.results[i].sim();
    const std::vector<std::string> problems =
        grid_result_problems(sim, kGridJobs, is_baseline(specs[i]));
    outcome.ops.record(problems.empty());
    for (const std::string& problem : problems) {
      outcome.note("failed=" + specs[i].label() + ": " + problem);
    }
    digest = fold_digest(digest, sim);
  }
  return digest;
}

/// Re-runs seeded grid slots through the streaming path: each must give
/// the pass's aggregates bit for bit.
void check_streaming(Outcome& outcome, const Pass& pass,
                     const std::vector<br::RunSpec>& specs, std::uint64_t seed) {
  bsld::util::Rng rng(derive_seed(seed, 0x57e4));
  for (std::size_t k = 0; k < kStreamChecks; ++k) {
    const std::size_t i = pick(rng, specs.size());
    br::RunSpec streamed = specs[i];
    streamed.stream = true;
    const bool same =
        same_aggregates(br::run_one(streamed).sim(), pass.results[i].sim());
    outcome.ops.record(same);
    if (!same) outcome.note("failed=" + specs[i].label() + ": stream != eager");
  }
}

void untraced(const Options& options, Outcome& outcome) {
  // Consecutive passes run different seeded grids (cycling through
  // kPassGrids of them), so a run averages over several draws of the
  // archive models instead of resting on one.
  std::vector<std::vector<br::RunSpec>> grids;
  // Set-up: build the grids and generate each seeded archive trace once,
  // checking it has the stated size (the grid runs regenerate them).
  const double setup_s = setup_time_s(2, [&] {
    grids.clear();
    for (std::size_t g = 0; g < kPassGrids; ++g) {
      grids.push_back(grid_specs(derive_seed(options.seed, g)));
      for (const br::RunSpec& spec : grids.back()) {
        if (is_baseline(spec) &&
            static_cast<std::int64_t>(bw::load_source(spec.workload).jobs.size()) !=
                kGridJobs) {
          throw std::runtime_error("archive trace has the wrong size");
        }
      }
    }
    return grids.size();
  });

  // Each pass is checked as soon as it ends (outside its timed window) and
  // then dropped, so memory does not grow with the number of passes.
  std::vector<std::uint64_t> digests;
  std::vector<double> row_ms;
  double jobs = 0.0;
  double rows = 0.0;
  double timed_s = 0.0;
  std::size_t passes = 0;
  std::string pass_walls;
  while (passes == 0 || timed_s < options.seconds) {
    const std::vector<br::RunSpec>& specs = grids[passes % kPassGrids];
    const Pass pass = run_pass(specs, options.threads);
    timed_s += pass.wall_s;
    if (passes != 0) pass_walls += ',';
    pass_walls += std::to_string(pass.wall_s);
    for (const br::RunResult& result : pass.results) {
      jobs += static_cast<double>(result.sim().job_count);
    }
    rows += static_cast<double>(specs.size());
    for (const double at : pass.row_s) row_ms.push_back(1e3 * at);

    const std::uint64_t digest = check_pass(outcome, pass, specs);
    if (passes < kPassGrids) {
      digests.push_back(digest);
    } else {
      // A grid met again must repeat its first pass.
      const bool repeats = digest == digests[passes % kPassGrids];
      outcome.ops.record(repeats);
      if (!repeats) outcome.note("failed=grid pass not repeatable");
    }
    if (passes == 0) check_streaming(outcome, pass, specs, options.seed);
    ++passes;
  }
  const double rss_mb = peak_rss_mb();

  const TailPercentile tail = tail_percentile(row_ms);
  outcome.set("setup_s", setup_s, "s");
  outcome.set("jobs_per_s", jobs / timed_s, "jobs/s");
  outcome.set("peak_rss_mb", rss_mb, "MB");
  outcome.set("query_p50_ms", median(row_ms), "ms");
  outcome.set("query_p99_ms", tail.value, "ms");
  outcome.set("queries_per_s", rows / timed_s, "req/s");
  outcome.note("query=one grid row, timed from the start of its pass");
  outcome.note("passes=" + std::to_string(passes) + " wall_s=" + pass_walls);
  outcome.note("rows=" + std::to_string(row_ms.size()));
  outcome.note("query_p99_ms=" + tail.describe());
  outcome.note("digest=" + hex_digest(digests.front()));
}

void traced(const Options& options, Outcome& outcome) {
  // The first grid of the untraced run: the digests of the two agree.
  const std::vector<br::RunSpec> specs = grid_specs(derive_seed(options.seed, 0));
  const Pass pass = run_pass(specs, options.threads);
  const std::uint64_t digest = check_pass(outcome, pass, specs);
  outcome.set("report.pool_eff",
              pass.busy_s / (pass.wall_s * static_cast<double>(options.threads)),
              "fraction");
  outcome.set("report.executed", static_cast<double>(pass.executed), "count");

  // One seeded spec per archive, run untraced (run_one) and rebuilt with
  // every layer decorated; the two must agree bit for bit with each other
  // and with the grid pass.
  bsld::util::Rng rng(derive_seed(options.seed, 0x7ace));
  TraceTotals totals;
  for (const bw::Archive archive : bw::all_archives()) {
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].workload.archive == archive) candidates.push_back(i);
    }
    const std::size_t i = candidates[pick(rng, candidates.size())];
    br::RunResult plain;
    const TracedRun decorated = trace_spec(specs[i], totals, plain);
    const bool same = same_aggregates(decorated.sim, plain.sim()) &&
                      same_aggregates(plain.sim(), pass.results[i].sim());
    outcome.ops.record(same);
    if (!same) outcome.note("failed=" + specs[i].label() + ": traced != untraced");
  }
  report_layers(outcome, totals);
  outcome.note("traced_specs=" + std::to_string(bw::all_archives().size()));
  outcome.note("digest=" + hex_digest(digest));
  dump_spans(options, totals.tracer);
}

}  // namespace

Outcome run_paper_grid(const Options& options) {
  Outcome outcome;
  if (options.trace) {
    traced(options, outcome);
  } else {
    untraced(options, outcome);
  }
  return outcome;
}

}  // namespace e2e
