// End-to-end benchmark program. Usage:
//
//   bsld_e2e --workload <paper-grid|swf-replay|daemon-mixed> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Prints a stamp (build, compiler, nproc, seed, sample counts, digest) as
// `# ` lines, then one JSON line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics the workload reaches; e2ebench/run.py fits them to the
// lists in BENCHMARK.json. Exits 1 when an output check failed, 2 on bad
// arguments or a non-Release build, 3 when the run itself threw. Run from
// the repository root: work files go to .bench_build/work, a relative
// path so the daemon's socket path stays short.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/parse.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_LTO
#define E2E_LTO 0
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "bsld_e2e: %s\nusage: bsld_e2e --workload "
               "<paper-grid|swf-replay|daemon-mixed> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               message);
  return 2;
}

void print_json(const e2e::Outcome& outcome, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.ops.attempted),
              static_cast<unsigned long long>(outcome.ops.failed));
  const char* separator = "";
  for (const e2e::Metric& metric : outcome.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator,
                metric.name.c_str(), metric.value, metric.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  options.work_dir = ".bench_build/work";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const auto seed = bsld::util::parse_uint(value);
      if (!seed) return usage("--seed must be an unsigned integer");
      options.seed = *seed;
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto seconds = bsld::util::parse_double(value);
      if (!seconds || *seconds <= 0) return usage("--seconds must be positive");
      options.seconds = *seconds;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  using Workload = e2e::Outcome (*)(const e2e::Options&);
  Workload workload = nullptr;
  if (options.workload == "paper-grid") {
    workload = e2e::run_paper_grid;
  } else if (options.workload == "swf-replay") {
    workload = e2e::run_swf_replay;
  } else if (options.workload == "daemon-mixed") {
    workload = e2e::run_daemon_mixed;
  } else {
    return usage(("unknown workload " + options.workload).c_str());
  }
  // Same rule as scripts/bench_compare.py: numbers from anything but an
  // optimized Release build are not comparable, so refuse to produce them.
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "bsld_e2e: refusing a %s build (Release required)\n",
                 E2E_BUILD_TYPE);
    return 2;
  }
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  options.threads = std::min(nproc, 4U);

  e2e::Outcome outcome;
  try {
    std::filesystem::create_directories(options.work_dir);
    outcome = workload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bsld_e2e: %s: %s\n", options.workload.c_str(),
                 error.what());
    return 3;
  }

  // A value that is not a number cannot be printed as JSON or compared.
  bool finite = true;
  for (e2e::Metric& metric : outcome.metrics) {
    if (!std::isfinite(metric.value)) {
      finite = false;
      outcome.note("failed=" + metric.name + " is not finite");
      metric.value = 0.0;
    }
  }
  const bool correct = finite && outcome.ops.attempted > 0 && outcome.ops.failed == 0;

  std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# build_type=%s lto=%s compiler=%s nproc=%u threads=%u\n",
              E2E_BUILD_TYPE, E2E_LTO ? "on" : "off", E2E_COMPILER, nproc,
              options.threads);
  for (const std::string& note : outcome.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# error_rate=%.6g (%llu failed of %llu operations)\n",
              outcome.ops.error_rate(),
              static_cast<unsigned long long>(outcome.ops.failed),
              static_cast<unsigned long long>(outcome.ops.attempted));
  for (const e2e::Metric& metric : outcome.metrics) {
    std::printf("# %-24s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  print_json(outcome, correct);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
