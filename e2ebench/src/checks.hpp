/// \file checks.hpp
/// \brief Output checks. Every operation the benchmark times — a grid run,
/// a replay, a daemon request — is checked, and one that fails a check is
/// counted as failed. Aggregates are compared bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace e2e {

/// Attempted/failed operation counts; error rate = failed / attempted.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one operation; `ok` false counts it as failed.
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double error_rate() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// True when every aggregate of the two results is bit-identical:
/// counts, BSLD/wait means, per-gear histogram, energy report, makespan,
/// utilization and event count. peak_live_jobs is left out: it is a
/// property of the ingestion path (job_count when materialized), not of
/// the schedule.
bool same_aggregates(const bsld::sim::SimulationResult& a,
                     const bsld::sim::SimulationResult& b);

/// FNV-1a over the exact bits of the aggregates same_aggregates compares.
/// Folding results in order gives a digest two runs can be compared by.
std::uint64_t fold_digest(std::uint64_t digest,
                          const bsld::sim::SimulationResult& result);
/// FNV-1a over raw bytes (daemon reply payloads).
std::uint64_t fold_digest(std::uint64_t digest, const std::string& bytes);
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// The paper-grid invariants of one result: `expected_jobs` jobs,
/// avg_bsld >= 1, reduced_jobs <= job_count, positive energy, and no
/// reduced jobs for a no-DVFS baseline. Returns the violations (empty =
/// the result passes).
std::vector<std::string> grid_result_problems(
    const bsld::sim::SimulationResult& result, std::int64_t expected_jobs,
    bool baseline);

/// Checks one `run` reply: an `ok` header that parses, a payload of the
/// announced size followed by the `end` trailer, one row, and the cache
/// attributes the plan predicts (executed=0 cache_hits=1 for a repeat of
/// an earlier spec, executed=1 cache_hits=0 for a new one). Returns the
/// problem, or an empty string.
std::string reply_problem(const std::string& header_line,
                          const std::string& payload,
                          const std::string& trailer, bool expect_hit);

}  // namespace e2e
