#include "checks.hpp"

#include <bit>
#include <exception>

#include "server/protocol.hpp"

namespace e2e {

namespace {

std::uint64_t fold_word(std::uint64_t digest, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (word >> (8 * i)) & 0xffU;
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

std::uint64_t fold_double(std::uint64_t digest, double value) {
  return fold_word(digest, std::bit_cast<std::uint64_t>(value));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

const std::string* attr(const bsld::server::ReplyHeader& header,
                        const std::string& key) {
  for (const auto& [name, value] : header.attrs) {
    if (name == key) return &value;
  }
  return nullptr;
}

}  // namespace

bool same_aggregates(const bsld::sim::SimulationResult& a,
                     const bsld::sim::SimulationResult& b) {
  const bsld::power::EnergyReport& ea = a.energy;
  const bsld::power::EnergyReport& eb = b.energy;
  return a.workload == b.workload && a.policy == b.policy && a.cpus == b.cpus &&
         a.job_count == b.job_count && same_bits(a.avg_bsld, b.avg_bsld) &&
         same_bits(a.avg_wait, b.avg_wait) && a.reduced_jobs == b.reduced_jobs &&
         a.boosted_jobs == b.boosted_jobs && a.jobs_per_gear == b.jobs_per_gear &&
         same_bits(ea.computational_joules, eb.computational_joules) &&
         same_bits(ea.total_joules, eb.total_joules) &&
         same_bits(ea.idle_joules, eb.idle_joules) &&
         same_bits(ea.busy_core_seconds, eb.busy_core_seconds) &&
         same_bits(ea.idle_core_seconds, eb.idle_core_seconds) &&
         same_bits(ea.sleep_core_seconds, eb.sleep_core_seconds) &&
         same_bits(ea.sleep_joules, eb.sleep_joules) &&
         ea.horizon == eb.horizon && a.makespan == b.makespan &&
         same_bits(a.utilization, b.utilization) &&
         a.events_processed == b.events_processed;
}

std::uint64_t fold_digest(std::uint64_t digest,
                          const bsld::sim::SimulationResult& r) {
  digest = fold_word(digest, static_cast<std::uint64_t>(r.cpus));
  digest = fold_word(digest, static_cast<std::uint64_t>(r.job_count));
  digest = fold_double(digest, r.avg_bsld);
  digest = fold_double(digest, r.avg_wait);
  digest = fold_word(digest, static_cast<std::uint64_t>(r.reduced_jobs));
  digest = fold_word(digest, static_cast<std::uint64_t>(r.boosted_jobs));
  for (const std::int64_t count : r.jobs_per_gear) {
    digest = fold_word(digest, static_cast<std::uint64_t>(count));
  }
  digest = fold_double(digest, r.energy.computational_joules);
  digest = fold_double(digest, r.energy.total_joules);
  digest = fold_double(digest, r.energy.idle_joules);
  digest = fold_double(digest, r.energy.busy_core_seconds);
  digest = fold_double(digest, r.energy.idle_core_seconds);
  digest = fold_double(digest, r.energy.sleep_core_seconds);
  digest = fold_double(digest, r.energy.sleep_joules);
  digest = fold_word(digest, static_cast<std::uint64_t>(r.energy.horizon));
  digest = fold_word(digest, static_cast<std::uint64_t>(r.makespan));
  digest = fold_double(digest, r.utilization);
  return fold_word(digest, r.events_processed);
}

std::uint64_t fold_digest(std::uint64_t digest, const std::string& bytes) {
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

std::vector<std::string> grid_result_problems(
    const bsld::sim::SimulationResult& result, std::int64_t expected_jobs,
    bool baseline) {
  std::vector<std::string> problems;
  if (result.job_count != expected_jobs) {
    problems.push_back("job_count " + std::to_string(result.job_count) +
                       " != " + std::to_string(expected_jobs));
  }
  if (!(result.avg_bsld >= 1.0)) {
    problems.push_back("avg_bsld " + std::to_string(result.avg_bsld) + " < 1");
  }
  if (result.reduced_jobs < 0 || result.reduced_jobs > result.job_count) {
    problems.push_back("reduced_jobs " + std::to_string(result.reduced_jobs) +
                       " outside [0, job_count]");
  }
  if (!(result.energy.computational_joules > 0.0) ||
      !(result.energy.total_joules > 0.0)) {
    problems.push_back("non-positive energy");
  }
  if (baseline && result.reduced_jobs != 0) {
    problems.push_back("baseline reduced " +
                       std::to_string(result.reduced_jobs) + " jobs");
  }
  return problems;
}

std::string reply_problem(const std::string& header_line,
                          const std::string& payload,
                          const std::string& trailer, bool expect_hit) {
  bsld::server::ReplyHeader header;
  try {
    header = bsld::server::parse_reply_header(header_line);
  } catch (const std::exception& error) {
    return error.what();
  }
  if (!header.ok) return "err reply: " + header.error;
  if (header.payload_bytes != payload.size()) {
    return "payload is " + std::to_string(payload.size()) +
           " bytes, header announced " + std::to_string(header.payload_bytes);
  }
  if (trailer != "end") return "missing `end` trailer after the payload";
  const std::string* rows = attr(header, "rows");
  const std::string* executed = attr(header, "executed");
  const std::string* hits = attr(header, "cache_hits");
  if (rows == nullptr || *rows != "1") return "reply is not exactly one row";
  const char* want_executed = expect_hit ? "0" : "1";
  const char* want_hits = expect_hit ? "1" : "0";
  if (executed == nullptr || hits == nullptr || *executed != want_executed ||
      *hits != want_hits) {
    return std::string("cache attributes disagree with the plan (expected ") +
           (expect_hit ? "a hit" : "a miss") + "): " + header_line;
  }
  return {};
}

}  // namespace e2e
