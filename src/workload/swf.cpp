#include "workload/swf.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <vector>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace bsld::wl {

namespace {

/// Parses one signed integer token; returns false on garbage.
bool parse_int(std::string_view token, std::int64_t& out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc{} && result.ptr == end;
}

/// SWF allows fractional seconds in some fields; accept and truncate.
bool parse_time_like(std::string_view token, std::int64_t& out) {
  if (parse_int(token, out)) return true;
  const std::optional<double> value = util::parse_double(token);
  if (!value) return false;
  // Truncating a double outside int64's range is undefined behaviour;
  // such a "time" is a malformed field, not a usable record. 2^63 is
  // exactly representable, so these bounds are precise.
  if (*value < -9223372036854775808.0 || *value >= 9223372036854775808.0) {
    return false;
  }
  out = static_cast<std::int64_t>(*value);
  return true;
}

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    const std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) fields.push_back(line.substr(start, i - start));
  }
  return fields;
}

void parse_header_line(std::string_view line,
                       std::map<std::string, std::string>& header) {
  // `; Key: value` — anything else is free-form commentary.
  std::size_t i = 1;  // past ';'
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  const auto colon = line.find(':', i);
  if (colon == std::string_view::npos) return;
  std::string key(line.substr(i, colon - i));
  if (key.empty() ||
      !std::all_of(key.begin(), key.end(), [](unsigned char c) {
        return std::isalnum(c) || c == '_' || c == '-' || c == ' ';
      })) {
    return;
  }
  while (!key.empty() && key.back() == ' ') key.pop_back();
  std::size_t v = colon + 1;
  while (v < line.size() && std::isspace(static_cast<unsigned char>(line[v]))) {
    ++v;
  }
  std::string value(line.substr(v));
  while (!value.empty() &&
         std::isspace(static_cast<unsigned char>(value.back()))) {
    value.pop_back();
  }
  if (!header.contains(key)) header.emplace(std::move(key), std::move(value));
}

}  // namespace

SwfRecordStream::SwfRecordStream(std::istream& in, const SwfOptions& options)
    : in_(&in), options_(options) {}

std::int32_t SwfRecordStream::max_procs(std::int32_t fallback) const {
  const auto it = header_.find("MaxProcs");
  if (it == header_.end()) return fallback;
  std::int64_t value = 0;
  if (!parse_int(it->second, value) || value <= 0) return fallback;
  return static_cast<std::int32_t>(value);
}

std::optional<Job> SwfRecordStream::next() {
  while (std::getline(*in_, line_)) {
    ++line_no_;
    // Strip trailing CR from CRLF files.
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    std::string_view view(line_);
    std::size_t first = 0;
    while (first < view.size() &&
           std::isspace(static_cast<unsigned char>(view[first]))) {
      ++first;
    }
    if (first == view.size()) continue;  // blank
    if (view[first] == ';') {
      parse_header_line(view.substr(first), header_);
      continue;
    }

    const auto fields = split_fields(view);
    if (fields.size() < 18) {
      // A malformed record must not abort the whole archive mid-sweep:
      // skip and count it, unless the caller asked for strict validation.
      BSLD_REQUIRE(!options_.strict,
                   "SWF: line " + std::to_string(line_no_) + " has only " +
                       std::to_string(fields.size()) + " fields (expected 18)");
      ++skipped_;
      continue;
    }

    // Field indices per SWF definition (0-based here).
    std::int64_t id = 0, submit = 0, run = 0, alloc = 0, req_procs = 0,
                 req_time = 0, user = 0;
    const bool ok = parse_int(fields[0], id) &&
                    parse_time_like(fields[1], submit) &&
                    parse_time_like(fields[3], run) &&
                    parse_int(fields[4], alloc) &&
                    parse_int(fields[7], req_procs) &&
                    parse_time_like(fields[8], req_time) &&
                    parse_int(fields[11], user);
    if (!ok) {
      BSLD_REQUIRE(!options_.strict,
                   "SWF: line " + std::to_string(line_no_) +
                       " has an unparsable mandatory field");
      ++skipped_;
      continue;
    }

    Job job;
    job.id = id;
    job.submit = std::max<Time>(submit, 0);
    job.run_time = run;
    job.size = static_cast<std::int32_t>(alloc > 0 ? alloc : req_procs);
    job.requested_time = req_time > 0 ? req_time : run;
    job.user_id = static_cast<std::int32_t>(user);

    if (job.id <= 0 || job.size <= 0 || job.run_time < 0) {
      ++skipped_;
      continue;
    }
    return job;
  }
  return std::nullopt;
}

void write_swf(std::ostream& out, const Workload& workload) {
  out << "; Workload: " << workload.name << '\n';
  out << "; MaxProcs: " << workload.cpus << '\n';
  out << "; Generated by bsldsched (synthetic trace, SWF layout)\n";
  for (const Job& job : workload.jobs) {
    // 18 SWF fields; unknowns are -1 per the format definition.
    out << job.id << ' '            // 1 job number
        << job.submit << ' '        // 2 submit time
        << -1 << ' '                // 3 wait time (filled by schedulers)
        << job.run_time << ' '      // 4 run time
        << job.size << ' '          // 5 allocated processors
        << -1 << ' '                // 6 average CPU time used
        << -1 << ' '                // 7 used memory
        << job.size << ' '          // 8 requested processors
        << job.requested_time << ' '// 9 requested time
        << -1 << ' '                // 10 requested memory
        << 1 << ' '                 // 11 status (completed)
        << job.user_id << ' '       // 12 user id
        << -1 << ' '                // 13 group id
        << -1 << ' '                // 14 executable id
        << -1 << ' '                // 15 queue
        << -1 << ' '                // 16 partition
        << -1 << ' '                // 17 preceding job
        << -1 << '\n';              // 18 think time
  }
}

void save_swf_file(const std::string& path, const Workload& workload) {
  std::ofstream out(path);
  BSLD_REQUIRE(out.good(), "SWF: cannot create file `" + path + "`");
  write_swf(out, workload);
}

}  // namespace bsld::wl
