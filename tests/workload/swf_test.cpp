#include "workload/swf.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "workload/source.hpp"

namespace bsld::wl {
namespace {

// One valid SWF line: id submit wait run alloc cpu mem reqprocs reqtime
// reqmem status user group exe queue part preceding think.
constexpr const char* kLine =
    "1 100 5 3600 16 -1 -1 16 7200 -1 1 42 -1 -1 -1 -1 -1 -1\n";

/// What an SwfRecordStream yields over `text`, with its header state once
/// drained.
struct Parsed {
  std::vector<Job> jobs;
  std::map<std::string, std::string> header;
  std::size_t skipped_lines = 0;
  std::int32_t max_procs = 0;  ///< MaxProcs directive, or 0.
};

Parsed parse(const std::string& text, const SwfOptions& options = {}) {
  std::istringstream in(text);
  SwfRecordStream records(in, options);
  Parsed out;
  while (std::optional<Job> job = records.next()) out.jobs.push_back(*job);
  out.header = records.header();
  out.skipped_lines = records.skipped_lines();
  out.max_procs = records.max_procs(0);
  return out;
}

/// `workload` saved as an SWF file at a unique temp path; removed on
/// destruction.
class TempSwf {
 public:
  TempSwf(const std::string& name, const Workload& workload)
      : path_(::testing::TempDir() + "/bsld_swf_test_" + name + ".swf") {
    save_swf_file(path_, workload);
  }
  ~TempSwf() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(SwfTest, ParsesMandatoryFields) {
  const Parsed trace = parse(kLine);
  ASSERT_EQ(trace.jobs.size(), 1u);
  const Job& job = trace.jobs[0];
  EXPECT_EQ(job.id, 1);
  EXPECT_EQ(job.submit, 100);
  EXPECT_EQ(job.run_time, 3600);
  EXPECT_EQ(job.size, 16);
  EXPECT_EQ(job.requested_time, 7200);
  EXPECT_EQ(job.user_id, 42);
}

TEST(SwfTest, HeaderDirectives) {
  const Parsed trace = parse(
      "; MaxProcs: 430\n"
      "; UnixStartTime: 123456\n"
      ";   free-form comment without colon structure --\n" +
      std::string(kLine));
  EXPECT_EQ(trace.max_procs, 430);
  EXPECT_EQ(trace.header.at("UnixStartTime"), "123456");
}

TEST(SwfTest, MaxProcsFallback) {
  std::istringstream in(kLine);
  SwfRecordStream records(in);
  while (records.next()) {
  }
  EXPECT_EQ(records.max_procs(99), 99);
}

TEST(SwfTest, AllocatedFallsBackToRequestedProcs) {
  const Parsed trace = parse(
      "1 0 -1 100 -1 -1 -1 8 200 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].size, 8);
}

TEST(SwfTest, RequestedTimeFallsBackToRuntime) {
  const Parsed trace = parse(
      "1 0 -1 100 4 -1 -1 4 -1 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].requested_time, 100);
}

TEST(SwfTest, SkipsUnusableLines) {
  // Bad size (0 procs) and bad id (0) are skipped, not fatal.
  const Parsed trace = parse(
      "0 0 -1 100 4 -1 -1 4 200 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "2 0 -1 100 0 -1 -1 0 200 -1 1 0 -1 -1 -1 -1 -1 -1\n" +
      std::string(kLine));
  EXPECT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 2u);
}

TEST(SwfTest, StructurallyBrokenLineSkippedAndCounted) {
  // One mangled record in a multi-million-job archive must not abort an
  // hours-long sweep: the default mode skips it with a count.
  const Parsed trace = parse("1 2 3\n" + std::string(kLine));
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 1u);
}

TEST(SwfTest, TimeFieldBeyondInt64RangeSkippedNotUndefined) {
  // A fractional-form time like 1e19 parses as a finite double but does
  // not fit int64; truncating it would be UB. It must read as a malformed
  // field (skipped/counted), not an arbitrary value.
  const Parsed trace = parse(
      "1 1e19 -1 100 4 -1 -1 4 200 -1 1 0 -1 -1 -1 -1 -1 -1\n" +
      std::string(kLine));
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 1u);
}

TEST(SwfTest, UnparsableMandatoryFieldSkippedAndCounted) {
  const Parsed trace = parse(
      "1 banana -1 100 4 -1 -1 4 200 -1 1 0 -1 -1 -1 -1 -1 -1\n" +
      std::string(kLine));
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 1u);
}

TEST(SwfTest, StrictModeNamesTheLine) {
  const SwfOptions strict{.strict = true};
  try {
    (void)parse(std::string(kLine) + "1 2 3\n", strict);
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
  try {
    (void)parse(
        "1 banana -1 100 4 -1 -1 4 200 -1 1 0 -1 -1 -1 -1 -1 -1\n", strict);
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos);
  }
}

TEST(SwfTest, StrictModeStillSkipsUnusableValues) {
  // id/size <= 0 is the archives' own cancelled-job convention, not a
  // malformed file: strict mode keeps skipping those.
  const Parsed trace = parse(
      "0 0 -1 100 4 -1 -1 4 200 -1 1 0 -1 -1 -1 -1 -1 -1\n" +
          std::string(kLine),
      SwfOptions{.strict = true});
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 1u);
}

TEST(SwfTest, RecordsKeepFileOrder) {
  // The cursor does not sort: restoring (submit, id) order is the job of
  // the SWF source stream (SortsBySubmitThenId).
  const Parsed trace = parse(
      "5 300 -1 10 1 -1 -1 1 10 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "3 100 -1 10 1 -1 -1 1 10 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(trace.jobs.size(), 2u);
  EXPECT_EQ(trace.jobs[0].id, 5);
  EXPECT_EQ(trace.jobs[1].id, 3);
}

TEST(SwfTest, SortsBySubmitThenId) {
  Workload unsorted;
  unsorted.name = "unsorted";
  unsorted.cpus = 4;
  unsorted.jobs = {
      {5, 300, 10, 10, 1, 0},
      {4, 100, 10, 10, 1, 0},
      {3, 100, 10, 10, 1, 0},
  };
  const TempSwf file("sorted", unsorted);
  const Workload sorted =
      materialize(*open_stream(WorkloadSource::from_swf(file.path())));
  ASSERT_EQ(sorted.jobs.size(), 3u);
  EXPECT_EQ(sorted.jobs[0].id, 3);
  EXPECT_EQ(sorted.jobs[1].id, 4);
  EXPECT_EQ(sorted.jobs[2].id, 5);
}

TEST(SwfTest, TruncatedSourceRebasesSubmitTimes) {
  // `jobs` keeps the first kept records and re-bases them to t = 0 (the
  // paper's "5000 job part of each workload").
  Workload trace;
  trace.name = "rebase";
  trace.cpus = 4;
  trace.jobs = {
      {1, 100, 10, 20, 1, 0},
      {2, 250, 10, 20, 1, 0},
      {3, 400, 10, 20, 1, 0},
  };
  const TempSwf file("rebase", trace);
  const Workload part = materialize(
      *open_stream(WorkloadSource::from_swf(file.path(), /*jobs=*/2)));
  ASSERT_EQ(part.jobs.size(), 2u);
  EXPECT_EQ(part.jobs[0].submit, 0);
  EXPECT_EQ(part.jobs[1].submit, 150);
  EXPECT_EQ(part.jobs[1].id, 2);  // ids preserved
}

TEST(SwfTest, ToleratesCrLfAndFractionalSeconds) {
  const Parsed trace = parse(
      "1 100.7 -1 3600.2 4 -1 -1 4 7200 -1 1 0 -1 -1 -1 -1 -1 -1\r\n");
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].submit, 100);
  EXPECT_EQ(trace.jobs[0].run_time, 3600);
}

TEST(SwfTest, WriteReadRoundTrip) {
  Workload workload;
  workload.name = "roundtrip";
  workload.cpus = 64;
  workload.jobs = {
      {1, 0, 100, 200, 4, 7},
      {2, 50, 3600, 4000, 64, 8},
  };
  std::ostringstream out;
  write_swf(out, workload);
  const Parsed trace = parse(out.str());
  EXPECT_EQ(trace.max_procs, 64);
  ASSERT_EQ(trace.jobs.size(), 2u);
  EXPECT_EQ(trace.jobs[0], workload.jobs[0]);
  EXPECT_EQ(trace.jobs[1], workload.jobs[1]);
}

TEST(SwfTest, MissingFileThrows) {
  EXPECT_THROW(
      (void)open_stream(WorkloadSource::from_swf("/no/such/file.swf")), Error);
}

TEST(SwfTest, FileRoundTrip) {
  Workload workload;
  workload.name = "file-roundtrip";
  workload.cpus = 8;
  workload.jobs = {{1, 0, 10, 20, 2, 0}};
  const TempSwf file("roundtrip", workload);
  const Workload loaded =
      materialize(*open_stream(WorkloadSource::from_swf(file.path())));
  EXPECT_EQ(loaded.cpus, 8);
  ASSERT_EQ(loaded.jobs.size(), 1u);
  EXPECT_EQ(loaded.jobs[0], workload.jobs[0]);
}

}  // namespace
}  // namespace bsld::wl
