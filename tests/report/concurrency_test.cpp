/// \file concurrency_test.cpp
/// \brief Regression tests for the locking contracts that the thread-safety
/// annotations (src/util/thread_annotations.hpp) document statically.
///
/// Each test hammers one shared structure from several threads at once.
/// They pass trivially in a plain build; their value is under
/// ThreadSanitizer (cmake -DBSLD_TSAN=ON, CI job `tsan`), where any
/// unlocked read of a BSLD_GUARDED_BY member becomes a hard failure here
/// instead of a latent daemon bug.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/policy_registry.hpp"
#include "report/result_cache.hpp"
#include "report/sweep.hpp"
#include "sim/instrument_registry.hpp"

namespace bsld::report {
namespace {

namespace fs = std::filesystem;

RunSpec small_spec(double bsld_threshold) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kCTC, 150);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = bsld_threshold;
  dvfs.wq_threshold = 4;
  spec.policy.dvfs = dvfs;
  return spec;
}

std::vector<RunSpec> small_grid() {
  std::vector<RunSpec> specs;
  for (const double threshold : {1.5, 2.0, 2.5, 3.0}) {
    specs.push_back(small_spec(threshold));
  }
  return specs;
}

class ScopedTempDir {
 public:
  ScopedTempDir() {
    dir_ = fs::temp_directory_path() /
           ("bsld-conc-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScopedTempDir() { fs::remove_all(dir_); }

  const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

// progress() may be polled from any thread while run() executes on
// another; both touch progress_ under progress_mutex_. A torn or stale
// read here was only visible as a garbled progress line in the CLI.
TEST(ConcurrencyTest, ProgressPollingDuringRunIsRaceFree) {
  SweepRunner::Options options;
  options.threads = 3;
  SweepRunner runner(options);

  std::atomic<bool> done{false};
  std::atomic<bool> monotonic{true};
  std::thread poller([&] {
    std::size_t last = 0;
    while (!done.load()) {
      const SweepRunner::Progress progress = runner.progress();
      if (progress.completed < last) monotonic = false;
      last = progress.completed;
    }
  });

  const std::vector<RunSpec> specs = small_grid();
  const auto results = runner.run(specs);
  done = true;
  poller.join();

  EXPECT_TRUE(monotonic.load());
  EXPECT_EQ(results.size(), specs.size());
  EXPECT_EQ(runner.progress().completed, specs.size());
}

// Several threads submit() into one persistent pool. Batches share
// pool_mutex_, the in-flight dedup map, and (spec-identical slots across
// batches) the same PendingRun. Exactly the daemon's concurrency shape.
TEST(ConcurrencyTest, ConcurrentSubmittersShareOnePool) {
  SweepRunner::Options options;
  options.threads = 3;
  SweepRunner runner(options);

  constexpr int kSubmitters = 4;
  std::atomic<std::size_t> delivered{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      // Identical grids across submitters: every slot beyond the first
      // batch coalesces onto an in-flight or completed simulation.
      const std::vector<RunSpec> specs = small_grid();
      auto handle = runner.submit(
          specs, [&](std::size_t, const RunResult&) { delivered += 1; });
      const auto results = handle.wait();
      EXPECT_EQ(results.size(), specs.size());
      for (const RunResult& result : results) {
        EXPECT_GT(result.sim().avg_bsld, 0.0);
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  EXPECT_EQ(delivered.load(), kSubmitters * small_grid().size());
}

// lookup()/store()/counters() from concurrent threads over one cache:
// counters_ is guarded by mutex_; the disk entries serialize on FileLock.
TEST(ConcurrencyTest, CacheCountersUnderConcurrentLookups) {
  const ScopedTempDir dir;
  ResultCache cache(dir.path());

  const RunSpec spec = small_spec(2.0);
  RunResult seed;
  seed.spec = spec;
  const auto direct = run_all({spec}, 1);
  ASSERT_EQ(direct.size(), 1u);
  cache.store(direct[0]);

  constexpr int kThreads = 4;
  constexpr int kLookups = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kLookups; ++i) {
        const auto hit = cache.lookup(spec);
        EXPECT_TRUE(hit.has_value());
        (void)cache.counters();  // interleaved reads of the counter block.
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ResultCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.hits, static_cast<std::size_t>(kThreads * kLookups));
  EXPECT_EQ(counters.stores, 1u);
}

// Several threads key one spec that nobody has keyed yet: the first
// key() fills the memo while the others read it (the shape of concurrent
// cache lookups on one spec). Every caller gets the same text from the
// same storage.
TEST(ConcurrencyTest, FirstKeyOfASharedSpecIsRaceFree) {
  const RunSpec spec = small_spec(2.0);
  const std::string expected = spec.to_config().to_string();
  constexpr int kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<const std::string*> keys(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      keys[static_cast<std::size_t>(t)] = &spec.key();
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  for (const std::string* key : keys) {
    ASSERT_NE(key, nullptr);
    EXPECT_EQ(key, keys[0]);
    EXPECT_EQ(*key, expected);
  }
}

// The registry singletons are read from every worker thread (policy
// construction per simulation) while remaining open for registration;
// both sides go through the annotated SharedMutex.
TEST(ConcurrencyTest, RegistryLookupsAreRaceFree) {
  constexpr int kThreads = 4;
  constexpr int kQueries = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kQueries; ++i) {
        const auto& policies = core::PolicyRegistry::global().policies();
        EXPECT_TRUE(policies.has("easy"));
        EXPECT_FALSE(policies.names().empty());
        EXPECT_FALSE(sim::InstrumentRegistry::global().names().empty());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace
}  // namespace bsld::report
