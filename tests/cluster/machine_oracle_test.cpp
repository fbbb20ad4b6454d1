// Differential test: Machine's expected-end index and word sets against the
// brute-force per-CPU oracles, over random assign / release / re-time
// sequences with `now` running past expected ends (the overrun clamp).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "cluster/first_fit.hpp"
#include "cluster/machine.hpp"
#include "testing/oracles.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bsld::cluster {
namespace {

using testing::CpuOrder;

struct RunningJob {
  JobId id;
  std::vector<CpuId> cpus;
};

class MachineOracleTest : public ::testing::TestWithParam<std::int32_t> {
 protected:
  std::int32_t draw_size(std::int32_t max) {
    return static_cast<std::int32_t>(rng_.uniform_int(1, max));
  }
  Time draw_end(Time now) { return now + rng_.uniform_int(0, 60); }

  /// select_at against the oracle in both CPU orders; a selector throw
  /// must match an oracle miss.
  void check_select_at(const Machine& machine, std::int32_t size, Time start,
                       Time now) {
    const auto lowest =
        testing::oracle_select_at(machine, size, start, now,
                                  CpuOrder::kAscending);
    const auto highest =
        testing::oracle_select_at(machine, size, start, now,
                                  CpuOrder::kDescending);
    if (lowest) {
      EXPECT_EQ(first_fit_.select_at(machine, size, start, now), *lowest);
      EXPECT_EQ(last_fit_.select_at(machine, size, start, now), *highest);
    } else {
      EXPECT_THROW((void)first_fit_.select_at(machine, size, start, now),
                   Error);
      EXPECT_THROW((void)last_fit_.select_at(machine, size, start, now),
                   Error);
    }
  }

  void check_backfill(const Machine& machine, std::int32_t size, Time now,
                      Time end, const Reservation* reservation) {
    EXPECT_EQ(first_fit_.select_backfill(machine, size, now, end, reservation),
              testing::oracle_select_backfill(machine, size, end, reservation,
                                              CpuOrder::kAscending));
    EXPECT_EQ(last_fit_.select_backfill(machine, size, now, end, reservation),
              testing::oracle_select_backfill(machine, size, end, reservation,
                                              CpuOrder::kDescending));
  }

  void check_all(const Machine& machine, Time now) {
    const std::int32_t cpus = machine.cpu_count();
    for (const std::int32_t size : {cpus, draw_size(cpus), draw_size(cpus)}) {
      const Time start = machine.earliest_start(size, now);
      ASSERT_EQ(start, testing::oracle_earliest_start(machine, size, now));
      for (const Time t : {now - 1, now, now + 1, start, start - 1,
                           draw_end(now)}) {
        ASSERT_EQ(machine.available_by(t, now),
                  testing::oracle_available_by(machine, t, now));
      }
      check_select_at(machine, size, start, now);
      check_select_at(machine, draw_size(cpus), draw_end(now), now);

      // EASY's head reservation at `start`, then one backfill candidate
      // with no reservation, one ending by the reserved start and one
      // running past it.
      Reservation reservation;
      reservation.job = 1;
      reservation.start = start;
      reservation.set_cpus(first_fit_.select_at(machine, size, start, now),
                           cpus);
      const std::int32_t candidate = draw_size(cpus);
      check_backfill(machine, candidate, now, draw_end(now), nullptr);
      check_backfill(machine, candidate, now,
                     now + rng_.uniform_int(0, std::max<Time>(0, start - now)),
                     &reservation);
      check_backfill(machine, candidate, now, start + 1 + rng_.uniform_int(0, 9),
                     &reservation);
    }
  }

  util::Rng rng_{20240613};
  FirstFit first_fit_;
  LastFit last_fit_;
};

TEST_P(MachineOracleTest, RandomOperationsMatchOracles) {
  const std::int32_t cpus = GetParam();
  Machine machine(cpus);
  std::vector<RunningJob> running;
  JobId next_id = 1;
  Time now = 0;
  for (int step = 0; step < 150; ++step) {
    const std::int64_t op = rng_.uniform_int(0, 9);
    if (op < 4 && machine.free_now() > 0) {
      // Assign a random set of free CPUs, in random order.
      std::vector<CpuId> free;
      for (CpuId cpu = 0; cpu < cpus; ++cpu) {
        if (machine.is_free(cpu)) free.push_back(cpu);
      }
      std::shuffle(free.begin(), free.end(), rng_);
      free.resize(static_cast<std::size_t>(
          draw_size(std::min(machine.free_now(), std::max(1, cpus / 6)))));
      machine.assign(next_id, free, draw_end(now));
      running.push_back({next_id++, free});
    } else if (op < 7 && !running.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
      std::shuffle(running[pick].cpus.begin(), running[pick].cpus.end(), rng_);
      machine.release(running[pick].id, running[pick].cpus);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (op < 9 && !running.empty()) {
      // Re-time all of a job's CPUs or only a prefix, which splits the job
      // across two expected ends.
      const RunningJob& job = running[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1))];
      const std::vector<CpuId> part(
          job.cpus.begin(),
          job.cpus.begin() + draw_size(static_cast<std::int32_t>(job.cpus.size())));
      machine.update_expected_end(job.id, part, draw_end(now));
    } else {
      now += rng_.uniform_int(1, 25);
    }
    ASSERT_NO_FATAL_FAILURE(check_all(machine, now)) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MachineOracleTest,
                         ::testing::Values(1, 63, 64, 65, 128, 430, 9216));

}  // namespace
}  // namespace bsld::cluster
