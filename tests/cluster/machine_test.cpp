#include "cluster/machine.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bsld::cluster {
namespace {

TEST(MachineTest, StartsAllFree) {
  const Machine machine(4);
  EXPECT_EQ(machine.cpu_count(), 4);
  EXPECT_EQ(machine.free_now(), 4);
  EXPECT_EQ(machine.busy_now(), 0);
  for (CpuId cpu = 0; cpu < 4; ++cpu) {
    EXPECT_TRUE(machine.is_free(cpu));
    EXPECT_EQ(machine.running_job(cpu), kNoJob);
    EXPECT_EQ(machine.avail_time(cpu, 100), 100);
  }
}

TEST(MachineTest, AssignAndRelease) {
  Machine machine(4);
  machine.assign(7, {0, 2}, 500);
  EXPECT_EQ(machine.free_now(), 2);
  EXPECT_EQ(machine.running_job(0), 7);
  EXPECT_EQ(machine.running_job(2), 7);
  EXPECT_TRUE(machine.is_free(1));
  EXPECT_EQ(machine.avail_time(0, 100), 500);
  machine.release(7, {0, 2});
  EXPECT_EQ(machine.free_now(), 4);
  EXPECT_TRUE(machine.is_free(0));
}

TEST(MachineTest, OversubscriptionRejected) {
  Machine machine(4);
  machine.assign(1, {0}, 100);
  EXPECT_THROW(machine.assign(2, {0}, 200), Error);
  // Failed assignment must not corrupt counters.
  EXPECT_EQ(machine.free_now(), 3);
  // Nor a partly checked one: CPUs 1 and 2 stay free.
  EXPECT_THROW(machine.assign(2, {1, 2, 0}, 200), Error);
  EXPECT_EQ(machine.free_word(0), 0b1110U);
  EXPECT_TRUE(machine.is_free(1));
  EXPECT_EQ(machine.earliest_start(3, 0), 0);
}

TEST(MachineTest, DuplicateCpuRejected) {
  Machine machine(4);
  EXPECT_THROW(machine.assign(1, {0, 0}, 100), Error);
  // A rejected call leaves the machine untouched.
  EXPECT_EQ(machine.free_now(), 4);
  EXPECT_TRUE(machine.is_free(0));
  machine.assign(1, {0, 1}, 100);
  machine.update_expected_end(1, {1, 1}, 300);  // a repeat re-times once
  EXPECT_EQ(machine.available_by(100, 0), 3);
  EXPECT_THROW(machine.release(1, {1, 1}), Error);
  EXPECT_EQ(machine.free_now(), 2);
  EXPECT_EQ(machine.running_job(1), 1);
  EXPECT_EQ(machine.earliest_start(4, 0), 300);
  machine.release(1, {0, 1});
  EXPECT_EQ(machine.free_now(), 4);
  EXPECT_EQ(machine.earliest_start(4, 0), 0);
}

TEST(MachineTest, ReleaseWrongJobRejected) {
  Machine machine(2);
  machine.assign(1, {0}, 100);
  EXPECT_THROW(machine.release(2, {0}), Error);
  EXPECT_THROW(machine.release(1, {1}), Error);  // cpu 1 is free
  EXPECT_THROW(machine.release(kNoJob, {1}), Error);
  EXPECT_EQ(machine.free_now(), 1);
}

TEST(MachineTest, AvailTimeClampsOverrunningJobs) {
  Machine machine(2);
  machine.assign(1, {0}, 50);  // expected end in the past from now=100
  // The job is still running, so the CPU must not look free "now".
  EXPECT_EQ(machine.avail_time(0, 100), 101);
}

TEST(MachineTest, EarliestStartImmediateWhenFree) {
  Machine machine(4);
  machine.assign(1, {0}, 1000);
  EXPECT_EQ(machine.earliest_start(3, 10), 10);
}

TEST(MachineTest, EarliestStartIsKthSmallestAvail) {
  Machine machine(4);
  machine.assign(1, {0}, 300);
  machine.assign(2, {1}, 500);
  machine.assign(3, {2}, 700);
  // 1 CPU free now; need 3 => wait until the 2nd busy CPU frees at 500.
  EXPECT_EQ(machine.earliest_start(3, 10), 500);
  EXPECT_EQ(machine.earliest_start(1, 10), 10);
  EXPECT_EQ(machine.earliest_start(4, 10), 700);
}

TEST(MachineTest, AvailableByCounts) {
  Machine machine(4);
  machine.assign(1, {0}, 300);
  machine.assign(2, {1}, 500);
  EXPECT_EQ(machine.available_by(10, 10), 2);
  EXPECT_EQ(machine.available_by(300, 10), 3);
  EXPECT_EQ(machine.available_by(499, 10), 3);
  EXPECT_EQ(machine.available_by(500, 10), 4);
}

TEST(MachineTest, InvalidArgumentsRejected) {
  Machine machine(4);
  EXPECT_THROW(Machine(0), Error);
  EXPECT_THROW((void)machine.earliest_start(0, 0), Error);
  EXPECT_THROW((void)machine.earliest_start(5, 0), Error);
  EXPECT_THROW((void)machine.avail_time(4, 0), Error);
  EXPECT_THROW(machine.assign(kNoJob, {0}, 10), Error);
  EXPECT_THROW(machine.assign(1, {}, 10), Error);
  EXPECT_THROW(machine.assign(1, {9}, 10), Error);
}

}  // namespace
}  // namespace bsld::cluster
