#include "cluster/first_fit.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bsld::cluster {
namespace {

Reservation make_reservation(JobId job, Time start, std::vector<CpuId> cpus,
                             std::int32_t machine_cpus) {
  Reservation reservation;
  reservation.job = job;
  reservation.start = start;
  reservation.set_cpus(std::move(cpus), machine_cpus);
  return reservation;
}

TEST(FirstFitTest, SelectsLowestIndices) {
  Machine machine(6);
  machine.assign(1, {1, 2}, 1000);
  const FirstFit selector;
  const auto cpus = selector.select_at(machine, 3, 0, 0);
  EXPECT_EQ(cpus, (std::vector<CpuId>{0, 3, 4}));
}

TEST(FirstFitTest, SelectAtFutureIncludesFreeingCpus) {
  Machine machine(4);
  machine.assign(1, {0}, 100);
  machine.assign(2, {1}, 500);
  const FirstFit selector;
  // At t=100 cpu 0 frees; {0, 2, 3} are the lowest available by then.
  const auto cpus = selector.select_at(machine, 3, 100, 0);
  EXPECT_EQ(cpus, (std::vector<CpuId>{0, 2, 3}));
}

TEST(FirstFitTest, SelectAtThrowsWhenInsufficient) {
  Machine machine(2);
  machine.assign(1, {0}, 1000);
  const FirstFit selector;
  EXPECT_THROW((void)selector.select_at(machine, 2, 10, 0), Error);
}

TEST(FirstFitTest, BackfillWithoutReservationUsesAnyFree) {
  Machine machine(4);
  machine.assign(1, {0}, 1000);
  const FirstFit selector;
  const auto cpus = selector.select_backfill(machine, 2, 0, 99999, nullptr);
  ASSERT_TRUE(cpus.has_value());
  EXPECT_EQ(*cpus, (std::vector<CpuId>{1, 2}));
}

TEST(FirstFitTest, BackfillFinishingBeforeShadowMayUseReservedCpus) {
  Machine machine(4);
  const Reservation reservation = make_reservation(9, 500, {0, 1}, 4);
  const FirstFit selector;
  // Ends at 400 <= 500: reserved CPUs are fair game; lowest indices win.
  const auto cpus = selector.select_backfill(machine, 2, 0, 400, &reservation);
  ASSERT_TRUE(cpus.has_value());
  EXPECT_EQ(*cpus, (std::vector<CpuId>{0, 1}));
}

TEST(FirstFitTest, BackfillCrossingShadowAvoidsReservedCpus) {
  Machine machine(4);
  const Reservation reservation = make_reservation(9, 500, {0, 1}, 4);
  const FirstFit selector;
  // Ends at 600 > 500: only CPUs outside the reservation qualify.
  const auto cpus = selector.select_backfill(machine, 2, 0, 600, &reservation);
  ASSERT_TRUE(cpus.has_value());
  EXPECT_EQ(*cpus, (std::vector<CpuId>{2, 3}));
}

TEST(FirstFitTest, BackfillCrossingShadowFailsWhenOnlyReservedLeft) {
  Machine machine(4);
  machine.assign(1, {2, 3}, 2000);
  const Reservation reservation = make_reservation(9, 500, {0, 1}, 4);
  const FirstFit selector;
  EXPECT_FALSE(
      selector.select_backfill(machine, 2, 0, 600, &reservation).has_value());
  // ...but fits if it ends before the shadow.
  EXPECT_TRUE(
      selector.select_backfill(machine, 2, 0, 500, &reservation).has_value());
}

TEST(FirstFitTest, BackfillSkipsBusyCpus) {
  Machine machine(4);
  machine.assign(1, {0}, 1000);
  const FirstFit selector;
  const auto cpus = selector.select_backfill(machine, 3, 0, 100, nullptr);
  ASSERT_TRUE(cpus.has_value());
  EXPECT_EQ(*cpus, (std::vector<CpuId>{1, 2, 3}));
  EXPECT_FALSE(selector.select_backfill(machine, 4, 0, 100, nullptr).has_value());
}

TEST(LastFitTest, SelectsHighestIndices) {
  Machine machine(6);
  const LastFit selector;
  EXPECT_EQ(selector.select_at(machine, 2, 0, 0), (std::vector<CpuId>{5, 4}));
  const auto backfill = selector.select_backfill(machine, 2, 0, 10, nullptr);
  ASSERT_TRUE(backfill.has_value());
  EXPECT_EQ(*backfill, (std::vector<CpuId>{5, 4}));
}

TEST(SelectorFactoryTest, KnownAndUnknownNames) {
  EXPECT_EQ(make_selector("FirstFit")->name(), "FirstFit");
  EXPECT_EQ(make_selector("LastFit")->name(), "LastFit");
  EXPECT_THROW((void)make_selector("BestFit"), Error);
}

TEST(ReservationTest, ContainsUsesMask) {
  const Reservation reservation = make_reservation(1, 10, {2}, 4);
  EXPECT_TRUE(reservation.contains(2));
  EXPECT_FALSE(reservation.contains(0));
  EXPECT_FALSE(reservation.contains(99));  // out of the set: false, not UB
  EXPECT_FALSE(reservation.contains(-1));
  EXPECT_TRUE(reservation.active());
  EXPECT_FALSE(Reservation{}.active());
}

}  // namespace
}  // namespace bsld::cluster
