#include "cluster/first_fit.hpp"

#include <bit>

#include "util/error.hpp"

namespace bsld::cluster {

namespace {

enum class Order { kLowestFirst, kHighestFirst };

/// Appends the set CPUs of `word_at(0..words)` to `out`, in `order`, until
/// it holds `size`; true when it got there.
template <Order order, typename WordAt>
bool take(std::size_t words, std::int32_t size, WordAt word_at,
          std::vector<CpuId>& out) {
  out.reserve(static_cast<std::size_t>(size));
  for (std::size_t i = 0; i < words; ++i) {
    const std::size_t w = order == Order::kLowestFirst ? i : words - 1 - i;
    const auto base = static_cast<CpuId>(w * kCpusPerWord);
    for (std::uint64_t bits = word_at(w); bits != 0;) {
      int bit = 0;
      if constexpr (order == Order::kLowestFirst) {
        bit = std::countr_zero(bits);
      } else {
        bit = kCpusPerWord - 1 - std::countl_zero(bits);
      }
      out.push_back(base + bit);
      if (static_cast<std::int32_t>(out.size()) == size) return true;
      bits &= ~(std::uint64_t{1} << bit);
    }
  }
  return false;
}

template <Order order>
std::vector<CpuId> select_at_in(const Machine& machine, std::int32_t size,
                                Time start, Time now) {
  std::vector<CpuId> out;
  const auto word_at = [&](std::size_t w) {
    return machine.available_word(w, start, now);
  };
  if (!take<order>(machine.word_count(), size, word_at, out)) {
    throw Error("ResourceSelector: not enough CPUs available at start time");
  }
  return out;
}

/// Free CPUs, minus the reserved ones when the job would still run at the
/// reserved start.
template <Order order>
std::optional<std::vector<CpuId>> select_backfill_in(
    const Machine& machine, std::int32_t size, Time expected_end,
    const Reservation* reservation) {
  const bool respects_shadow =
      reservation == nullptr || !reservation->active() ||
      expected_end <= reservation->start;
  std::vector<CpuId> out;
  const auto word_at = [&](std::size_t w) {
    const std::uint64_t free = machine.free_word(w);
    return respects_shadow ? free : free & ~reservation->word(w);
  };
  if (!take<order>(machine.word_count(), size, word_at, out)) {
    return std::nullopt;
  }
  return out;
}

}  // namespace

std::vector<CpuId> FirstFit::select_at(const Machine& machine,
                                       std::int32_t size, Time start,
                                       Time now) const {
  return select_at_in<Order::kLowestFirst>(machine, size, start, now);
}

std::optional<std::vector<CpuId>> FirstFit::select_backfill(
    const Machine& machine, std::int32_t size, Time now, Time expected_end,
    const Reservation* reservation) const {
  (void)now;
  return select_backfill_in<Order::kLowestFirst>(machine, size, expected_end,
                                                 reservation);
}

std::vector<CpuId> LastFit::select_at(const Machine& machine,
                                      std::int32_t size, Time start,
                                      Time now) const {
  return select_at_in<Order::kHighestFirst>(machine, size, start, now);
}

std::optional<std::vector<CpuId>> LastFit::select_backfill(
    const Machine& machine, std::int32_t size, Time now, Time expected_end,
    const Reservation* reservation) const {
  (void)now;
  return select_backfill_in<Order::kHighestFirst>(machine, size,
                                                  expected_end, reservation);
}

std::unique_ptr<ResourceSelector> make_selector(const std::string& name) {
  if (name == "FirstFit") return std::make_unique<FirstFit>();
  if (name == "LastFit") return std::make_unique<LastFit>();
  throw Error("make_selector(): unknown selector `" + name + "`");
}

}  // namespace bsld::cluster
