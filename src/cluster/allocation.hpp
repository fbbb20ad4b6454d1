/// \file allocation.hpp
/// \brief Allocation and reservation value types shared by schedulers and
/// resource selectors, and the CPU bit-set layout they share with Machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace bsld::cluster {

/// CPU sets are bit sets of 64-bit words: CPU c is bit c % 64 of word
/// c / 64. Bits past the machine's last CPU are always clear.
inline constexpr std::int32_t kCpusPerWord = 64;

/// Number of words holding a set over `cpu_count` CPUs.
[[nodiscard]] inline std::size_t cpu_word_count(std::int32_t cpu_count) {
  return static_cast<std::size_t>((cpu_count + kCpusPerWord - 1) /
                                  kCpusPerWord);
}

/// The word holding CPU `cpu` (>= 0), and its bit within that word.
[[nodiscard]] inline std::size_t cpu_word(CpuId cpu) {
  return static_cast<std::uint32_t>(cpu) / kCpusPerWord;
}
[[nodiscard]] inline std::uint64_t cpu_bit(CpuId cpu) {
  return std::uint64_t{1} << (static_cast<std::uint32_t>(cpu) % kCpusPerWord);
}

/// A concrete placement decision: which CPUs, starting when, at which gear.
struct Allocation {
  Time start = kNoTime;
  std::vector<CpuId> cpus;
  GearIndex gear = 0;

  [[nodiscard]] bool valid() const { return start != kNoTime && !cpus.empty(); }
};

/// EASY backfilling reserves CPUs for the head of the wait queue: backfilled
/// jobs must not delay `start` on the reserved `cpus`.
struct Reservation {
  JobId job = kNoJob;
  Time start = kNoTime;
  std::vector<CpuId> cpus;
  /// Membership bit set of `cpus`, sized to the machine.
  std::vector<std::uint64_t> words;

  [[nodiscard]] bool active() const { return job != kNoJob; }
  [[nodiscard]] bool contains(CpuId cpu) const {
    return cpu >= 0 && (word(cpu_word(cpu)) & cpu_bit(cpu)) != 0;
  }
  /// Word `w` of the membership set; 0 past its end.
  [[nodiscard]] std::uint64_t word(std::size_t w) const {
    return w < words.size() ? words[w] : 0;
  }

  /// Reserves `reserved` on a machine of `cpu_count` CPUs, rebuilding the
  /// membership set in place.
  void set_cpus(std::vector<CpuId> reserved, std::int32_t cpu_count) {
    cpus = std::move(reserved);
    words.assign(cpu_word_count(cpu_count), 0);
    for (const CpuId cpu : cpus) words[cpu_word(cpu)] |= cpu_bit(cpu);
  }

  /// Back to the inactive state; keeps the buffers' capacity.
  void clear() {
    job = kNoJob;
    start = kNoTime;
    cpus.clear();
    words.clear();
  }
};

}  // namespace bsld::cluster
