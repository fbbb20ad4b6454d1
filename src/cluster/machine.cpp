#include "cluster/machine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bsld::cluster {

Machine::Machine(std::int32_t cpu_count)
    : jobs_(static_cast<std::size_t>(std::max(cpu_count, 0)), kNoJob),
      expected_end_(jobs_.size(), 0),
      free_words_(cpu_word_count(std::max(cpu_count, 0)), ~std::uint64_t{0}),
      free_now_(cpu_count) {
  BSLD_REQUIRE(cpu_count > 0, "Machine: cpu_count must be positive");
  if (const std::int32_t tail = cpu_count % kCpusPerWord; tail != 0) {
    free_words_.back() = (std::uint64_t{1} << tail) - 1;
  }
}

Time Machine::earliest_start(std::int32_t size, Time now) const {
  BSLD_REQUIRE(size > 0 && size <= cpu_count(),
               "Machine: allocation size must be within [1, cpu_count]");
  if (free_now_ >= size) return now;
  // Every free CPU is available at `now`, strictly before any busy CPU
  // (whose availability clamps to >= now + 1), and max(·, now + 1) keeps
  // the order of the ends: the answer is the clamped end at which the
  // busy CPUs walked in end order cover the shortfall.
  std::int32_t shortfall = size - free_now_;
  for (const BusyAtEnd& entry : busy_by_end_) {
    shortfall -= entry.cpus;
    if (shortfall <= 0) return std::max(entry.end, now + 1);
  }
  throw Error("Machine: expected-end index out of step with occupancy");
}

std::int32_t Machine::available_by(Time t, Time now) const {
  if (t < now) return 0;
  std::int32_t count = free_now_;
  if (t == now) return count;
  // t >= now + 1, so the clamp cannot lift a busy CPU past t: it is
  // available by t exactly when its expected end is.
  for (auto it = busy_by_end_.begin();
       it != busy_by_end_.end() && it->end <= t; ++it) {
    count += it->cpus;
  }
  return count;
}

std::uint64_t Machine::busy_ending_by(std::size_t w, Time t) const {
  const std::size_t base = w * kCpusPerWord;
  const std::size_t width =
      std::min<std::size_t>(kCpusPerWord, jobs_.size() - base);
  const std::uint64_t valid =
      width == kCpusPerWord ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << width) - 1;
  const std::uint64_t busy = ~free_words_[w] & valid;
  if (busy == 0) return 0;
  // Free CPUs' stale ends are masked off by `busy`.
  const Time* ends = expected_end_.data() + base;
  std::uint64_t done = 0;
  if (width == kCpusPerWord) {
    // Eight bits at a time: the inner loop unrolls to constant shifts,
    // about twice as fast as one variable shift per CPU.
    for (std::size_t group = 0; group < kCpusPerWord; group += 8) {
      std::uint64_t byte = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        byte |= static_cast<std::uint64_t>(ends[group + b] <= t) << b;
      }
      done |= byte << group;
    }
  } else {
    for (std::size_t b = 0; b < width; ++b) {
      done |= static_cast<std::uint64_t>(ends[b] <= t) << b;
    }
  }
  return busy & done;
}
std::vector<Machine::BusyAtEnd>::iterator Machine::index_at(Time end) {
  return std::lower_bound(
      busy_by_end_.begin(), busy_by_end_.end(), end,
      [](const BusyAtEnd& entry, Time t) { return entry.end < t; });
}

void Machine::index_add(Time end, std::int32_t count) {
  const auto it = index_at(end);
  if (it != busy_by_end_.end() && it->end == end) {
    it->cpus += count;
  } else {
    busy_by_end_.insert(it, BusyAtEnd{end, count});
  }
}

void Machine::unindex(Time end, std::int32_t count) {
  const auto it = index_at(end);
  BSLD_REQUIRE(it != busy_by_end_.end() && it->end == end && it->cpus >= count,
               "Machine: expected-end index out of step with occupancy");
  it->cpus -= count;
  if (it->cpus == 0) busy_by_end_.erase(it);
}

void Machine::assign(JobId job, const std::vector<CpuId>& cpus,
                     Time expected_end) {
  BSLD_REQUIRE(job != kNoJob, "Machine: cannot assign the null job");
  BSLD_REQUIRE(!cpus.empty(), "Machine: empty allocation");
  // One pass: check, occupy, and gather each word's cleared free bits in a
  // register (consecutive CPUs usually share a word). A CPU listed twice
  // finds its bit already gathered. Raw pointers keep the vectors' bounds
  // out of the loop.
  JobId* const jobs = jobs_.data();
  Time* const ends = expected_end_.data();
  std::uint64_t* const words = free_words_.data();
  const std::int32_t cpu_total = cpu_count();
  std::size_t word = 0;
  std::uint64_t taken = 0;
  for (std::size_t k = 0; k < cpus.size(); ++k) {
    const CpuId cpu = cpus[k];
    const bool in_range = cpu >= 0 && cpu < cpu_total;
    const std::size_t w = in_range ? cpu_word(cpu) : word;
    if (w != word) {
      words[word] &= ~taken;
      taken = 0;
      word = w;
    }
    if (!in_range || (words[w] & ~taken & cpu_bit(cpu)) == 0) {
      words[word] &= ~taken;
      for (std::size_t j = 0; j < k; ++j) {
        jobs[cpus[j]] = kNoJob;
        words[cpu_word(cpus[j])] |= cpu_bit(cpus[j]);
      }
      check_cpu(cpu);
      BSLD_REQUIRE(jobs[cpu] == kNoJob,
                   "Machine: CPU already busy (oversubscription)");
      throw Error("Machine: CPU listed twice in one allocation");
    }
    taken |= cpu_bit(cpu);
    jobs[cpu] = job;
    ends[cpu] = expected_end;
  }
  words[word] &= ~taken;
  const auto count = static_cast<std::int32_t>(cpus.size());
  free_now_ -= count;
  index_add(expected_end, count);
}

void Machine::update_expected_end(JobId job, const std::vector<CpuId>& cpus,
                                  Time expected_end) {
  for (CpuId cpu : cpus) {
    check_cpu(cpu);
    BSLD_REQUIRE(jobs_[static_cast<std::size_t>(cpu)] == job,
                 "Machine: CPU is not running the re-timed job");
  }
  // One index update per run of equal old ends. A CPU already at the new
  // end (a repeat included) moves nothing.
  std::int32_t moved = 0;
  std::int32_t run = 0;
  Time run_end = 0;
  for (CpuId cpu : cpus) {
    Time& end = expected_end_[static_cast<std::size_t>(cpu)];
    if (end == expected_end) continue;
    if (run > 0 && end != run_end) {
      unindex(run_end, run);
      run = 0;
    }
    run_end = end;
    ++run;
    ++moved;
    end = expected_end;
  }
  if (run > 0) unindex(run_end, run);
  if (moved > 0) index_add(expected_end, moved);
}

void Machine::release(JobId job, const std::vector<CpuId>& cpus) {
  BSLD_REQUIRE(job != kNoJob, "Machine: cannot release the null job");
  if (cpus.empty()) return;
  // One pass, as in assign. A CPU listed twice no longer runs `job` the
  // second time. The index is touched only after every check passed.
  JobId* const jobs = jobs_.data();
  const Time* const ends = expected_end_.data();
  std::uint64_t* const words = free_words_.data();
  const std::int32_t cpu_total = cpu_count();
  const Time first_end = ends[std::clamp(cpus[0], 0, cpu_total - 1)];
  std::size_t word = 0;
  std::uint64_t freed = 0;
  bool one_end = true;
  for (std::size_t k = 0; k < cpus.size(); ++k) {
    const CpuId cpu = cpus[k];
    const bool in_range = cpu >= 0 && cpu < cpu_total;
    const std::size_t w = in_range ? cpu_word(cpu) : word;
    if (w != word) {
      words[word] |= freed;
      freed = 0;
      word = w;
    }
    if (!in_range || jobs[cpu] != job) {
      words[word] |= freed;
      for (std::size_t j = 0; j < k; ++j) {
        jobs[cpus[j]] = job;
        words[cpu_word(cpus[j])] &= ~cpu_bit(cpus[j]);
      }
      check_cpu(cpu);
      BSLD_REQUIRE(jobs[cpu] == job,
                   "Machine: CPU is not running the released job");
      throw Error("Machine: CPU listed twice in one release");
    }
    freed |= cpu_bit(cpu);
    jobs[cpu] = kNoJob;
    one_end &= ends[cpu] == first_end;
  }
  words[word] |= freed;
  free_now_ += static_cast<std::int32_t>(cpus.size());
  if (one_end) {
    unindex(first_end, static_cast<std::int32_t>(cpus.size()));
    return;
  }
  // A partial re-time split the job across ends: one update per run.
  std::size_t run = 0;
  for (std::size_t k = 1; k <= cpus.size(); ++k) {
    const Time end = ends[cpus[run]];
    if (k == cpus.size() || ends[cpus[k]] != end) {
      unindex(end, static_cast<std::int32_t>(k - run));
      run = k;
    }
  }
}

}  // namespace bsld::cluster
