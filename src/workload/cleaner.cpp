#include "workload/cleaner.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "util/error.hpp"

namespace bsld::wl {

std::optional<Job> JobCleaner::accept(Job job) {
  if (job.size <= 0 || job.run_time < 0 || job.submit < 0) {
    ++report_.dropped_invalid;
    return std::nullopt;
  }
  if (options_.drop_zero_runtime && job.run_time == 0) {
    ++report_.dropped_invalid;
    return std::nullopt;
  }
  if (options_.machine_cpus > 0 && job.size > options_.machine_cpus) {
    job.size = options_.machine_cpus;
    ++report_.clamped_size;
  }
  if (job.requested_time <= 0) job.requested_time = std::max<Time>(job.run_time, 1);
  if (options_.clamp_runtime_to_requested &&
      job.run_time > job.requested_time) {
    job.requested_time = job.run_time;
    ++report_.clamped_runtime;
  }

  if (options_.flurry_max_jobs > 0) {
    auto& window = user_windows_[job.user_id];
    while (!window.empty() &&
           job.submit - window.front() > options_.flurry_window) {
      window.pop_front();
    }
    if (static_cast<std::int64_t>(window.size()) >=
        options_.flurry_max_jobs) {
      ++report_.dropped_flurry;
      return std::nullopt;
    }
    window.push_back(job.submit);
  }

  ++report_.kept;
  return job;
}

CleaningJobStream::CleaningJobStream(std::unique_ptr<JobStream> inner,
                                     CleanOptions options)
    : inner_(std::move(inner)), cleaner_(std::move(options)) {
  BSLD_REQUIRE(inner_ != nullptr, "CleaningJobStream: null inner stream");
}

std::optional<Job> CleaningJobStream::next() {
  while (std::optional<Job> job = inner_->next()) {
    if (std::optional<Job> cleaned = cleaner_.accept(std::move(*job))) {
      return cleaned;
    }
  }
  return std::nullopt;
}

}  // namespace bsld::wl
