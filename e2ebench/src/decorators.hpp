/// \file decorators.hpp
/// \brief Delegating decorators that time each layer boundary of a
/// simulation, and the traced rebuild of a report::RunSpec built from them.
///
/// Each decorator forwards every virtual of the interface it wraps to the
/// wrapped object unchanged, so a decorated run is bit-identical to an
/// undecorated one; around the calls that cross into its layer it opens a
/// span on the shared SpanRecorder and bumps its counters. Cheap getters
/// (now(), job(), machine(), ...) forward without a span: timing them would
/// cost more than they do.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "pm/power_manager.hpp"
#include "report/experiment.hpp"
#include "sim/instruments.hpp"
#include "trace.hpp"
#include "workload/stream.hpp"

namespace e2e {

/// Counts gathered at the decorated boundaries (spans give the times).
struct LayerCounters {
  std::uint64_t policy_calls = 0;   ///< on_submit + on_job_end.
  std::uint64_t queue_sum = 0;      ///< Σ queue_size() after each call.
  std::uint64_t ctx_calls = 0;      ///< start_job/boost_job/running_jobs.
  std::uint64_t obs_flushes = 0;    ///< Instrument on_events calls.
  std::uint64_t obs_records = 0;    ///< Records delivered in them.
  std::uint64_t stream_calls = 0;   ///< JobStream::next / load_source calls.
  std::uint64_t jobs_ingested = 0;  ///< Jobs those calls produced.
  std::uint64_t pm_calls = 0;       ///< PowerManager hook calls.
  std::uint64_t pm_starts = 0;      ///< on_job_start decisions.
  std::uint64_t pm_gated = 0;       ///< ... of which gated the job.
};

/// Shared by every decorator of one traced run.
struct Tracer {
  SpanRecorder spans;
  LayerCounters counters;
};

/// core::SchedulerContext seen by the wrapped policy: forwards to the
/// simulation, timing the calls that change or scan its state.
class TracedContext final : public bsld::core::SchedulerContext {
 public:
  explicit TracedContext(Tracer& tracer) : tracer_(tracer) {}
  void bind(bsld::core::SchedulerContext& inner) { inner_ = &inner; }

  [[nodiscard]] bsld::Time now() const override;
  [[nodiscard]] const bsld::cluster::Machine& machine() const override;
  [[nodiscard]] const bsld::wl::Job& job(bsld::JobId id) const override;
  [[nodiscard]] const bsld::power::BetaTimeModel& time_model() const override;
  void start_job(bsld::JobId id, const std::vector<bsld::CpuId>& cpus,
                 bsld::GearIndex gear) override;
  [[nodiscard]] std::vector<bsld::JobId> running_jobs() const override;
  [[nodiscard]] bsld::GearIndex running_gear(bsld::JobId id) const override;
  void boost_job(bsld::JobId id, bsld::GearIndex gear) override;

 private:
  Tracer& tracer_;
  bsld::core::SchedulerContext* inner_ = nullptr;
};

class TracedPolicy final : public bsld::core::SchedulingPolicy {
 public:
  TracedPolicy(std::unique_ptr<bsld::core::SchedulingPolicy> inner,
               Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer), context_(tracer) {}

  void on_submit(bsld::core::SchedulerContext& ctx, bsld::JobId id) override;
  void on_job_end(bsld::core::SchedulerContext& ctx, bsld::JobId id) override;
  [[nodiscard]] std::size_t queue_size() const override;
  [[nodiscard]] const bsld::cluster::Reservation* reservation() const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::unique_ptr<bsld::core::SchedulingPolicy> inner_;
  Tracer& tracer_;
  TracedContext context_;
};

class TracedPowerManager final : public bsld::pm::PowerManager {
 public:
  TracedPowerManager(std::unique_ptr<bsld::pm::PowerManager> inner,
                     Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] const char* name() const override;
  void on_run_begin(bsld::pm::PmContext& context) override;
  void on_job_submit(bsld::pm::PmContext& context, bsld::JobId id) override;
  [[nodiscard]] bsld::pm::StartDecision on_job_start(
      bsld::pm::PmContext& context, bsld::JobId id,
      const std::vector<bsld::CpuId>& cpus, bsld::GearIndex gear) override;
  void on_job_finish(bsld::pm::PmContext& context, bsld::JobId id,
                     const std::vector<bsld::CpuId>& cpus) override;
  void on_job_raised(bsld::pm::PmContext& context, bsld::JobId id,
                     bsld::GearIndex gear) override;
  void on_timer(bsld::pm::PmContext& context) override;
  void on_run_end(bsld::pm::PmContext& context) override;

 private:
  std::unique_ptr<bsld::pm::PowerManager> inner_;
  Tracer& tracer_;
};

class TracedStream final : public bsld::wl::JobStream {
 public:
  TracedStream(bsld::wl::JobStream& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::optional<bsld::wl::Job> next() override;
  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] std::int32_t cpus() const override;
  [[nodiscard]] std::int64_t size_hint() const override;

 private:
  bsld::wl::JobStream& inner_;
  Tracer& tracer_;
};

class TracedInstrument final : public bsld::sim::Instrument {
 public:
  TracedInstrument(std::unique_ptr<bsld::sim::Instrument> inner,
                   Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override;
  void write_csv(std::ostream& out) const override;
  [[nodiscard]] std::size_t rows() const override;

  void on_run_begin(const bsld::sim::RunBeginEvent& event) override;
  void on_submit(const bsld::sim::SubmitEvent& event) override;
  void on_start(const bsld::sim::StartEvent& event) override;
  void on_gear_change(const bsld::sim::GearChangeEvent& event) override;
  void on_finish(const bsld::sim::FinishEvent& event) override;
  void on_pm(const bsld::pm::PmEvent& event) override;
  void on_run_end(const bsld::sim::RunEndEvent& event) override;
  void on_events(const bsld::sim::JobResolver& jobs,
                 const bsld::sim::BatchedEvent* events,
                 std::size_t count) override;

 private:
  std::unique_ptr<bsld::sim::Instrument> inner_;
  Tracer& tracer_;
};

/// What a traced rebuild produced: the simulation result plus the
/// instruments the spec named (decorated, in spec order). The platform
/// models are declared first so they outlive the instruments that hold
/// references into them.
struct TracedRun {
  std::unique_ptr<bsld::power::PowerModel> power;
  std::unique_ptr<bsld::power::BetaTimeModel> time;
  bsld::sim::SimulationResult sim;
  std::vector<std::unique_ptr<bsld::sim::Instrument>> instruments;
};

/// Rebuilds `spec` from the public registries (core::PolicyRegistry,
/// pm::PowerManagerRegistry, sim::InstrumentRegistry) with every layer
/// decorated, and runs it — the same assembly report::run_one performs,
/// eager (wl::load_source) or streaming (wl::open_stream) as spec.stream
/// says. The whole rebuild is one Layer::kSpec span. Only specs at
/// size_scale 1 without per-job beta are supported (the transforms
/// run_one applies otherwise are not public); others throw.
TracedRun traced_run(const bsld::report::RunSpec& spec, Tracer& tracer);

}  // namespace e2e
