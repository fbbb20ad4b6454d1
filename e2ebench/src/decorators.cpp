#include "decorators.hpp"

#include <stdexcept>
#include <utility>

#include "core/policy_registry.hpp"
#include "pm/registry.hpp"
#include "sim/instrument_registry.hpp"
#include "sim/simulation.hpp"
#include "workload/source.hpp"

namespace e2e {

namespace bc = bsld::core;
namespace bp = bsld::pm;
namespace bs = bsld::sim;
namespace bw = bsld::wl;

// --- TracedContext ----------------------------------------------------------

bsld::Time TracedContext::now() const { return inner_->now(); }
const bsld::cluster::Machine& TracedContext::machine() const {
  return inner_->machine();
}
const bw::Job& TracedContext::job(bsld::JobId id) const {
  return inner_->job(id);
}
const bsld::power::BetaTimeModel& TracedContext::time_model() const {
  return inner_->time_model();
}
void TracedContext::start_job(bsld::JobId id,
                              const std::vector<bsld::CpuId>& cpus,
                              bsld::GearIndex gear) {
  const SpanScope span(tracer_.spans, Layer::kCtx);
  ++tracer_.counters.ctx_calls;
  inner_->start_job(id, cpus, gear);
}
std::vector<bsld::JobId> TracedContext::running_jobs() const {
  const SpanScope span(tracer_.spans, Layer::kCtx);
  ++tracer_.counters.ctx_calls;
  return inner_->running_jobs();
}
bsld::GearIndex TracedContext::running_gear(bsld::JobId id) const {
  return inner_->running_gear(id);
}
void TracedContext::boost_job(bsld::JobId id, bsld::GearIndex gear) {
  const SpanScope span(tracer_.spans, Layer::kCtx);
  ++tracer_.counters.ctx_calls;
  inner_->boost_job(id, gear);
}

// --- TracedPolicy -----------------------------------------------------------

void TracedPolicy::on_submit(bc::SchedulerContext& ctx, bsld::JobId id) {
  {
    const SpanScope span(tracer_.spans, Layer::kCore);
    context_.bind(ctx);
    inner_->on_submit(context_, id);
  }
  ++tracer_.counters.policy_calls;
  tracer_.counters.queue_sum += inner_->queue_size();
}
void TracedPolicy::on_job_end(bc::SchedulerContext& ctx, bsld::JobId id) {
  {
    const SpanScope span(tracer_.spans, Layer::kCore);
    context_.bind(ctx);
    inner_->on_job_end(context_, id);
  }
  ++tracer_.counters.policy_calls;
  tracer_.counters.queue_sum += inner_->queue_size();
}
std::size_t TracedPolicy::queue_size() const { return inner_->queue_size(); }
const bsld::cluster::Reservation* TracedPolicy::reservation() const {
  return inner_->reservation();
}
std::string TracedPolicy::name() const { return inner_->name(); }

// --- TracedPowerManager -----------------------------------------------------

const char* TracedPowerManager::name() const { return inner_->name(); }
void TracedPowerManager::on_run_begin(bp::PmContext& context) {
  const SpanScope span(tracer_.spans, Layer::kPm);
  ++tracer_.counters.pm_calls;
  inner_->on_run_begin(context);
}
void TracedPowerManager::on_job_submit(bp::PmContext& context, bsld::JobId id) {
  const SpanScope span(tracer_.spans, Layer::kPm);
  ++tracer_.counters.pm_calls;
  inner_->on_job_submit(context, id);
}
bp::StartDecision TracedPowerManager::on_job_start(
    bp::PmContext& context, bsld::JobId id,
    const std::vector<bsld::CpuId>& cpus, bsld::GearIndex gear) {
  const SpanScope span(tracer_.spans, Layer::kPm);
  ++tracer_.counters.pm_calls;
  ++tracer_.counters.pm_starts;
  const bp::StartDecision decision = inner_->on_job_start(context, id, cpus, gear);
  if (decision.gate) ++tracer_.counters.pm_gated;
  return decision;
}
void TracedPowerManager::on_job_finish(bp::PmContext& context, bsld::JobId id,
                                       const std::vector<bsld::CpuId>& cpus) {
  const SpanScope span(tracer_.spans, Layer::kPm);
  ++tracer_.counters.pm_calls;
  inner_->on_job_finish(context, id, cpus);
}
void TracedPowerManager::on_job_raised(bp::PmContext& context, bsld::JobId id,
                                       bsld::GearIndex gear) {
  const SpanScope span(tracer_.spans, Layer::kPm);
  ++tracer_.counters.pm_calls;
  inner_->on_job_raised(context, id, gear);
}
void TracedPowerManager::on_timer(bp::PmContext& context) {
  const SpanScope span(tracer_.spans, Layer::kPm);
  ++tracer_.counters.pm_calls;
  inner_->on_timer(context);
}
void TracedPowerManager::on_run_end(bp::PmContext& context) {
  const SpanScope span(tracer_.spans, Layer::kPm);
  ++tracer_.counters.pm_calls;
  inner_->on_run_end(context);
}

// --- TracedStream -----------------------------------------------------------

std::optional<bw::Job> TracedStream::next() {
  const SpanScope span(tracer_.spans, Layer::kWorkload);
  ++tracer_.counters.stream_calls;
  std::optional<bw::Job> job = inner_.next();
  if (job) ++tracer_.counters.jobs_ingested;
  return job;
}
const std::string& TracedStream::name() const { return inner_.name(); }
std::int32_t TracedStream::cpus() const { return inner_.cpus(); }
std::int64_t TracedStream::size_hint() const { return inner_.size_hint(); }

// --- TracedInstrument -------------------------------------------------------

std::string TracedInstrument::name() const { return inner_->name(); }
void TracedInstrument::write_csv(std::ostream& out) const {
  inner_->write_csv(out);
}
std::size_t TracedInstrument::rows() const { return inner_->rows(); }
void TracedInstrument::on_run_begin(const bs::RunBeginEvent& event) {
  inner_->on_run_begin(event);
}
void TracedInstrument::on_submit(const bs::SubmitEvent& event) {
  inner_->on_submit(event);
}
void TracedInstrument::on_start(const bs::StartEvent& event) {
  inner_->on_start(event);
}
void TracedInstrument::on_gear_change(const bs::GearChangeEvent& event) {
  inner_->on_gear_change(event);
}
void TracedInstrument::on_finish(const bs::FinishEvent& event) {
  inner_->on_finish(event);
}
void TracedInstrument::on_pm(const bp::PmEvent& event) { inner_->on_pm(event); }
void TracedInstrument::on_run_end(const bs::RunEndEvent& event) {
  inner_->on_run_end(event);
}
void TracedInstrument::on_events(const bs::JobResolver& jobs,
                                 const bs::BatchedEvent* events,
                                 std::size_t count) {
  const SpanScope span(tracer_.spans, Layer::kObs);
  ++tracer_.counters.obs_flushes;
  tracer_.counters.obs_records += count;
  inner_->on_events(jobs, events, count);
}

// --- traced_run -------------------------------------------------------------

TracedRun traced_run(const bsld::report::RunSpec& spec, Tracer& tracer) {
  if (spec.size_scale != 1.0 || spec.per_job_beta.has_value()) {
    throw std::invalid_argument(
        "traced_run: only size_scale 1 without per-job beta is supported");
  }
  const SpanScope root(tracer.spans, Layer::kSpec);
  TracedRun run;
  run.power = std::make_unique<bsld::power::PowerModel>(spec.gears, spec.power);
  run.time = std::make_unique<bsld::power::BetaTimeModel>(spec.gears, spec.beta);

  TracedPolicy policy(bc::PolicyRegistry::global().make(spec.policy), tracer);
  std::optional<TracedPowerManager> manager;
  if (spec.pm.enabled()) {
    manager.emplace(bp::PowerManagerRegistry::global().make(spec.pm, *run.power),
                    tracer);
  }
  const bs::InstrumentContext context{*run.power, *run.time, spec.sample};
  for (const std::string& name : spec.instruments) {
    run.instruments.push_back(std::make_unique<TracedInstrument>(
        bs::InstrumentRegistry::global().make(name, context), tracer));
  }

  bs::SimulationConfig config;
  config.retain_jobs = spec.retain_jobs;
  config.power_manager = manager ? &*manager : nullptr;

  // The two ingestion paths of report::run_one: pull from the stream, or
  // materialize the trace first and run over it.
  std::unique_ptr<bw::JobStream> source;
  std::optional<TracedStream> stream;
  bw::Workload workload;
  std::optional<bs::Simulation> simulation;
  if (spec.stream) {
    source = bw::open_stream(spec.workload);
    stream.emplace(*source, tracer);
    config.cpus = stream->cpus();
    simulation.emplace(*stream, policy, *run.power, *run.time, config);
  } else {
    {
      const SpanScope span(tracer.spans, Layer::kWorkload);
      ++tracer.counters.stream_calls;
      workload = bw::load_source(spec.workload);
    }
    tracer.counters.jobs_ingested += workload.jobs.size();
    config.cpus = workload.cpus;
    simulation.emplace(workload, policy, *run.power, *run.time, config);
  }
  for (const auto& instrument : run.instruments) {
    simulation->add_observer(*instrument);
  }
  {
    const SpanScope span(tracer.spans, Layer::kSim);
    run.sim = simulation->run();
  }
  return run;
}

}  // namespace e2e
