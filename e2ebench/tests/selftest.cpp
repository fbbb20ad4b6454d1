// Self-tests of the benchmark's own machinery: the tail-percentile rule,
// span self-time arithmetic, the decorators' forwarding, and the output
// checks that decide which operations count as failed. Run with
// `python3 e2ebench/run.py --self-test`; exits non-zero on any failure.

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "decorators.hpp"
#include "report/experiment.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload/source.hpp"

namespace {

int g_failures = 0;

#define CHECK(condition)                                                  \
  do {                                                                    \
    if (!(condition)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #condition);                                           \
      ++g_failures;                                                       \
    }                                                                     \
  } while (0)

namespace bc = bsld::core;
namespace bp = bsld::pm;
namespace bs = bsld::sim;
namespace bw = bsld::wl;
namespace br = bsld::report;

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;  // descending: the rule must sort.
}

void test_percentiles() {
  CHECK(e2e::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(e2e::median({4.0, 1.0, 2.0, 3.0}) == 2.5);

  // 1000 samples: p99 is the 990th, with exactly 10 beyond it.
  e2e::TailPercentile tail = e2e::tail_percentile(iota_samples(1000));
  CHECK(tail.qualified && tail.percentile == 99.0 && tail.value == 990.0);
  CHECK(tail.beyond == 10 && tail.samples == 1000);

  // 100 samples: p99 would leave 1 beyond, so fall back to the 90th.
  tail = e2e::tail_percentile(iota_samples(100));
  CHECK(tail.qualified && tail.value == 90.0 && tail.beyond == 10);
  CHECK(std::abs(tail.percentile - 90.0) < 1e-9);

  // 11 samples: only the smallest keeps 10 beyond it.
  tail = e2e::tail_percentile(iota_samples(11));
  CHECK(tail.qualified && tail.value == 1.0 && tail.beyond == 10);

  // 5 samples: nothing qualifies; the maximum is reported and flagged.
  tail = e2e::tail_percentile(iota_samples(5));
  CHECK(!tail.qualified && tail.value == 5.0 && tail.beyond == 0);

  // The printed description carries the sample count.
  const std::string text = e2e::tail_percentile(iota_samples(1000)).describe();
  CHECK(text.find("p99 of 1000 samples (10 beyond)") != std::string::npos);
  CHECK(e2e::tail_percentile(iota_samples(5)).describe().find("too few") !=
        std::string::npos);
}

void test_self_time() {
  using e2e::Layer;
  // spec [0,100] > sim [10,90] > core [20,50] > ctx [30,40]; obs [60,70]
  // under sim; workload [95,99] under spec.
  const std::vector<e2e::Span> spans = {
      {Layer::kSpec, 0, 100, -1},     {Layer::kSim, 10, 90, 0},
      {Layer::kCore, 20, 50, 1},      {Layer::kCtx, 30, 40, 2},
      {Layer::kObs, 60, 70, 1},       {Layer::kWorkload, 95, 99, 0},
  };
  const e2e::LayerTotals totals = e2e::layer_totals(spans);
  CHECK(std::abs(totals.self(Layer::kSpec) - 16e-9) < 1e-15);
  CHECK(std::abs(totals.self(Layer::kSim) - 40e-9) < 1e-15);
  CHECK(std::abs(totals.self(Layer::kCore) - 20e-9) < 1e-15);
  CHECK(std::abs(totals.self(Layer::kCtx) - 10e-9) < 1e-15);
  CHECK(std::abs(totals.self(Layer::kObs) - 10e-9) < 1e-15);
  CHECK(std::abs(totals.self(Layer::kWorkload) - 4e-9) < 1e-15);
  double sum = 0;
  for (const double self : totals.self_s) sum += self;
  CHECK(std::abs(sum - 100e-9) < 1e-15);  // self times tile the root.
  CHECK(std::abs(totals.duration(Layer::kSim) - 80e-9) < 1e-15);

  // The recorder links each span to the innermost open one.
  e2e::SpanRecorder recorder;
  const std::int32_t root = recorder.open(Layer::kSpec);
  const std::int32_t child = recorder.open(Layer::kCore);
  const std::int32_t grandchild = recorder.open(Layer::kCtx);
  recorder.close(grandchild);
  recorder.close(child);
  const std::int32_t sibling = recorder.open(Layer::kPm);
  recorder.close(sibling);
  recorder.close(root);
  CHECK(recorder.well_nested());
  CHECK(recorder.spans()[1].parent == root && recorder.spans()[2].parent == child);
  CHECK(recorder.spans()[3].parent == root && recorder.spans()[0].parent == -1);
  for (const e2e::Span& span : recorder.spans()) CHECK(span.end_ns >= span.start_ns);

  // Closing out of order marks the recording broken instead of throwing.
  e2e::SpanRecorder broken;
  const std::int32_t a = broken.open(Layer::kSpec);
  (void)broken.open(Layer::kSim);
  broken.close(a);
  CHECK(!broken.well_nested());
}

// --- Fakes recording every virtual call -------------------------------------

struct FakeContext final : bc::SchedulerContext {
  mutable std::vector<std::string> calls;
  bsld::cluster::Machine machine_{4};
  bsld::power::BetaTimeModel time_{bsld::cluster::paper_gear_set(), 0.5};
  bw::Job job_{};

  bsld::Time now() const override { calls.push_back("now"); return 42; }
  const bsld::cluster::Machine& machine() const override {
    calls.push_back("machine");
    return machine_;
  }
  const bw::Job& job(bsld::JobId) const override {
    calls.push_back("job");
    return job_;
  }
  const bsld::power::BetaTimeModel& time_model() const override {
    calls.push_back("time_model");
    return time_;
  }
  void start_job(bsld::JobId, const std::vector<bsld::CpuId>&,
                 bsld::GearIndex) override {
    calls.push_back("start_job");
  }
  std::vector<bsld::JobId> running_jobs() const override {
    calls.push_back("running_jobs");
    return {7};
  }
  bsld::GearIndex running_gear(bsld::JobId) const override {
    calls.push_back("running_gear");
    return 3;
  }
  void boost_job(bsld::JobId, bsld::GearIndex) override {
    calls.push_back("boost_job");
  }
};

/// Calls every SchedulerContext virtual on whatever context it is handed.
struct FakePolicy final : bc::SchedulingPolicy {
  std::vector<std::string>* calls;
  explicit FakePolicy(std::vector<std::string>* log) : calls(log) {}
  void on_submit(bc::SchedulerContext& ctx, bsld::JobId id) override {
    calls->push_back("on_submit");
    (void)ctx.now();
    (void)ctx.machine();
    (void)ctx.job(id);
    (void)ctx.time_model();
    ctx.start_job(id, {0}, 0);
    (void)ctx.running_jobs();
    (void)ctx.running_gear(id);
    ctx.boost_job(id, 1);
  }
  void on_job_end(bc::SchedulerContext&, bsld::JobId) override {
    calls->push_back("on_job_end");
  }
  std::size_t queue_size() const override { return 5; }
  const bsld::cluster::Reservation* reservation() const override {
    calls->push_back("reservation");
    return nullptr;
  }
  std::string name() const override { return "fake-policy"; }
};

struct FakePm final : bp::PowerManager {
  std::vector<std::string>* calls;
  explicit FakePm(std::vector<std::string>* log) : calls(log) {}
  const char* name() const override { return "fake-pm"; }
  void on_run_begin(bp::PmContext&) override { calls->push_back("run_begin"); }
  void on_job_submit(bp::PmContext&, bsld::JobId) override {
    calls->push_back("submit");
  }
  bp::StartDecision on_job_start(bp::PmContext&, bsld::JobId,
                                 const std::vector<bsld::CpuId>&,
                                 bsld::GearIndex gear) override {
    calls->push_back("start");
    return bp::StartDecision{true, gear, 9};
  }
  void on_job_finish(bp::PmContext&, bsld::JobId,
                     const std::vector<bsld::CpuId>&) override {
    calls->push_back("finish");
  }
  void on_job_raised(bp::PmContext&, bsld::JobId, bsld::GearIndex) override {
    calls->push_back("raised");
  }
  void on_timer(bp::PmContext&) override { calls->push_back("timer"); }
  void on_run_end(bp::PmContext&) override { calls->push_back("run_end"); }
};

struct FakePmContext final : bp::PmContext {
  bsld::power::PowerModel model{bsld::cluster::paper_gear_set(), {}};
  bsld::Time now() const override { return 0; }
  std::int32_t cpu_count() const override { return 4; }
  const bsld::power::PowerModel& power_model() const override { return model; }
  void set_job_gear(bsld::JobId, bsld::GearIndex) override {}
  void release_job(bsld::JobId, bsld::GearIndex) override {}
  void schedule_timer(bsld::Time) override {}
  void emit(const bp::PmEvent&) override {}
};

struct FakeInstrument final : bs::Instrument {
  std::vector<std::string>* calls;
  explicit FakeInstrument(std::vector<std::string>* log) : calls(log) {}
  std::string name() const override { return "fake-instrument"; }
  void write_csv(std::ostream& out) const override { out << "a,b\n"; }
  std::size_t rows() const override { return 11; }
  void on_run_begin(const bs::RunBeginEvent&) override {
    calls->push_back("run_begin");
  }
  void on_submit(const bs::SubmitEvent&) override { calls->push_back("submit"); }
  void on_start(const bs::StartEvent&) override { calls->push_back("start"); }
  void on_gear_change(const bs::GearChangeEvent&) override {
    calls->push_back("gear");
  }
  void on_finish(const bs::FinishEvent&) override { calls->push_back("finish"); }
  void on_pm(const bp::PmEvent&) override { calls->push_back("pm"); }
  void on_run_end(const bs::RunEndEvent&) override {
    calls->push_back("run_end");
  }
  void on_events(const bs::JobResolver&, const bs::BatchedEvent*,
                 std::size_t count) override {
    calls->push_back("events:" + std::to_string(count));
  }
};

void test_forwarding() {
  e2e::Tracer tracer;

  // Policy + context: the inner policy sees a context that reaches every
  // SchedulerContext virtual of the simulation's.
  std::vector<std::string> policy_calls;
  e2e::TracedPolicy policy(std::make_unique<FakePolicy>(&policy_calls), tracer);
  FakeContext ctx;
  policy.on_submit(ctx, 1);
  policy.on_job_end(ctx, 1);
  (void)policy.reservation();
  CHECK(policy.queue_size() == 5 && policy.name() == "fake-policy");
  CHECK((policy_calls ==
         std::vector<std::string>{"on_submit", "on_job_end", "reservation"}));
  CHECK((ctx.calls == std::vector<std::string>{"now", "machine", "job",
                                               "time_model", "start_job",
                                               "running_jobs", "running_gear",
                                               "boost_job"}));
  CHECK(tracer.counters.policy_calls == 2 && tracer.counters.queue_sum == 10);
  CHECK(tracer.counters.ctx_calls == 3);  // start_job, running_jobs, boost_job.

  // Power manager: every hook, and the decision comes back unchanged.
  std::vector<std::string> pm_calls;
  e2e::TracedPowerManager manager(std::make_unique<FakePm>(&pm_calls), tracer);
  FakePmContext pm_ctx;
  manager.on_run_begin(pm_ctx);
  manager.on_job_submit(pm_ctx, 1);
  const bp::StartDecision decision = manager.on_job_start(pm_ctx, 1, {0}, 2);
  manager.on_job_raised(pm_ctx, 1, 3);
  manager.on_job_finish(pm_ctx, 1, {0});
  manager.on_timer(pm_ctx);
  manager.on_run_end(pm_ctx);
  CHECK(decision.gate && decision.gear == 2 && decision.wake_delay == 9);
  CHECK(std::string(manager.name()) == "fake-pm");
  CHECK((pm_calls == std::vector<std::string>{"run_begin", "submit", "start",
                                              "raised", "finish", "timer",
                                              "run_end"}));
  CHECK(tracer.counters.pm_calls == 7 && tracer.counters.pm_starts == 1 &&
        tracer.counters.pm_gated == 1);

  // Stream: same jobs, same metadata.
  bw::Workload workload{"w", 8, {}};
  for (int i = 1; i <= 3; ++i) {
    bw::Job job;
    job.id = i;
    job.submit = i;
    job.run_time = 10;
    job.requested_time = 20;
    workload.jobs.push_back(job);
  }
  bw::VectorJobStream inner(workload);
  e2e::TracedStream stream(inner, tracer);
  CHECK(stream.name() == "w" && stream.cpus() == 8 && stream.size_hint() == 3);
  for (const bw::Job& job : workload.jobs) {
    const std::optional<bw::Job> got = stream.next();
    CHECK(got.has_value() && *got == job);
  }
  CHECK(!stream.next().has_value());
  CHECK(tracer.counters.stream_calls == 4 && tracer.counters.jobs_ingested == 3);

  // Instrument: every observer hook and the measurement surface.
  std::vector<std::string> obs_calls;
  e2e::TracedInstrument instrument(std::make_unique<FakeInstrument>(&obs_calls),
                                   tracer);
  const bs::WorkloadJobResolver resolver(workload);
  const bs::JobOutcome outcome{};
  instrument.on_run_begin(bs::RunBeginEvent{});
  instrument.on_submit(bs::SubmitEvent{workload.jobs[0], 0, 1});
  instrument.on_start(bs::StartEvent{workload.jobs[0], 0, 1, 0, 10, 20});
  instrument.on_gear_change(bs::GearChangeEvent{});
  instrument.on_finish(bs::FinishEvent{outcome, 0, 0});
  instrument.on_pm(bp::PmEvent{});
  const bs::BatchedEvent batch[2] = {bs::SubmitRecord{0, 1},
                                     bs::SubmitRecord{1, 2}};
  instrument.on_events(resolver, batch, 2);
  instrument.on_run_end(bs::RunEndEvent{});
  std::ostringstream csv;
  instrument.write_csv(csv);
  CHECK(instrument.name() == "fake-instrument" && instrument.rows() == 11 &&
        csv.str() == "a,b\n");
  CHECK((obs_calls == std::vector<std::string>{"run_begin", "submit", "start",
                                               "gear", "finish", "pm",
                                               "events:2", "run_end"}));
  CHECK(tracer.counters.obs_flushes == 1 && tracer.counters.obs_records == 2);
  CHECK(tracer.spans.well_nested());
}

std::string csv_of(const bs::Instrument& instrument) {
  std::ostringstream out;
  instrument.write_csv(out);
  return out.str();
}

/// A decorated rebuild is bit-identical to run_one, eager and streaming,
/// with a power manager and instruments attached.
void test_pass_through() {
  for (const bool stream : {false, true}) {
    br::RunSpec spec;
    spec.workload = bw::WorkloadSource::from_archive(bw::Archive::kCTC, 400);
    bc::DvfsConfig dvfs;
    dvfs.bsld_threshold = 2.0;
    dvfs.wq_threshold = 16;
    spec.policy.dvfs = dvfs;
    spec.pm.name = "sleep";
    spec.instruments = {"wait-trace", "utilization", "energy"};
    spec.stream = stream;
    const br::RunResult plain = br::run_one(spec);
    e2e::Tracer tracer;
    const e2e::TracedRun traced = e2e::traced_run(spec, tracer);
    CHECK(e2e::same_aggregates(traced.sim, plain.sim()));
    CHECK(traced.sim.jobs.size() == plain.sim().jobs.size());
    CHECK(traced.instruments.size() == plain.instruments.size());
    for (std::size_t i = 0; i < traced.instruments.size(); ++i) {
      CHECK(csv_of(*traced.instruments[i]) == csv_of(*plain.instruments[i]));
    }
    CHECK(tracer.spans.well_nested());
    CHECK(tracer.counters.policy_calls > 0 && tracer.counters.pm_calls > 0 &&
          tracer.counters.obs_flushes > 0 && tracer.counters.stream_calls > 0);
  }
}

void test_failed_operations() {
  e2e::OpTally tally;
  tally.record(true);
  tally.record(false);
  CHECK(tally.attempted == 2 && tally.failed == 1 && tally.error_rate() == 0.5);

  const std::string payload = "index,run\n0,x\n";
  const std::string good =
      "ok rows=1 executed=0 cache_hits=1 deduplicated=0 bytes=" +
      std::to_string(payload.size());
  const bool hit = true;
  CHECK(e2e::reply_problem(good, payload, "end", hit).empty());
  // Corrupted header, truncated payload, missing trailer, an err reply, and
  // a reply whose cache attributes contradict the plan all fail.
  CHECK(!e2e::reply_problem("ok rows=1 bytes=zz", payload, "end", hit).empty());
  CHECK(!e2e::reply_problem("garbage", payload, "end", hit).empty());
  CHECK(!e2e::reply_problem(good, payload.substr(1), "end", hit).empty());
  CHECK(!e2e::reply_problem(good, payload, "", hit).empty());
  CHECK(!e2e::reply_problem("err bad spec", "", "", hit).empty());
  CHECK(!e2e::reply_problem(good, payload, "end", false).empty());

  // A wrong aggregate fails the grid invariants or the bit-exact compare.
  bs::SimulationResult result;
  result.job_count = 5000;
  result.avg_bsld = 1.5;
  result.reduced_jobs = 10;
  result.energy.computational_joules = 1.0;
  result.energy.total_joules = 2.0;
  CHECK(e2e::grid_result_problems(result, 5000, false).empty());
  CHECK(!e2e::grid_result_problems(result, 5000, true).empty());  // baseline
  CHECK(!e2e::grid_result_problems(result, 4999, false).empty());
  bs::SimulationResult low = result;
  low.avg_bsld = 0.99;
  CHECK(!e2e::grid_result_problems(low, 5000, false).empty());
  bs::SimulationResult no_energy = result;
  no_energy.energy.total_joules = 0.0;
  CHECK(!e2e::grid_result_problems(no_energy, 5000, false).empty());

  bs::SimulationResult nudged = result;
  nudged.avg_bsld = std::nextafter(result.avg_bsld, 2.0);
  CHECK(e2e::same_aggregates(result, result));
  CHECK(!e2e::same_aggregates(result, nudged));
  CHECK(e2e::fold_digest(e2e::kDigestSeed, result) !=
        e2e::fold_digest(e2e::kDigestSeed, nudged));
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_forwarding();
  test_pass_through();
  test_failed_operations();
  if (g_failures != 0) {
    std::fprintf(stderr, "e2ebench self-test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("e2ebench self-test: all checks passed\n");
  return 0;
}
