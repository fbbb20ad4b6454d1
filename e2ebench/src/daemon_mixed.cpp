// daemon-mixed: the daemon (server::Server) on a Unix socket with a fresh
// cache dir, driven by two closed-loop clients that speak the wire protocol
// directly (spawning `bsldsim query` per request would time process start,
// not the daemon). The requests run a fixed set of power-managed specs —
// cap-uniform, cap-proportional, sleep and setpoint at several budgets
// under the paper policy, on slices of the CTC archive model of 1000 to
// 2990 jobs — split between the clients. The hit/miss pattern is the one
// of reproducing the paper's §5.1 figures through the daemon: Figs. 3a,
// 3b, 4 and 5 are four panels drawn from one grid, so each grid spec is
// asked for four times, once cold (a miss that simulates under a pm and
// stores the entry) and three times warm (hits that read the entry). Each
// client works through its share in studies of nine specs: one panel
// sends the study's new specs in set order, three more panels repeat them
// in seeded orders. As no spec belongs to two clients, which request hits
// is fixed by the plan. This is the only workload that reaches server, the
// result cache and pm.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "report/result_cache.hpp"
#include "report/sinks.hpp"
#include "report/sweep.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/sweep_service.hpp"
#include "util/config.hpp"
#include "util/socket.hpp"
#include "workload/source.hpp"

namespace e2e {

namespace {

namespace br = bsld::report;
namespace bw = bsld::wl;
namespace bsv = bsld::server;

constexpr std::size_t kClients = 2;
/// Panels per study: every spec is requested once cold and
/// kPanels - 1 times warm (bench/bench_fig3_energy.cpp draws Figs. 3a and
/// 3b, bench_fig4_reduced_jobs.cpp and bench_fig5_avg_bsld.cpp one each,
/// all from report::original_size_grid()).
constexpr std::size_t kPanels = 4;
/// Specs per study: one per pm variant.
constexpr std::size_t kStudySpecs = 9;
/// Studies per client in a traced run.
constexpr std::size_t kTracedStudies = 2;
constexpr std::size_t kTracedRequests = kTracedStudies * kStudySpecs * kPanels;

struct PmVariant {
  const char* family;
  double watts;  ///< Cap or setpoint; unused by sleep.
};
constexpr PmVariant kVariants[] = {
    {"cap-uniform", 3000},      {"cap-uniform", 4000},
    {"cap-uniform", 6000},      {"cap-proportional", 3000},
    {"cap-proportional", 4000}, {"cap-proportional", 6000},
    {"sleep", 0},               {"setpoint", 4000},
    {"setpoint", 6000},
};

constexpr std::int64_t kSliceStep = 10;  ///< CTC slices of 1000..2990 jobs.
constexpr std::size_t kSlices = 200;
constexpr std::size_t kVariantCount = sizeof(kVariants) / sizeof(kVariants[0]);
static_assert(kVariantCount == kStudySpecs);

/// The fixed spec set, in a fixed order: the k-th spec runs pm variant
/// k mod 9 on CTC slice (77 k mod 200) of 1000 + 10 slice jobs, under EASY
/// with BSLD threshold 2 and WQ threshold 16. 9 and 200 are coprime and 77
/// is a unit mod 200, so k < 1800 visits every (slice, variant) pair once,
/// and any stretch of the order mixes slice sizes and pm families evenly.
/// Slices use the archive model's canonical trace.
std::vector<br::RunSpec> spec_set() {
  std::vector<br::RunSpec> specs;
  for (std::size_t k = 0; k < kSlices * kVariantCount; ++k) {
    const PmVariant& variant = kVariants[k % kVariantCount];
    const auto slice = static_cast<std::int64_t>((77 * k) % kSlices);
    br::RunSpec spec;
    spec.workload = bw::WorkloadSource::from_archive(bw::Archive::kCTC,
                                                     1000 + kSliceStep * slice);
    bsld::core::DvfsConfig dvfs;
    dvfs.bsld_threshold = 2.0;
    dvfs.wq_threshold = 16;
    spec.policy.dvfs = dvfs;
    spec.pm.name = variant.family;
    if (spec.pm.name == "setpoint") {
      spec.pm.setpoint_watts = variant.watts;
    } else if (spec.pm.name != "sleep") {
      spec.pm.cap_watts = variant.watts;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// One client's request sequence. Its share of the spec set is every
/// kClients-th spec, taken in set order in studies of kStudySpecs specs;
/// any nine consecutive specs of a share run the nine pm variants. A study
/// is kPanels panels: the first sends its specs in set order (all new), the
/// others each repeat all of them in a seeded order. The misses are thus the
/// same for every seed, which keeps their cost — most of the run's time —
/// independent of it. next() returns nothing once the share is used up.
class Plan {
 public:
  struct Step {
    std::size_t spec = 0;  ///< Index into spec() in introduction order.
    bool repeat = false;
  };

  Plan(const std::vector<br::RunSpec>& set, std::uint64_t seed,
       std::size_t client)
      : rng_(derive_seed(seed, 0xd000 + client)) {
    for (std::size_t k = client; k < set.size(); k += kClients) {
      pending_.push_back(set[k]);
      (void)pending_.back().key();  // memoized: request bodies are ready.
    }
  }

  std::optional<Step> next() {
    if (queued_ == steps_.size()) {
      if (introduced_ == pending_.size()) return std::nullopt;
      plan_study();
    }
    const Step step = steps_[queued_++];
    if (!step.repeat) ++introduced_;
    return step;
  }

  /// The specs introduced so far are spec(0) ... spec(size() - 1).
  [[nodiscard]] const br::RunSpec& spec(std::size_t index) const {
    return pending_[index];
  }
  [[nodiscard]] std::size_t size() const { return introduced_; }
  /// The client's share of the spec set.
  [[nodiscard]] std::size_t share() const { return pending_.size(); }

 private:
  void plan_study() {
    const std::size_t first = introduced_;
    const std::size_t count = std::min(kStudySpecs, pending_.size() - first);
    steps_.clear();
    queued_ = 0;
    for (std::size_t i = 0; i < count; ++i) steps_.push_back({first + i, false});
    std::vector<std::size_t> order(count);
    for (std::size_t panel = 1; panel < kPanels; ++panel) {
      for (std::size_t i = 0; i < count; ++i) order[i] = first + i;
      for (std::size_t i = count; i > 1; --i) {  // Fisher-Yates
        std::swap(order[i - 1], order[pick(rng_, i)]);
      }
      for (const std::size_t spec : order) steps_.push_back({spec, true});
    }
  }

  bsld::util::Rng rng_;
  std::vector<br::RunSpec> pending_;  ///< Introduction order.
  std::vector<Step> steps_;           ///< The current study.
  std::size_t queued_ = 0;            ///< Steps of it already returned.
  std::size_t introduced_ = 0;
};

/// Printed with every result: the pm inputs do not vary with the seed.
constexpr const char* kInputsNote =
    "pm_inputs=canonical CTC slices (seeded slices abort pm runs: see "
    "e2ebench/README.md)";

std::string run_request(const br::RunSpec& spec) {
  return "run csv\n" + spec.key() + "end\n";
}

/// One request/reply exchange as the client saw it.
struct Exchange {
  std::size_t spec = 0;
  bool repeat = false;
  double rtt_ms = 0.0;
  std::string problem;  ///< Empty = the reply passed reply_problem().
  std::string payload;
};

/// Sends `request` and reads the full reply: header line, payload of the
/// announced size and the `end` trailer (an `err` reply has neither).
/// Returns false when the stream cannot be trusted any more.
bool exchange(bsld::util::SocketStream& conn, const std::string& request,
              std::string& header, std::string& payload, std::string& trailer,
              std::string& problem) {
  try {
    conn.write_all(request);
    const std::optional<std::string> line = conn.read_line();
    if (!line) {
      problem = "connection closed";
      return false;
    }
    header = *line;
    const bsv::ReplyHeader parsed = bsv::parse_reply_header(header);
    if (parsed.ok) {
      payload = conn.read_bytes(parsed.payload_bytes);
      trailer = conn.read_line().value_or("");
    }
    return true;
  } catch (const std::exception& error) {
    problem = error.what();
    return false;
  }
}

/// Returns false when the plan ran out before the deadline or the limit.
bool client_loop(bsld::util::SocketStream& conn, Plan& plan, double deadline,
                 std::size_t max_requests, std::vector<Exchange>& out) {
  while (out.size() < max_requests && now_s() < deadline) {
    const std::optional<Plan::Step> step = plan.next();
    if (!step) return false;
    const std::string request = run_request(plan.spec(step->spec));
    Exchange done{step->spec, step->repeat, 0.0, {}, {}};
    std::string header;
    std::string trailer;
    const double start = now_s();
    const bool usable =
        exchange(conn, request, header, done.payload, trailer, done.problem);
    done.rtt_ms = 1e3 * (now_s() - start);
    if (done.problem.empty()) {
      done.problem =
          reply_problem(header, done.payload, trailer, step->repeat);
    }
    out.push_back(std::move(done));
    if (!usable) return true;
  }
  return true;
}

/// The daemon under test, in this process: a Server accepting on its own
/// thread over a fresh cache dir, which is removed again when it stops.
class Daemon {
 public:
  Daemon(const std::filesystem::path& cache_dir, const std::string& socket,
         unsigned threads)
      : cache_dir_(cache_dir) {
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir);
    cache_ = std::make_unique<br::ResultCache>(cache_dir);
    server_ = std::make_unique<bsv::Server>(
        bsv::Server::Options{socket, threads, cache_.get()});
    thread_ = std::thread([this] {
      try {
        (void)server_->serve();
      } catch (const std::exception& error) {
        std::fprintf(stderr, "bsld_e2e: daemon failed: %s\n", error.what());
        failed_ = true;
      }
    });
  }
  ~Daemon() {
    server_->stop();
    thread_.join();
    std::error_code ignored;  // best effort: the next run starts fresh anyway.
    std::filesystem::remove_all(cache_dir_, ignored);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The accept loop ended with an exception.
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  std::filesystem::path cache_dir_;
  std::atomic<bool> failed_{false};
  std::unique_ptr<br::ResultCache> cache_;
  std::unique_ptr<bsv::Server> server_;
  std::thread thread_;
};

/// A running daemon with its client connections open and answering.
struct Rig {
  std::unique_ptr<Daemon> daemon;
  std::vector<bsld::util::SocketStream> clients;
};

void start_rig(Rig& rig, const Options& options) {
  rig.clients.clear();  // close before the daemon drains.
  rig.daemon.reset();
  const std::string socket = (options.work_dir / "d.sock").string();
  rig.daemon = std::make_unique<Daemon>(options.work_dir / "cache", socket,
                                            options.threads);
  for (std::size_t c = 0; c < kClients; ++c) {
    rig.clients.push_back(bsld::util::SocketStream::connect_unix(socket));
    std::string header, payload, trailer, problem;
    if (!exchange(rig.clients.back(), "ping\n", header, payload, trailer,
                  problem) ||
        header.rfind("ok pong=1", 0) != 0) {
      throw std::runtime_error("daemon did not answer ping: " + header + problem);
    }
  }
}

/// Drives every client until `deadline` or `max_requests` each, in
/// parallel. Returns the exchanges per client and the wall time; a client
/// whose plan ran out first is counted as a failed operation.
std::vector<std::vector<Exchange>> drive(Outcome& outcome, Rig& rig,
                                         std::vector<Plan>& plans,
                                         double deadline,
                                         std::size_t max_requests,
                                         double& wall_s) {
  std::vector<std::vector<Exchange>> done(kClients);
  std::vector<char> completed(kClients, 1);
  const double start = now_s();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        completed[c] = client_loop(rig.clients[c], plans[c], deadline,
                                   max_requests, done[c]) ? 1 : 0;
      });
    }
  }
  wall_s = now_s() - start;
  for (std::size_t c = 0; c < kClients; ++c) {
    outcome.ops.record(completed[c] != 0);
    if (completed[c] == 0) {
      outcome.note("failed=client " + std::to_string(c) + " sent all " +
                   std::to_string(plans[c].share()) +
                   " specs of its share before the run ended");
    }
    outcome.note("client " + std::to_string(c) + " requests=" +
                 std::to_string(done[c].size()) + " new_specs=" +
                 std::to_string(plans[c].size()) + "/" +
                 std::to_string(plans[c].share()));
  }
  return done;
}

/// The CSV reply a one-spec `run csv` request must carry.
std::string render_row(const br::RunResult& result) {
  std::ostringstream out;
  br::CsvResultSink sink(out);
  sink.on_result(0, result);
  return out.str();
}

/// Checks every exchange outside the timed window — its reply passed the
/// protocol check and its payload equals the row rendered locally from
/// run_one — and the daemon's cache counters against the plan. Returns the
/// local results of every spec sent, per client, in plan order.
std::vector<std::vector<br::RunResult>> check_rig(
    Outcome& outcome, Rig& rig, const std::vector<Plan>& plans,
    const std::vector<std::vector<Exchange>>& done, unsigned threads,
    std::uint64_t& digest) {
  std::vector<br::RunSpec> specs;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < plans[c].size(); ++i) {
      specs.push_back(plans[c].spec(i));
    }
  }
  br::SweepRunner::Options runner_options;
  runner_options.threads = threads;
  br::SweepRunner runner(runner_options);
  std::vector<br::RunResult> flat = runner.run(specs);

  std::vector<std::vector<br::RunResult>> local(kClients);
  std::size_t next = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  digest = kDigestSeed;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < plans[c].size(); ++i) {
      local[c].push_back(std::move(flat[next++]));
    }
    for (std::size_t n = 0; n < done[c].size(); ++n) {
      const Exchange& ex = done[c][n];
      std::string problem = ex.problem;
      if (problem.empty() && ex.payload != render_row(local[c][ex.spec])) {
        problem = "payload differs from the locally rendered row";
      }
      outcome.ops.record(problem.empty());
      if (!problem.empty()) outcome.note("failed=client " + std::to_string(c) +
                                         ": " + problem);
      (ex.repeat ? hits : misses) += 1;
      // Over a fixed prefix, so time-bounded runs of one seed (and its
      // traced run) print the same digest.
      if (n < kTracedRequests) digest = fold_digest(digest, ex.payload);
    }
  }

  // The daemon's own counters must match the plan: a hit exactly for each
  // repeat; for each new spec a store and two misses (SweepRunner looks up
  // on submit and again in the worker before simulating).
  std::string header, payload, trailer, problem;
  bool ok = exchange(rig.clients.front(), "stats\n", header, payload,
                     trailer, problem);
  if (ok) {
    try {
      const bsld::util::Config stats = bsld::util::Config::parse(payload);
      ok = stats.get_int("cache.hits", -1) == static_cast<std::int64_t>(hits) &&
           stats.get_int("cache.misses", -1) ==
               static_cast<std::int64_t>(2 * misses) &&
           stats.get_int("cache.stores", -1) ==
               static_cast<std::int64_t>(misses);
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      problem = "server cache counters disagree with the plan: " + payload;
      for (char& c : problem) c = c == '\n' ? ' ' : c;
    }
  }
  outcome.ops.record(ok && !rig.daemon->failed());
  if (!ok) outcome.note("failed=stats: " + problem);
  if (rig.daemon->failed()) outcome.note("failed=daemon accept loop threw");
  outcome.note("hits=" + std::to_string(hits));
  outcome.note("misses=" + std::to_string(misses));
  return local;
}

std::vector<Plan> make_plans(std::uint64_t seed) {
  const std::vector<br::RunSpec> set = spec_set();
  std::vector<Plan> plans;
  for (std::size_t c = 0; c < kClients; ++c) plans.emplace_back(set, seed, c);
  return plans;
}

void untraced(const Options& options, Outcome& outcome) {
  // Set-up: the request plans with every request body rendered, a fresh
  // cache dir, daemon start, both clients connected and answered a ping.
  // The measured daemon is started afresh after the timed set-ups, so its
  // threads do not inherit the pinning.
  const auto set_up = [&] {
    std::pair<std::vector<Plan>, Rig> made{make_plans(options.seed), Rig{}};
    start_rig(made.second, options);
    return made;  // torn down after the timer stops.
  };
  const double setup_s = setup_time_s(4, set_up);
  auto [plans, rig] = set_up();

  double wall_s = 0.0;
  const auto done = drive(outcome, rig, plans, now_s() + options.seconds,
                          static_cast<std::size_t>(-1), wall_s);
  const double rss_mb = peak_rss_mb();  // before the checks allocate.

  std::uint64_t digest = 0;
  (void)check_rig(outcome, rig, plans, done, options.threads, digest);
  rig.clients.clear();
  rig.daemon.reset();

  std::vector<double> rtt_ms;
  double jobs = 0.0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (const Exchange& ex : done[c]) {
      rtt_ms.push_back(ex.rtt_ms);
      jobs += static_cast<double>(plans[c].spec(ex.spec).workload.jobs);
    }
  }
  const TailPercentile tail = tail_percentile(rtt_ms);
  const auto completed = static_cast<double>(rtt_ms.size());
  outcome.set("setup_s", setup_s, "s");
  outcome.set("jobs_per_s", jobs / wall_s, "jobs/s");
  outcome.set("peak_rss_mb", rss_mb, "MB");
  outcome.set("query_p50_ms", median(rtt_ms), "ms");
  outcome.set("query_p99_ms", tail.value, "ms");
  outcome.set("queries_per_s", completed / wall_s, "req/s");
  outcome.note("query=one `run` request, send to full reply, " +
               std::to_string(kClients) + " closed-loop clients");
  outcome.note("requests=" + std::to_string(rtt_ms.size()));
  outcome.note("query_p99_ms=" + tail.describe());
  outcome.note(kInputsNote);
  outcome.note("digest=" + hex_digest(digest));
}

void traced(const Options& options, Outcome& outcome) {
  // Client view: a fixed plan prefix through the daemon.
  Rig rig;
  start_rig(rig, options);
  std::vector<Plan> plans = make_plans(options.seed);
  double wall_s = 0.0;
  const auto done = drive(outcome, rig, plans,
                          std::numeric_limits<double>::infinity(),
                          kTracedRequests, wall_s);
  std::uint64_t digest = 0;
  const auto local =
      check_rig(outcome, rig, plans, done, options.threads, digest);
  std::size_t executed = 0;
  for (const auto& client : done) {
    for (const Exchange& ex : client) executed += ex.repeat ? 0 : 1;
  }
  rig.clients.clear();
  rig.daemon.reset();

  // Service view: the same requests parsed by RequestParser and answered by
  // an in-process SweepService over its own fresh cache.
  const std::filesystem::path service_dir = options.work_dir / "service-cache";
  std::filesystem::remove_all(service_dir);
  std::filesystem::create_directories(service_dir);
  std::vector<double> service_ms;
  std::vector<double> parse_us;
  {
    br::ResultCache cache(service_dir);
    bsv::SweepService service(bsv::SweepService::Options{options.threads, &cache});
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const Exchange& ex : done[c]) {
        std::istringstream lines(run_request(plans[c].spec(ex.spec)));
        bsv::RequestParser parser;
        std::optional<bsv::Request> request;
        std::string line;
        const double parse_start = now_s();
        while (!request && std::getline(lines, line)) request = parser.feed(line);
        parse_us.push_back(1e6 * (now_s() - parse_start));
        if (!request) {
          outcome.ops.record(false);
          outcome.note("failed=RequestParser did not complete a run request");
          continue;
        }
        const double start = now_s();
        const bsv::SweepService::RunReply reply = service.run(*request);
        service_ms.push_back(1e3 * (now_s() - start));
        outcome.ops.record(reply.payload == ex.payload);
        if (reply.payload != ex.payload) {
          outcome.note("failed=in-process service reply differs from daemon");
        }
      }
    }
    service.drain();
  }

  // Cache view: the same spec sequence against a fresh ResultCache, with
  // lookup and store timed on their own.
  const std::filesystem::path cache_dir = options.work_dir / "timed-cache";
  std::filesystem::remove_all(cache_dir);
  std::vector<double> lookup_ms;
  std::vector<double> store_ms;
  double entry_bytes = 0.0;
  std::size_t hits = 0;
  {
    br::ResultCache cache(cache_dir);
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const Exchange& ex : done[c]) {
        const br::RunSpec& spec = plans[c].spec(ex.spec);
        double start = now_s();
        const std::optional<br::RunResult> hit = cache.lookup(spec);
        lookup_ms.push_back(1e3 * (now_s() - start));
        if (hit) {
          ++hits;
          continue;
        }
        start = now_s();
        cache.store(local[c][ex.spec]);
        store_ms.push_back(1e3 * (now_s() - start));
        entry_bytes += static_cast<double>(
            std::filesystem::file_size(cache.entry_path(spec)));
      }
    }
  }
  std::filesystem::remove_all(cache_dir);
  std::filesystem::remove_all(service_dir);

  // Layer view: every distinct spec rebuilt with decorators, against
  // run_one.
  TraceTotals totals;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < plans[c].size(); ++i) {
      br::RunResult plain;
      const TracedRun decorated = trace_spec(plans[c].spec(i), totals, plain);
      const bool same = same_aggregates(decorated.sim, plain.sim()) &&
                        same_aggregates(plain.sim(), local[c][i].sim());
      outcome.ops.record(same);
      if (!same) outcome.note("failed=" + plans[c].spec(i).label() +
                              ": traced != untraced");
    }
  }
  report_layers(outcome, totals);

  std::vector<double> rtt_ms;
  for (const auto& client : done) {
    for (const Exchange& ex : client) rtt_ms.push_back(ex.rtt_ms);
  }
  const double lookups = static_cast<double>(lookup_ms.size());
  const double stores = static_cast<double>(store_ms.size());
  outcome.set("report.executed", static_cast<double>(executed), "count");
  outcome.set("report.cache_hit_ratio", static_cast<double>(hits) / lookups,
              "fraction");
  outcome.set("report.cache_lookup_ms", median(lookup_ms), "ms");
  outcome.set("report.cache_store_ms", median(store_ms), "ms");
  outcome.set("report.entry_kb", stores > 0 ? entry_bytes / stores / 1024.0 : 0.0,
              "KB");
  outcome.set("server.service_ms", median(service_ms), "ms");
  outcome.set("server.parse_us", median(parse_us), "us");
  outcome.set("server.transport_ms", median(rtt_ms) - median(service_ms), "ms");
  outcome.note("requests=" + std::to_string(rtt_ms.size()));
  outcome.note(kInputsNote);
  outcome.note("digest=" + hex_digest(digest));
  dump_spans(options, totals.tracer);
}

}  // namespace

Outcome run_daemon_mixed(const Options& options) {
  Outcome outcome;
  if (options.trace) {
    traced(options, outcome);
  } else {
    untraced(options, outcome);
  }
  return outcome;
}

}  // namespace e2e
