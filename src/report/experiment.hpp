/// \file experiment.hpp
/// \brief One fully-specified simulation run of the paper's evaluation —
/// and the single entry point every example, bench and test uses to
/// execute it reproducibly.
///
/// A RunSpec is declarative and open on every axis:
///   * workload — any wl::WorkloadSource (canonical archive model, SWF
///     file, or inline generator spec; workload/source.hpp);
///   * policy   — any core::PolicySpec resolved by name through
///     core::PolicyRegistry (core/policy_registry.hpp), so downstream
///     policy plugins flow through unchanged;
///   * platform — gear set, power model calibration and the beta time
///     model, all serializable;
///   * power management — any pm::PmSpec resolved by name through
///     pm::PowerManagerRegistry (pm/registry.hpp); "none" (the default)
///     is bit-identical to running without a manager;
///   * measurement — extra instruments by sim::InstrumentRegistry name
///     plus a retain_jobs switch for streaming aggregate-only runs.
/// It round-trips through util::Config (parse/to_config) byte-identically,
/// so a run is savable, diffable and replayable from a file
/// (`bsldsim --spec run.conf`), and key() doubles as the deduplication key
/// for report::SweepRunner grids.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/gears.hpp"
#include "core/policy_registry.hpp"
#include "pm/spec.hpp"
#include "power/power_model.hpp"
#include "sim/instrument_registry.hpp"
#include "sim/simulation.hpp"
#include "util/config.hpp"
#include "util/sampler.hpp"
#include "util/thread_annotations.hpp"
#include "workload/source.hpp"

namespace bsld::report {

/// Declarative description of a run.
struct RunSpec {
  wl::WorkloadSource workload;       ///< Where the trace comes from.
  double size_scale = 1.0;           ///< 1.2 = "20% larger system" (§5.2).
  core::PolicySpec policy;           ///< Scheduler + DVFS, by name.
  cluster::GearSet gears = cluster::paper_gear_set();  ///< DVFS operating points.
  double beta = 0.5;                 ///< Paper's beta (Eq. 5).
  power::PowerModelConfig power;     ///< Paper defaults.
  /// Extension (paper §7 future work): per-job beta drawn uniformly from
  /// [first, second] instead of the single platform beta.
  std::optional<std::pair<double, double>> per_job_beta;
  /// Power management, by pm::PowerManagerRegistry name plus tunables.
  /// The default ("none") is bit-identical to running without a manager;
  /// serialized as `pm` / `pm.*` keys only when enabled.
  pm::PmSpec pm;
  /// Extra measurement instruments attached to the run, by
  /// sim::InstrumentRegistry name (e.g. "wait-trace", "utilization").
  /// Serialized as the `instruments` config key; unknown names fail at
  /// parse time, listing what is registered.
  std::vector<std::string> instruments;
  /// Keep the per-job JobOutcome vector in the result (sim::SimulationConfig
  /// equivalent). Off = streaming aggregate-only runs with O(1) memory;
  /// serialized as `retain_jobs = false` only when disabled.
  bool retain_jobs = true;
  /// Execute through the streaming pipeline: wl::open_stream feeds the
  /// simulation directly under its submit-lookahead window, so the trace
  /// is never materialized. Results are bit-identical to the materialized
  /// run; combined with retain_jobs = false the run performs no O(jobs)
  /// allocation end to end. Serialized as `stream = true` only when set.
  bool stream = false;
  /// Time-series instrument sampling (wait-trace, utilization): the
  /// default plan retains every point; a non-zero cap bounds retention at
  /// O(cap) while staying exact below it. Serialized as `sample.cap`,
  /// `sample.mode` (decimate | reservoir) and `sample.seed`, each only
  /// when it differs from the default.
  util::SamplePlan sample;

  /// Reads a spec from its serialized form. Accepts partial configs —
  /// missing keys keep their defaults. Throws bsld::Error on unknown
  /// workload kinds, archive names, or unregistered policy names.
  static RunSpec parse(const util::Config& config);

  /// Canonical serialized form: parse(to_config()) == *this and
  /// re-serializing the parsed spec is byte-identical.
  [[nodiscard]] util::Config to_config() const;

  /// to_config() rendered as text — the spec's identity. SweepRunner uses
  /// it to deduplicate identical runs inside a grid. Memoized: the first
  /// call serializes, later calls return the cached text, so a grid that
  /// keys the same specs repeatedly (SweepRunner dedup + shard + in-flight
  /// coalescing) pays the serialization once. Mutating a field after key()
  /// leaves the cache stale — treat a spec as frozen once it has been keyed
  /// (copy-assignment resets the copy's cache, so the common tweak-a-copy
  /// pattern stays safe).
  [[nodiscard]] const std::string& key() const;

  /// "CTC x1.2 EASY BSLD<=2,WQ<=0" — derived from the spec's components
  /// (wl::source_label + core::policy_label), for tables and logs.
  [[nodiscard]] std::string label() const;

  friend bool operator==(const RunSpec&, const RunSpec&) = default;

  /// key() memo. A distinct type so the defaulted operator== above ignores
  /// it (two specs are equal regardless of which has been keyed) and so
  /// copy-assignment drops the cached text instead of carrying it into a
  /// copy that is about to be tweaked. Safe to fill from several threads
  /// at once: the first callers serialize on the mutex, and once the text
  /// is published a caller only reads the atomic flag.
  class KeyCache {
   public:
    KeyCache() = default;
    KeyCache(const KeyCache&) noexcept {}
    KeyCache& operator=(const KeyCache&) noexcept {
      reset();
      return *this;
    }
    KeyCache(KeyCache&& other) noexcept { adopt(other); }
    KeyCache& operator=(KeyCache&& other) noexcept {
      adopt(other);
      return *this;
    }
    friend bool operator==(const KeyCache&, const KeyCache&) { return true; }

    /// The cached text, computed by `make()` on first use.
    template <class Make>
    const std::string& get(Make&& make) const {
      if (!ready_.load()) {
        util::ScopedLock lock(mutex_);
        if (!ready_.load()) {
          value_ = make();
          ready_.store(true);
        }
      }
      return value_;
    }

   private:
    void reset() noexcept {
      value_.clear();
      ready_.store(false);
    }
    // Moves never race with get(): a spec being moved is not shared.
    void adopt(KeyCache& other) noexcept {
      value_ = std::move(other.value_);
      ready_.store(other.ready_.load());
      other.reset();
    }

    mutable util::Mutex mutex_;
    mutable std::atomic<bool> ready_{false};
    /// Written once under mutex_ before ready_ is set; read-only after.
    mutable std::string value_;
  };
  KeyCache key_cache;  ///< Internal; managed by key().
};

/// Spec + everything the run produced.
///
/// The simulation payload and the instruments are immutable once the run
/// finishes, so both are shared (not copied) across the grid slots a
/// deduplicated SweepRunner run fans out to: copying a RunResult is O(1)
/// in payload size, which is what keeps fanout delivery off the sweep's
/// critical path even for retained-jobs runs with thousands of outcomes.
struct RunResult {
  RunSpec spec;
  /// The instruments spec.instruments named, in spec order, holding their
  /// captured measurement.
  std::vector<std::shared_ptr<sim::Instrument>> instruments;

  RunResult() = default;
  RunResult(RunSpec spec_in, sim::SimulationResult sim_in,
            std::vector<std::shared_ptr<sim::Instrument>> instruments_in);

  /// The simulation payload (aggregates + per-job outcomes). A
  /// default-constructed result yields an empty payload, never a crash.
  [[nodiscard]] const sim::SimulationResult& sim() const;

  /// Installs/replaces the payload. The only writers are the run entry
  /// points and the result cache's deserializer; everything downstream
  /// reads through sim().
  void set_sim(sim::SimulationResult value);

  /// The instrument registered under `name`, or nullptr. Use
  /// instrument_as<T>() for the concrete type.
  [[nodiscard]] const sim::Instrument* instrument(
      std::string_view name) const;

 private:
  /// const payload behind a shared_ptr: slots that alias it can never
  /// mutate each other's view, and the last owner frees it exactly once.
  std::shared_ptr<const sim::SimulationResult> sim_;
};

/// Typed instrument lookup: the WaitQueueTrace of a run is
/// `instrument_as<sim::WaitQueueTrace>(result, "wait-trace")`.
template <typename T>
const T* instrument_as(const RunResult& result, std::string_view name) {
  return dynamic_cast<const T*>(result.instrument(name));
}

/// Executes one spec: builds the gear set / power / time models and the
/// policy (via the registry), simulates, returns the result. Dispatches on
/// spec.stream — materialize-then-run (run_workload) or pull straight from
/// the source (run_stream); both are deterministic and bit-identical for
/// equal specs.
RunResult run_one(const RunSpec& spec);

/// Lower-level entry point for callers that already hold a workload (e.g.
/// hand-written job lists): runs `workload` under `spec`'s machine scaling,
/// per-job beta sampling, platform models and policy. The whole list is
/// admitted before the first event, so it need not be sorted. run_one()
/// with stream off is wl::load_source + run_workload.
RunResult run_workload(const wl::Workload& workload, const RunSpec& spec);

/// Streaming entry point: opens spec.workload as a wl::JobStream and pulls
/// it through the simulation's lookahead window — the trace is never held
/// in memory. Shares run_workload()'s run body; only the job source and
/// the lookahead differ.
RunResult run_stream(const RunSpec& spec);

/// Energy of `run` normalized to `baseline` (paper's Figs. 3/7/8 y-axis).
struct NormalizedEnergy {
  double computational = 1.0;  ///< Eidle = 0 panel.
  double total = 1.0;          ///< Eidle = low panel.
};
NormalizedEnergy normalized_energy(const sim::SimulationResult& run,
                                   const sim::SimulationResult& baseline);

}  // namespace bsld::report
