/// \file instrument_registry.hpp
/// \brief String-keyed construction of measurement instruments — the open
/// counterpart of the fixed default observer set.
///
/// A report::RunSpec names its extra instruments ("wait-trace",
/// "utilization", ...) and the registry resolves names to factories, so a
/// serialized spec selects views of the event stream the same way it
/// selects policies. InstrumentRegistry is a util::Registry over the
/// per-run InstrumentContext (registration, lookup, listing and locking
/// live there). Downstream code registers additional instruments under new
/// names without touching sim — bsldsim --instruments=... and SweepRunner
/// grids pick them up automatically.
#pragma once

#include "power/power_model.hpp"
#include "power/time_model.hpp"
#include "sim/instruments.hpp"
#include "util/registry.hpp"
#include "util/sampler.hpp"

namespace bsld::sim {

/// Per-run context handed to instrument factories: the platform models of
/// the run being instrumented (both outlive the instrument), plus the
/// run's time-series sampling policy (RunSpec `sample.*`; the default
/// plan retains every point).
struct InstrumentContext {
  const power::PowerModel& power_model;
  const power::BetaTimeModel& time_model;
  util::SamplePlan sample{};
};

/// Name -> factory resolution for instruments.
class InstrumentRegistry
    : public util::Registry<Instrument, const InstrumentContext&> {
 public:
  InstrumentRegistry() : Registry("InstrumentRegistry", "instrument") {}

  /// The process-wide registry, pre-loaded with the built-ins: "jobs",
  /// "aggregates", "energy", "wait-trace", "utilization", "pm-trace".
  static InstrumentRegistry& global();
};

}  // namespace bsld::sim
