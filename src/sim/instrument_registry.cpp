#include "sim/instrument_registry.hpp"

namespace bsld::sim {

namespace {

void register_builtins(InstrumentRegistry& registry) {
  registry.add("jobs", "per-job outcomes in trace order (id, gears, wait, "
               "BSLD)",
               [](const InstrumentContext&) {
                 return std::make_unique<JobRecorder>();
               });
  registry.add("aggregates", "run aggregates: avg BSLD/wait, "
               "reduced/boosted counts, jobs per gear, makespan",
               [](const InstrumentContext&) {
                 return std::make_unique<AggregateAccumulator>();
               });
  registry.add("energy", "energy meter over the run horizon "
               "(computational/idle/total joules, utilization)",
               [](const InstrumentContext& context) {
                 return std::make_unique<EnergyProbe>(context.power_model);
               });
  registry.add("wait-trace", "per-job waits plus wait-queue depth over "
               "time (paper Fig. 6)",
               [](const InstrumentContext& context) {
                 return std::make_unique<WaitQueueTrace>(context.sample);
               });
  registry.add("utilization", "busy cores, utilization and active power "
               "over time",
               [](const InstrumentContext& context) {
                 return std::make_unique<UtilizationTrace>(context.power_model,
                                                           context.sample);
               });
  registry.add("pm-trace", "every power-management event: cap moves, "
               "throttles, gates, sleep intervals",
               [](const InstrumentContext&) {
                 return std::make_unique<PmTrace>();
               });
}

}  // namespace

InstrumentRegistry& InstrumentRegistry::global() {
  static InstrumentRegistry* registry = [] {
    // bsld-lint: allow(new-delete): leaked singleton, outlives static dtors
    auto* r = new InstrumentRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

}  // namespace bsld::sim
