#include "pm/registry.hpp"

#include "pm/cap.hpp"
#include "pm/setpoint.hpp"
#include "pm/sleep.hpp"

namespace bsld::pm {

namespace {

constexpr Time kDefaultIntervalS = 300;
constexpr double kDefaultGain = 0.5;

/// `pm=none`: a real manager whose hooks all default to no-ops, so the
/// parity suite proves the hook plumbing itself is inert.
class NoopPowerManager final : public PowerManager {
 public:
  [[nodiscard]] const char* name() const override { return "none"; }
};

void register_builtins(PowerManagerRegistry& registry) {
  registry.add("none",
               "no power management (the default; bit-identical to the "
               "paper's baseline)",
               [](const PmSpec&, const power::PowerModel&) {
                 return std::make_unique<NoopPowerManager>();
               });
  registry.add("cap-uniform",
               "cluster power cap (pm.cap_watts): throttle every running "
               "job to one uniform gear level that fits",
               [](const PmSpec& spec, const power::PowerModel& model) {
                 return std::make_unique<CapManager>(
                     model, *spec.cap_watts, CapManager::Share::kUniform);
               });
  registry.add("cap-proportional",
               "cluster power cap (pm.cap_watts): split the budget in "
               "proportion to demand, then redistribute slack",
               [](const PmSpec& spec, const power::PowerModel& model) {
                 return std::make_unique<CapManager>(
                     model, *spec.cap_watts, CapManager::Share::kProportional);
               });
  registry.add("sleep",
               "idle-CPU C-states (power.sleep.* ladder or defaults): "
               "reduced idle power, wake latency charged to allocations",
               [](const PmSpec&, const power::PowerModel& model) {
                 return std::make_unique<SleepManager>(model);
               });
  registry.add("setpoint",
               "closed-loop controller: drive measured cluster power to "
               "pm.setpoint_watts by moving the cap every pm.interval_s",
               [](const PmSpec& spec, const power::PowerModel& model) {
                 return std::make_unique<SetpointController>(
                     model, *spec.setpoint_watts,
                     spec.cap_watts.value_or(*spec.setpoint_watts),
                     spec.interval_s.value_or(kDefaultIntervalS),
                     spec.gain.value_or(kDefaultGain));
               });
}

}  // namespace

PowerManagerRegistry& PowerManagerRegistry::global() {
  static PowerManagerRegistry* registry = [] {
    // bsld-lint: allow(new-delete): leaked singleton, outlives static dtors
    auto* r = new PowerManagerRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

std::unique_ptr<PowerManager> PowerManagerRegistry::make(
    const PmSpec& spec, const power::PowerModel& model) const {
  validate(spec);
  return Registry::make(spec.name, spec, model);
}

}  // namespace bsld::pm
