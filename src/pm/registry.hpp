/// \file registry.hpp
/// \brief String-keyed construction of power managers.
///
/// A PmSpec names a manager family; PowerManagerRegistry is a
/// util::Registry over (spec, power model) that resolves the name to a
/// factory (registration, lookup, listing and locking live there) and
/// validates the spec before building. Downstream code can register new
/// families under new names without touching pm — every entry point that
/// consumes a report::RunSpec picks them up automatically.
#pragma once

#include <memory>

#include "pm/power_manager.hpp"
#include "pm/spec.hpp"
#include "util/registry.hpp"

namespace bsld::pm {

/// Name -> factory resolution for power managers.
class PowerManagerRegistry
    : public util::Registry<PowerManager, const PmSpec&,
                            const power::PowerModel&> {
 public:
  PowerManagerRegistry() : Registry("PowerManagerRegistry", "power manager") {}

  /// The process-wide registry, pre-loaded with the built-ins: none,
  /// cap-uniform, cap-proportional, sleep, setpoint.
  static PowerManagerRegistry& global();

  /// Builds the manager `spec` describes. Validates the spec first, so a
  /// hand-built spec gets the same family-rule checks as a parsed one.
  [[nodiscard]] std::unique_ptr<PowerManager> make(
      const PmSpec& spec, const power::PowerModel& model) const;
};

}  // namespace bsld::pm
