/// \file policy_registry.hpp
/// \brief String-keyed construction of scheduling policies and frequency
/// assigners — the one way to build a policy, open to downstream names.
///
/// A PolicySpec names a policy ("easy", "fcfs", "conservative",
/// "easy+raise"), a resource selector (resolved by cluster::make_selector)
/// and an assigner ("ftop", "bsld", or auto-derived from the DVFS config)
/// and carries their tunables. PolicyRegistry holds one util::Registry per
/// name space (registration, lookup, listing and locking live there).
/// Downstream code can register additional policies/assigners under new
/// names without touching core — every entry point that consumes a
/// report::RunSpec picks them up automatically.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/dynamic_raise.hpp"
#include "core/frequency.hpp"
#include "util/config.hpp"
#include "util/registry.hpp"

namespace bsld::core {

/// Declarative description of a fully-configured scheduling policy.
struct PolicySpec {
  /// Registry key: "easy", "fcfs", "conservative", "easy+raise", or any
  /// downstream-registered name.
  std::string name = "easy";
  /// Resource selector, resolved by cluster::make_selector.
  std::string selector = "FirstFit";
  /// Frequency assigner registry key; empty = auto ("bsld" when `dvfs`
  /// holds a config, "ftop" otherwise).
  std::string assigner;
  std::optional<DvfsConfig> dvfs;          ///< nullopt = no-DVFS baseline.
  std::optional<DynamicRaiseConfig> raise; ///< Dynamic-raise extension.

  /// The registry key actually looked up: "easy" with a raise config set
  /// resolves to "easy+raise", everything else resolves to `name`.
  [[nodiscard]] std::string resolved_name() const;

  /// The assigner key actually looked up (applies the auto rule).
  [[nodiscard]] std::string resolved_assigner() const;

  friend bool operator==(const PolicySpec&, const PolicySpec&) = default;
};

/// Name -> factory resolution for policies and frequency assigners: two
/// util::Registry instances over the PolicySpec.
class PolicyRegistry {
 public:
  using Policies = util::Registry<SchedulingPolicy, const PolicySpec&>;
  using Assigners = util::Registry<FrequencyAssigner, const PolicySpec&>;

  /// The process-wide registry, pre-loaded with the built-ins.
  static PolicyRegistry& global();

  /// Policy factories, keyed by PolicySpec::resolved_name().
  [[nodiscard]] Policies& policies() { return policies_; }
  [[nodiscard]] const Policies& policies() const { return policies_; }

  /// Frequency-assigner factories, keyed by PolicySpec::resolved_assigner().
  [[nodiscard]] Assigners& assigners() { return assigners_; }
  [[nodiscard]] const Assigners& assigners() const { return assigners_; }

  /// Builds the policy `spec` describes (via resolved_name()). Throws
  /// bsld::Error on unknown names, listing what is registered.
  [[nodiscard]] std::unique_ptr<SchedulingPolicy> make(
      const PolicySpec& spec) const;

  /// Builds the frequency assigner `spec` describes (via
  /// resolved_assigner()). Throws bsld::Error on unknown names.
  [[nodiscard]] std::unique_ptr<FrequencyAssigner> make_assigner(
      const PolicySpec& spec) const;

 private:
  Policies policies_{"PolicyRegistry", "policy"};
  Assigners assigners_{"PolicyRegistry", "assigner"};
};

/// Reads a PolicySpec from `policy.*` config keys (see policy_to_config).
/// Builds the policy once through the global registry, so a spec that
/// could not run is rejected here: unknown policy, assigner or selector
/// names, `bsld` without `policy.dvfs`, `easy+raise` without
/// `policy.raise.*`.
PolicySpec policy_from_config(const util::Config& config);

/// Writes the canonical `policy.*` keys: name and selector always, DVFS
/// keys only when configured, raise keys only when configured, so
/// round-trips are byte-identical.
void policy_to_config(const PolicySpec& spec, util::Config& config);

/// Display form for labels/tables: "EASY BSLD<=2,WQ<=16", "FCFS noDVFS",
/// "EASY+raise>16 BSLD<=2,WQ<=NO", ...
std::string policy_label(const PolicySpec& spec);

}  // namespace bsld::core
