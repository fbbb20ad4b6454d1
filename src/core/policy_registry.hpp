/// \file policy_registry.hpp
/// \brief String-keyed construction of scheduling policies and frequency
/// assigners — the one way to build a policy, open to downstream names.
///
/// Mirrors cluster::make_selector: a PolicySpec names a policy ("easy",
/// "fcfs", "conservative", "easy+raise") and an assigner ("ftop", "bsld",
/// or auto-derived from the DVFS config) and carries their tunables; the
/// PolicyRegistry resolves names to factories. Downstream code can register
/// additional policies/assigners under new names without touching core —
/// every entry point that consumes a report::RunSpec picks them up
/// automatically.
///
/// Registration must happen before experiment grids start executing (the
/// registry is read concurrently by sweep worker threads; a shared mutex
/// guards registration against lookup races).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_raise.hpp"
#include "core/frequency.hpp"
#include "util/config.hpp"
#include "util/thread_annotations.hpp"

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

/// Name -> factory resolution for policies and frequency assigners.
class PolicyRegistry {
 public:
  using PolicyFactory =
      std::function<std::unique_ptr<SchedulingPolicy>(const PolicySpec&)>;
  using AssignerFactory =
      std::function<std::unique_ptr<FrequencyAssigner>(const PolicySpec&)>;

  /// The process-wide registry, pre-loaded with the built-ins.
  static PolicyRegistry& global();

  /// Registers a policy factory. Throws bsld::Error on a duplicate name.
  void add_policy(const std::string& name, PolicyFactory factory);

  /// Same, with a one-line description shown by `bsldsim --list-policies`.
  void add_policy(const std::string& name, std::string description,
                  PolicyFactory factory);

  /// Registers an assigner factory. Throws bsld::Error on a duplicate name.
  void add_assigner(const std::string& name, AssignerFactory factory);

  /// Same, with a one-line description shown by `bsldsim --list-policies`.
  void add_assigner(const std::string& name, std::string description,
                    AssignerFactory factory);

  [[nodiscard]] bool has_policy(const std::string& name) const;
  [[nodiscard]] bool has_assigner(const std::string& name) const;

  /// Registered names in sorted order (for error messages and --help).
  [[nodiscard]] std::vector<std::string> policy_names() const;
  [[nodiscard]] std::vector<std::string> assigner_names() const;

  /// (name, description) pairs in sorted order; descriptions registered
  /// without one are empty.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  policy_entries() const;
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  assigner_entries() const;

  /// Builds the policy `spec` describes (via resolved_name()). Throws
  /// bsld::Error on unknown names, listing what is registered.
  [[nodiscard]] std::unique_ptr<SchedulingPolicy> make(
      const PolicySpec& spec) const;

  /// Builds the frequency assigner `spec` describes (via
  /// resolved_assigner()). Throws bsld::Error on unknown names.
  [[nodiscard]] std::unique_ptr<FrequencyAssigner> make_assigner(
      const PolicySpec& spec) const;

 private:
  struct PolicyEntry {
    std::string description;
    PolicyFactory factory;
  };
  struct AssignerEntry {
    std::string description;
    AssignerFactory factory;
  };

  mutable util::SharedMutex mutex_;
  std::map<std::string, PolicyEntry> policies_ BSLD_GUARDED_BY(mutex_);
  std::map<std::string, AssignerEntry> assigners_ BSLD_GUARDED_BY(mutex_);
};

/// Reads a PolicySpec from `policy.*` config keys (see policy_to_config).
/// Validates the policy name against the global registry.
PolicySpec policy_from_config(const util::Config& config);

/// Writes the canonical `policy.*` keys: name and selector always, DVFS
/// keys only when configured, raise keys only when configured, so
/// round-trips are byte-identical.
void policy_to_config(const PolicySpec& spec, util::Config& config);

/// Display form for labels/tables: "EASY BSLD<=2,WQ<=16", "FCFS noDVFS",
/// "EASY+raise>16 BSLD<=2,WQ<=NO", ...
std::string policy_label(const PolicySpec& spec);

}  // namespace bsld::core
