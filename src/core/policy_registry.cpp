#include "core/policy_registry.hpp"

#include <sstream>

#include "core/conservative.hpp"
#include "core/easy.hpp"
#include "core/fcfs.hpp"
#include "util/error.hpp"

namespace bsld::core {

namespace {

std::unique_ptr<cluster::ResourceSelector> selector_for(
    const PolicySpec& spec) {
  return cluster::make_selector(spec.selector);
}

void register_builtins(PolicyRegistry& registry) {
  registry.assigners().add("ftop",
                           "every job starts at the top gear (no DVFS)",
                           [](const PolicySpec&) {
                             return std::make_unique<TopFrequency>();
                           });
  registry.assigners().add(
      "bsld", "BSLD-threshold gear selection (the paper's policy)",
      [](const PolicySpec& spec) {
        BSLD_REQUIRE(spec.dvfs.has_value(),
                     "PolicyRegistry: assigner `bsld` needs a DVFS config");
        return std::make_unique<BsldThresholdAssigner>(*spec.dvfs);
      });

  registry.policies().add(
      "easy", "aggressive EASY backfilling (the paper's baseline scheduler)",
      [&registry](const PolicySpec& spec) {
        return std::make_unique<EasyBackfilling>(selector_for(spec),
                                                 registry.make_assigner(spec));
      });
  registry.policies().add("fcfs", "first-come first-served, no backfilling",
                          [&registry](const PolicySpec& spec) {
                            return std::make_unique<Fcfs>(
                                selector_for(spec),
                                registry.make_assigner(spec));
                          });
  registry.policies().add(
      "conservative",
      "conservative backfilling: every queued job holds a reservation",
      [&registry](const PolicySpec& spec) {
        return std::make_unique<ConservativeBackfilling>(
            selector_for(spec), registry.make_assigner(spec));
      });
  registry.policies().add(
      "easy+raise",
      "EASY plus dynamic frequency raise when the queue passes "
      "policy.raise.queue_limit",
      [&registry](const PolicySpec& spec) {
        BSLD_REQUIRE(spec.raise.has_value(),
                     "PolicyRegistry: policy `easy+raise` needs a raise "
                     "config");
        return std::make_unique<DynamicRaiseEasy>(
            selector_for(spec), registry.make_assigner(spec), *spec.raise);
      });
}

}  // namespace

std::string PolicySpec::resolved_name() const {
  if (raise && name == "easy") return "easy+raise";
  return name;
}

std::string PolicySpec::resolved_assigner() const {
  if (!assigner.empty()) return assigner;
  return dvfs ? "bsld" : "ftop";
}

PolicyRegistry& PolicyRegistry::global() {
  static PolicyRegistry* registry = [] {
    // bsld-lint: allow(new-delete): leaked singleton, outlives static dtors
    auto* r = new PolicyRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

std::unique_ptr<SchedulingPolicy> PolicyRegistry::make(
    const PolicySpec& spec) const {
  return policies_.make(spec.resolved_name(), spec);
}

std::unique_ptr<FrequencyAssigner> PolicyRegistry::make_assigner(
    const PolicySpec& spec) const {
  return assigners_.make(spec.resolved_assigner(), spec);
}

PolicySpec policy_from_config(const util::Config& config) {
  PolicySpec spec;
  spec.name = config.get_string("policy.name", spec.name);
  spec.selector = config.get_string("policy.selector", spec.selector);
  spec.assigner = config.get_string("policy.assigner", "");
  if (config.get_bool("policy.dvfs", false)) {
    DvfsConfig dvfs;
    dvfs.bsld_threshold =
        config.get_double("policy.bsld_threshold", dvfs.bsld_threshold);
    const std::string wq = config.get_string("policy.wq_threshold", "NO");
    if (wq == "NO") {
      dvfs.wq_threshold = std::nullopt;
    } else {
      dvfs.wq_threshold = config.get_int("policy.wq_threshold", 0);
    }
    dvfs.bsld_floor = static_cast<Time>(
        config.get_int("policy.bsld_floor", dvfs.bsld_floor));
    dvfs.wq_counts_self =
        config.get_bool("policy.wq_counts_self", dvfs.wq_counts_self);
    dvfs.backfill_requires_bsld_at_top =
        config.get_bool("policy.backfill_requires_bsld_at_top",
                        dvfs.backfill_requires_bsld_at_top);
    spec.dvfs = dvfs;
  }
  if (config.contains("policy.raise.queue_limit")) {
    DynamicRaiseConfig raise;
    raise.queue_limit =
        config.get_int("policy.raise.queue_limit", raise.queue_limit);
    raise.one_step = config.get_bool("policy.raise.one_step", raise.one_step);
    spec.raise = raise;
  }
  (void)PolicyRegistry::global().make(spec);
  return spec;
}

void policy_to_config(const PolicySpec& spec, util::Config& config) {
  config.set("policy.name", spec.name);
  config.set("policy.selector", spec.selector);
  if (!spec.assigner.empty()) config.set("policy.assigner", spec.assigner);
  config.set("policy.dvfs", spec.dvfs ? "true" : "false");
  if (spec.dvfs) {
    config.set("policy.bsld_threshold",
               util::config_double(spec.dvfs->bsld_threshold));
    config.set("policy.wq_threshold",
               spec.dvfs->wq_threshold
                   ? std::to_string(*spec.dvfs->wq_threshold)
                   : std::string("NO"));
    config.set("policy.bsld_floor", std::to_string(spec.dvfs->bsld_floor));
    config.set("policy.wq_counts_self",
               spec.dvfs->wq_counts_self ? "true" : "false");
    config.set("policy.backfill_requires_bsld_at_top",
               spec.dvfs->backfill_requires_bsld_at_top ? "true" : "false");
  }
  if (spec.raise) {
    config.set("policy.raise.queue_limit",
               std::to_string(spec.raise->queue_limit));
    config.set("policy.raise.one_step",
               spec.raise->one_step ? "true" : "false");
  }
}

std::string policy_label(const PolicySpec& spec) {
  std::ostringstream os;
  const std::string name = spec.resolved_name();
  if (name == "easy") os << "EASY";
  else if (name == "fcfs") os << "FCFS";
  else if (name == "conservative") os << "CONS";
  else if (name == "easy+raise") {
    os << "EASY+raise";
    if (spec.raise) os << '>' << spec.raise->queue_limit;
  }
  else os << name;
  if (spec.dvfs) {
    os << " BSLD<=" << spec.dvfs->bsld_threshold << ",WQ<=";
    if (spec.dvfs->wq_threshold) os << *spec.dvfs->wq_threshold;
    else os << "NO";
  } else {
    os << " noDVFS";
  }
  return os.str();
}

}  // namespace bsld::core
