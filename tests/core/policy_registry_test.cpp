#include "core/policy_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/easy.hpp"
#include "util/error.hpp"

namespace bsld::core {
namespace {

TEST(PolicySpecTest, ResolvedNames) {
  PolicySpec spec;
  EXPECT_EQ(spec.resolved_name(), "easy");
  EXPECT_EQ(spec.resolved_assigner(), "ftop");

  spec.dvfs = DvfsConfig{};
  EXPECT_EQ(spec.resolved_assigner(), "bsld");
  spec.assigner = "ftop";  // explicit override wins
  EXPECT_EQ(spec.resolved_assigner(), "ftop");

  spec.raise = DynamicRaiseConfig{};
  EXPECT_EQ(spec.resolved_name(), "easy+raise");
  spec.name = "fcfs";  // raise only upgrades "easy"
  EXPECT_EQ(spec.resolved_name(), "fcfs");
}

TEST(PolicyRegistryTest, BuiltinsAreRegistered) {
  const std::vector<std::string> policies =
      PolicyRegistry::global().policies().names();
  for (const char* name : {"easy", "fcfs", "conservative", "easy+raise"}) {
    EXPECT_TRUE(std::find(policies.begin(), policies.end(), name) !=
                policies.end())
        << name;
  }
  EXPECT_TRUE(PolicyRegistry::global().assigners().has("ftop"));
  EXPECT_TRUE(PolicyRegistry::global().assigners().has("bsld"));
}

TEST(PolicyRegistryTest, MakesEveryBuiltin) {
  for (const std::string& name : PolicyRegistry::global().policies().names()) {
    PolicySpec spec;
    spec.name = name;
    spec.dvfs = DvfsConfig{};
    if (name == "easy+raise") spec.raise = DynamicRaiseConfig{};
    const auto policy = PolicyRegistry::global().make(spec);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->queue_size(), 0u) << name;
    EXPECT_FALSE(policy->name().empty()) << name;
  }
}

TEST(PolicyRegistryTest, UnknownPolicyListsRegisteredNames) {
  PolicySpec spec;
  spec.name = "round-robin";
  try {
    (void)PolicyRegistry::global().make(spec);
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("round-robin"), std::string::npos);
    EXPECT_NE(what.find("easy"), std::string::npos);
    EXPECT_NE(what.find("conservative"), std::string::npos);
  }
}

TEST(PolicyRegistryTest, UnknownAssignerThrows) {
  PolicySpec spec;
  spec.assigner = "oracle";
  EXPECT_THROW((void)PolicyRegistry::global().make_assigner(spec), Error);
}

TEST(PolicyRegistryTest, BsldAssignerRequiresDvfsConfig) {
  PolicySpec spec;
  spec.assigner = "bsld";  // forced, but no DVFS config provided
  EXPECT_THROW((void)PolicyRegistry::global().make_assigner(spec), Error);
}

TEST(PolicyRegistryTest, RaisePolicyRequiresRaiseConfig) {
  PolicySpec spec;
  spec.name = "easy+raise";
  EXPECT_THROW((void)PolicyRegistry::global().make(spec), Error);
}

TEST(PolicyRegistryTest, DuplicateRegistrationThrows) {
  EXPECT_THROW(PolicyRegistry::global().policies().add(
                   "easy", "", [](const PolicySpec&) {
                     return std::unique_ptr<SchedulingPolicy>();
                   }),
               Error);
}

TEST(PolicyRegistryTest, DownstreamPolicyPlugsIn) {
  // The open-world seam: register a policy under a new name and construct
  // it purely by name, as a serialized RunSpec would.
  static bool registered = false;
  if (!registered) {
    registered = true;
    PolicyRegistry::global().policies().add(
        "test-easy-clone", "", [](const PolicySpec& spec) {
          return std::make_unique<EasyBackfilling>(
              cluster::make_selector(spec.selector),
              PolicyRegistry::global().make_assigner(spec));
        });
  }
  PolicySpec spec;
  spec.name = "test-easy-clone";
  const auto policy = PolicyRegistry::global().make(spec);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->name(),
            PolicyRegistry::global().make(PolicySpec{})->name());
}

TEST(PolicyConfigTest, RoundTripsDvfsAndRaise) {
  PolicySpec spec;
  spec.name = "easy";
  spec.selector = "LastFit";
  DvfsConfig dvfs;
  dvfs.bsld_threshold = 1.5;
  dvfs.wq_threshold = 4;
  dvfs.wq_counts_self = true;
  spec.dvfs = dvfs;
  DynamicRaiseConfig raise;
  raise.queue_limit = 8;
  raise.one_step = true;
  spec.raise = raise;

  util::Config config;
  policy_to_config(spec, config);
  const PolicySpec parsed = policy_from_config(config);
  EXPECT_EQ(parsed, spec);

  util::Config again;
  policy_to_config(parsed, again);
  EXPECT_EQ(again.to_string(), config.to_string());
}

TEST(PolicyConfigTest, WqNoLimitSerializesAsNO) {
  PolicySpec spec;
  DvfsConfig dvfs;
  dvfs.wq_threshold = std::nullopt;
  spec.dvfs = dvfs;
  util::Config config;
  policy_to_config(spec, config);
  EXPECT_EQ(config.get_string("policy.wq_threshold", ""), "NO");
  EXPECT_FALSE(policy_from_config(config).dvfs->wq_threshold.has_value());
}

TEST(PolicyConfigTest, UnknownNameRejectedAtParse) {
  util::Config config;
  config.set("policy.name", "round-robin");
  EXPECT_THROW((void)policy_from_config(config), Error);
}

TEST(PolicyLabelTest, DisplayForms) {
  PolicySpec spec;
  EXPECT_EQ(policy_label(spec), "EASY noDVFS");
  spec.name = "conservative";
  DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 16;
  spec.dvfs = dvfs;
  EXPECT_EQ(policy_label(spec), "CONS BSLD<=2,WQ<=16");
}

TEST(PolicyLabelTest, RaiseNameWithoutRaiseConfigIsSafe) {
  // A parsed config can name "easy+raise" without a raise block (run_one
  // rejects it later); label() must not dereference the empty optional.
  PolicySpec spec;
  spec.name = "easy+raise";
  EXPECT_EQ(policy_label(spec), "EASY+raise noDVFS");
}

}  // namespace
}  // namespace bsld::core
