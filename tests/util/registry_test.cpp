/// \file registry_test.cpp
/// \brief util::Registry, the name -> factory map behind the policy,
/// assigner, power-manager and instrument registries: registration checks,
/// discoverable unknown-name errors, sorted listings, null products,
/// re-entrant factories and concurrent lookups.
#include "util/registry.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace bsld::util {
namespace {

struct Widget {
  explicit Widget(int size) : size(size) {}
  int size;
};

using WidgetRegistry = Registry<Widget, int>;

WidgetRegistry::Factory scaled(int factor) {
  return [factor](int size) {
    return std::make_unique<Widget>(size * factor);
  };
}

std::string error_of(const std::function<void()>& action) {
  try {
    action();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

TEST(RegistryTest, MakeBuildsTheNamedEntry) {
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("double", "twice the size", scaled(2));
  registry.add("triple", "", scaled(3));
  EXPECT_TRUE(registry.has("double"));
  EXPECT_FALSE(registry.has("quadruple"));
  EXPECT_EQ(registry.make("double", 5)->size, 10);
  EXPECT_EQ(registry.make("triple", 5)->size, 15);
  EXPECT_NO_THROW(registry.require("triple"));
}

TEST(RegistryTest, RejectsDuplicateEmptyNameAndNullFactory) {
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("double", "", scaled(2));

  const std::string duplicate =
      error_of([&] { registry.add("double", "again", scaled(4)); });
  EXPECT_NE(duplicate.find("WidgetRegistry: widget `double` is already "
                           "registered"),
            std::string::npos)
      << duplicate;
  EXPECT_EQ(registry.make("double", 1)->size, 2);  // the first one stays

  EXPECT_THROW(registry.add("", "", scaled(2)), Error);
  EXPECT_THROW(registry.add("null", "", nullptr), Error);
  EXPECT_FALSE(registry.has(""));
  EXPECT_FALSE(registry.has("null"));
  EXPECT_EQ(registry.names(), std::vector<std::string>{"double"});
}

TEST(RegistryTest, UnknownNameListsSortedRegisteredNames) {
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("zeta", "", scaled(1));
  registry.add("alpha", "", scaled(1));
  registry.add("mid", "", scaled(1));
  const std::string expected =
      "WidgetRegistry: unknown widget `beta` (registered: alpha, mid, zeta)";
  EXPECT_EQ(error_of([&] { (void)registry.make("beta", 1); }), expected);
  EXPECT_EQ(error_of([&] { registry.require("beta"); }), expected);
}

TEST(RegistryTest, UnknownNameInAnEmptyRegistry) {
  const WidgetRegistry registry("WidgetRegistry", "widget");
  EXPECT_EQ(error_of([&] { registry.require("any"); }),
            "WidgetRegistry: unknown widget `any` (registered: )");
  EXPECT_TRUE(registry.names().empty());
  EXPECT_TRUE(registry.entries().empty());
}

TEST(RegistryTest, EntriesAreSortedAndKeepDescriptions) {
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("b", "second", scaled(1));
  registry.add("c", "", scaled(1));
  registry.add("a", "first", scaled(1));
  const std::vector<std::pair<std::string, std::string>> expected{
      {"a", "first"}, {"b", "second"}, {"c", ""}};
  EXPECT_EQ(registry.entries(), expected);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(RegistryTest, NullProductRejected) {
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("broken", "", [](int) { return std::unique_ptr<Widget>(); });
  const std::string what = error_of([&] { (void)registry.make("broken", 1); });
  EXPECT_NE(what.find("WidgetRegistry: factory for widget `broken` returned "
                      "null"),
            std::string::npos)
      << what;
}

TEST(RegistryTest, FactoryMayResolveThroughItsOwnRegistry) {
  // The `easy` policy factory builds its assigner through the registry
  // that is calling it; make() must not hold its lock across the factory.
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("base", "", scaled(1));
  registry.add("nested", "", [&registry](int size) {
    const auto inner = registry.make("base", size);
    return std::make_unique<Widget>(inner->size + 1);
  });
  registry.add("registering", "", [&registry](int size) {
    if (!registry.has("late")) registry.add("late", "", scaled(7));
    return registry.make("late", size);
  });
  EXPECT_EQ(registry.make("nested", 4)->size, 5);
  EXPECT_EQ(registry.make("registering", 2)->size, 14);
  EXPECT_TRUE(registry.has("late"));
}

TEST(RegistryTest, ConcurrentLookupsAndMakes) {
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("double", "", scaled(2));
  constexpr int kThreads = 4;
  constexpr int kQueries = 200;
  std::vector<std::thread> threads;
  std::vector<long> sums(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &sums, t] {
      for (int i = 0; i < kQueries; ++i) {
        long& sum = sums[static_cast<std::size_t>(t)];
        if (registry.has("double")) sum += registry.make("double", i)->size;
        if (t == 0 && i % 20 == 0) {
          registry.add("extra-" + std::to_string(i), "", scaled(1));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const long sum : sums) EXPECT_EQ(sum, kQueries * (kQueries - 1));
  EXPECT_EQ(registry.names().size(), 1U + kQueries / 20);
}

}  // namespace
}  // namespace bsld::util
