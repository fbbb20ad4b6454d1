/// \file registry.hpp
/// \brief Name -> factory resolution: the one registry behind every
/// string-keyed construction in the tree (policies and frequency assigners,
/// power managers, instruments).
///
/// A serialized report::RunSpec names what it runs; a Registry maps each
/// name to a one-line description (shown by the `bsldsim --list-*` flags)
/// and a factory over the construction arguments `Args...`. Downstream code
/// registers new entries under new names without touching the module that
/// owns the registry.
///
/// Registration must happen before experiment grids start executing: the
/// registry is read concurrently by sweep worker threads, and a shared
/// mutex guards registration against lookup races. make() calls the factory
/// outside the lock, so a factory may itself look up entries (the `easy`
/// policy builds its frequency assigner that way).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace bsld::util {

template <typename Product, typename... Args>
class Registry {
 public:
  using Factory = std::function<std::unique_ptr<Product>(Args...)>;

  /// `owner` prefixes every error message ("PolicyRegistry"); `kind` names
  /// what one entry is ("policy", "power manager").
  Registry(std::string owner, std::string kind)
      : owner_(std::move(owner)), kind_(std::move(kind)) {}

  /// Registers `factory` under `name` with a one-line description (may be
  /// empty). Throws bsld::Error on an empty name, a null factory or a
  /// duplicate name.
  void add(const std::string& name, std::string description, Factory factory) {
    BSLD_REQUIRE(!name.empty(), owner_ + ": empty " + kind_ + " name");
    BSLD_REQUIRE(factory != nullptr,
                 owner_ + ": null factory for " + kind_ + " `" + name + "`");
    Entry entry{std::move(description), std::move(factory)};
    const WriterLock lock(mutex_);
    const bool inserted = entries_.try_emplace(name, std::move(entry)).second;
    BSLD_REQUIRE(inserted, owner_ + ": " + kind_ + " `" + name +
                               "` is already registered");
  }

  [[nodiscard]] bool has(const std::string& name) const {
    const ReaderLock lock(mutex_);
    return entries_.contains(name);
  }

  /// Validates that `name` is registered without constructing it: throws
  /// the same bsld::Error make() raises on an unknown name, listing the
  /// registered names.
  void require(const std::string& name) const {
    if (!has(name)) throw_unknown(name);
  }

  /// Registered names in sorted order (for error messages and --help).
  [[nodiscard]] std::vector<std::string> names() const {
    const ReaderLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, _] : entries_) out.push_back(name);
    return out;
  }

  /// (name, description) pairs in sorted order (for the --list-* flags).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> entries()
      const {
    const ReaderLock lock(mutex_);
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      out.emplace_back(name, entry.description);
    }
    return out;
  }

  /// Builds the entry named `name` from `args`. Throws bsld::Error on an
  /// unknown name (listing the registered names) and when the factory
  /// returns null.
  [[nodiscard]] std::unique_ptr<Product> make(const std::string& name,
                                              Args... args) const {
    Factory factory;
    {
      const ReaderLock lock(mutex_);
      const auto it = entries_.find(name);
      if (it != entries_.end()) factory = it->second.factory;
    }
    if (factory == nullptr) throw_unknown(name);
    std::unique_ptr<Product> product = factory(std::forward<Args>(args)...);
    BSLD_REQUIRE(product != nullptr, owner_ + ": factory for " + kind_ +
                                         " `" + name + "` returned null");
    return product;
  }

 private:
  struct Entry {
    std::string description;
    Factory factory;
  };

  [[noreturn]] void throw_unknown(const std::string& name) const {
    std::string registered;
    for (const std::string& known : names()) {
      if (!registered.empty()) registered += ", ";
      registered += known;
    }
    throw Error(owner_ + ": unknown " + kind_ + " `" + name +
                "` (registered: " + registered + ")");
  }

  const std::string owner_;
  const std::string kind_;
  mutable SharedMutex mutex_;
  std::map<std::string, Entry> entries_ BSLD_GUARDED_BY(mutex_);
};

}  // namespace bsld::util
