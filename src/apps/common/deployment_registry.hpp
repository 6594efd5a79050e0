// Deployment registry: one catalogue of every datapath deployment flavour
// the experiments can run (liteflow / ccp-interval / char-dev / netlink /
// pure-kernel-adaptive / frozen baselines).
//
// Each app (cc / sched / lb) keeps its enum as the typed config key, but the
// display label and the stack-builder function are registered here exactly
// once per deployment instead of living in parallel switch statements.  The
// to_string() overloads and the experiment setup paths all resolve through
// this registry, so adding a deployment is one register_deployment() call.
//
// Builders are stored type-erased (std::any) because each app's build
// context differs; the typed accessor builder_as<Fn>() recovers the exact
// std::function an app registered.  Registration happens from namespace-
// scope registrar objects in each app's translation unit — lookups all run
// after main() starts, so static-init order is not a concern.
#pragma once

#include <any>
#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace lf::apps {

enum class app_kind { cc, sched, lb };

std::string_view to_string(app_kind app) noexcept;

struct deployment_info {
  app_kind app = app_kind::cc;
  int value = 0;       ///< the app enum value, cast to int
  std::string label;   ///< display name ("LF-Aurora", "char-FFNN", ...)
};

class deployment_registry {
 public:
  static deployment_registry& instance();

  /// Register (or re-register) one deployment.  `builder` is optional and
  /// app-typed; pass a std::function matching what the app's setup expects.
  void add(app_kind app, int value, std::string label, std::any builder = {});

  /// Display label; "?" if the deployment was never registered.
  std::string_view label(app_kind app, int value) const noexcept;

  /// Type-erased builder; nullptr if absent.
  const std::any* builder(app_kind app, int value) const noexcept;

  /// Typed builder access: returns nullptr if the deployment is unknown or
  /// was registered with a different builder type.
  template <typename Fn>
  const Fn* builder_as(app_kind app, int value) const noexcept {
    const std::any* b = builder(app, value);
    return b ? std::any_cast<Fn>(b) : nullptr;
  }

  /// All deployments of one app, in registration order.
  std::vector<deployment_info> deployments(app_kind app) const;

  std::size_t size() const noexcept;

 private:
  struct entry {
    int value;
    std::string label;
    std::any builder;
  };

  entry* find(app_kind app, int value) noexcept;
  const entry* find(app_kind app, int value) const noexcept;

  std::array<std::vector<entry>, 3> apps_;
};

/// Convenience for the app registrars.
template <typename Enum, typename Builder>
void register_deployment(app_kind app, Enum value, std::string label,
                         Builder builder) {
  deployment_registry::instance().add(app, static_cast<int>(value),
                                      std::move(label),
                                      std::any{std::move(builder)});
}

template <typename Enum>
void register_deployment(app_kind app, Enum value, std::string label) {
  deployment_registry::instance().add(app, static_cast<int>(value),
                                      std::move(label));
}

/// Label lookup used by the per-app to_string() overloads.
template <typename Enum>
std::string_view deployment_label(app_kind app, Enum value) noexcept {
  return deployment_registry::instance().label(app, static_cast<int>(value));
}

}  // namespace lf::apps
