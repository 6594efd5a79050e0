#include "apps/common/deployment_registry.hpp"

namespace lf::apps {

std::string_view to_string(app_kind app) noexcept {
  switch (app) {
    case app_kind::cc:
      return "cc";
    case app_kind::sched:
      return "sched";
    case app_kind::lb:
      return "lb";
  }
  return "?";
}

deployment_registry& deployment_registry::instance() {
  static deployment_registry reg;
  return reg;
}

deployment_registry::entry* deployment_registry::find(app_kind app,
                                                      int value) noexcept {
  for (auto& e : apps_[static_cast<std::size_t>(app)]) {
    if (e.value == value) return &e;
  }
  return nullptr;
}

const deployment_registry::entry* deployment_registry::find(
    app_kind app, int value) const noexcept {
  for (const auto& e : apps_[static_cast<std::size_t>(app)]) {
    if (e.value == value) return &e;
  }
  return nullptr;
}

void deployment_registry::add(app_kind app, int value, std::string label,
                              std::any builder) {
  if (entry* e = find(app, value)) {
    e->label = std::move(label);
    e->builder = std::move(builder);
    return;
  }
  apps_[static_cast<std::size_t>(app)].push_back(
      entry{value, std::move(label), std::move(builder)});
}

std::string_view deployment_registry::label(app_kind app,
                                            int value) const noexcept {
  const entry* e = find(app, value);
  return e ? std::string_view{e->label} : std::string_view{"?"};
}

const std::any* deployment_registry::builder(app_kind app,
                                             int value) const noexcept {
  const entry* e = find(app, value);
  return e && e->builder.has_value() ? &e->builder : nullptr;
}

std::vector<deployment_info> deployment_registry::deployments(
    app_kind app) const {
  std::vector<deployment_info> out;
  for (const auto& e : apps_[static_cast<std::size_t>(app)]) {
    out.push_back(deployment_info{app, e.value, e.label});
  }
  return out;
}

std::size_t deployment_registry::size() const noexcept {
  std::size_t n = 0;
  for (const auto& v : apps_) n += v.size();
  return n;
}

}  // namespace lf::apps
