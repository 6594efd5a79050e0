#include "util/metrics.hpp"

namespace lf::metrics {

void registry::bind(std::string name, metric_kind kind, void* ptr) {
  bindings_.insert_or_assign(std::move(name), binding{kind, ptr});
}

void registry::register_counter(std::string name, counter& c) {
  bind(std::move(name), metric_kind::counter, &c);
}

void registry::register_counter(std::string name, atomic_counter& c) {
  bind(std::move(name), metric_kind::atomic_counter, &c);
}

void registry::register_gauge(std::string name, gauge& g) {
  bind(std::move(name), metric_kind::gauge, &g);
}

void registry::register_series(std::string name, time_series& s) {
  bind(std::move(name), metric_kind::series, &s);
}

void registry::unregister(std::string_view name) {
  if (auto it = bindings_.find(name); it != bindings_.end()) {
    bindings_.erase(it);
  }
}

const registry::binding* registry::find(std::string_view name,
                                        metric_kind kind) const noexcept {
  const auto it = bindings_.find(name);
  if (it == bindings_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

counter* registry::find_counter(std::string_view name) const noexcept {
  const auto* b = find(name, metric_kind::counter);
  return b ? static_cast<counter*>(b->ptr) : nullptr;
}

atomic_counter* registry::find_atomic_counter(
    std::string_view name) const noexcept {
  const auto* b = find(name, metric_kind::atomic_counter);
  return b ? static_cast<atomic_counter*>(b->ptr) : nullptr;
}

gauge* registry::find_gauge(std::string_view name) const noexcept {
  const auto* b = find(name, metric_kind::gauge);
  return b ? static_cast<gauge*>(b->ptr) : nullptr;
}

time_series* registry::find_series(std::string_view name) const noexcept {
  const auto* b = find(name, metric_kind::series);
  return b ? static_cast<time_series*>(b->ptr) : nullptr;
}

bool registry::contains(std::string_view name) const noexcept {
  return bindings_.find(name) != bindings_.end();
}

std::vector<std::pair<std::string, double>> registry::scalars() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(bindings_.size());
  for (const auto& [name, b] : bindings_) {
    switch (b.kind) {
      case metric_kind::counter:
        out.emplace_back(name, static_cast<double>(
                                   static_cast<counter*>(b.ptr)->value()));
        break;
      case metric_kind::atomic_counter:
        out.emplace_back(
            name, static_cast<double>(
                      static_cast<atomic_counter*>(b.ptr)->value()));
        break;
      case metric_kind::gauge:
        out.emplace_back(name, static_cast<gauge*>(b.ptr)->value());
        break;
      case metric_kind::series:
        break;  // series are not scalars; reported as series
    }
  }
  return out;
}

void registry::reset_all() {
  for (auto& [name, b] : bindings_) {
    switch (b.kind) {
      case metric_kind::counter:
        static_cast<counter*>(b.ptr)->reset();
        break;
      case metric_kind::atomic_counter:
        static_cast<atomic_counter*>(b.ptr)->reset();
        break;
      case metric_kind::gauge:
        static_cast<gauge*>(b.ptr)->reset();
        break;
      case metric_kind::series:
        static_cast<time_series*>(b.ptr)->clear();
        break;
    }
  }
}

}  // namespace lf::metrics
