#include "util/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace lf::trace {

std::string_view to_string(event_type t) noexcept {
  switch (t) {
    case event_type::inference_begin: return "inference_begin";
    case event_type::inference_end: return "inference_end";
    case event_type::task_begin: return "task_begin";
    case event_type::task_end: return "task_end";
    case event_type::snapshot_install: return "snapshot_install";
    case event_type::snapshot_switch: return "snapshot_switch";
    case event_type::flow_cache_evict: return "flow_cache_evict";
    case event_type::batch_flush: return "batch_flush";
    case event_type::sync_decision: return "sync_decision";
    case event_type::lock_acquire: return "lock_acquire";
    case event_type::lock_contend: return "lock_contend";
    case event_type::pkt_enqueue: return "pkt_enqueue";
    case event_type::pkt_drop: return "pkt_drop";
    case event_type::ecn_mark: return "ecn_mark";
    case event_type::flow_complete: return "flow_complete";
    case event_type::alert: return "alert";
    case event_type::route_summary: return "route_summary";
    case event_type::gate_verdict: return "gate_verdict";
    case event_type::zombie_push: return "zombie_push";
    case event_type::version_reclaim: return "version_reclaim";
    case event_type::invariant_violation: return "invariant_violation";
    case event_type::anomaly: return "anomaly";
    case event_type::lifecycle_stage: return "lifecycle_stage";
    case event_type::snapshot_rollback: return "snapshot_rollback";
  }
  return "unknown";
}

std::string_view to_string(lifecycle_phase p) noexcept {
  switch (p) {
    case lifecycle_phase::train: return "train";
    case lifecycle_phase::freeze: return "freeze";
    case lifecycle_phase::quantize: return "quantize";
    case lifecycle_phase::translate: return "translate";
    case lifecycle_phase::compile: return "compile";
    case lifecycle_phase::install: return "install";
    case lifecycle_phase::remove: return "remove";
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void ring::enable(std::size_t capacity) {
  head_.store(0, std::memory_order_relaxed);
  if (capacity == 0) {
    slots_.reset();
    mask_ = 0;
    return;
  }
  const std::size_t cap = round_up_pow2(capacity);
  slots_ = std::make_unique<slot[]>(cap);
  mask_ = cap - 1;
}

std::size_t ring::size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(emitted(), capacity()));
}

void ring::clear() noexcept {
  for (std::size_t i = 0; i < capacity(); ++i) {
    slots_[i].tag.store(0, std::memory_order_relaxed);
  }
  head_.store(0, std::memory_order_relaxed);
}

std::vector<event> ring::snapshot() const {
  std::vector<event> out;
  const std::uint64_t head = emitted();
  const std::uint64_t n = std::min<std::uint64_t>(head, capacity());
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t seq = head - n; seq != head; ++seq) {
    const slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    const std::uint64_t tag = s.tag.load(std::memory_order_acquire);
    // Claimed but not yet stored, or already overwritten by a newer event.
    if ((tag >> 8) != seq + 1) continue;
    const event e{s.t.load(std::memory_order_acquire),
                  s.a.load(std::memory_order_acquire),
                  s.b.load(std::memory_order_acquire), seq,
                  static_cast<event_type>(tag & 0xff)};
    // A tag that changed under the payload reads means the slot was
    // rewritten meanwhile: drop it rather than report a mixed record.
    if (s.tag.load(std::memory_order_relaxed) != tag) continue;
    out.push_back(e);
  }
  return out;
}

collector_config config_from_env() {
  collector_config cfg;
  if (const char* v = std::getenv("LF_TRACE")) {
    cfg.enabled = std::atoi(v) != 0;
  }
  if (const char* v = std::getenv("LF_TRACE_RING")) {
    const long cap = std::atol(v);
    if (cap > 0) cfg.ring_capacity = static_cast<std::size_t>(cap);
  }
  return cfg;
}

std::uint32_t collector::attach(ring& r, std::string name) {
  r.set_name(std::move(name));
  return attach(r);
}

std::uint32_t collector::attach(ring& r) {
  if (config_.enabled) r.enable(config_.ring_capacity);
  rings_.push_back(&r);
  return static_cast<std::uint32_t>(rings_.size() - 1);
}

std::vector<merged_event> collector::merged() const {
  std::vector<merged_event> out;
  std::size_t total = 0;
  for (const ring* r : rings_) total += r->size();
  out.reserve(total);
  // Steady-clock stamps count from an arbitrary epoch, so wall-ns events
  // export relative to the oldest of them; simulation time keeps its zero.
  double wall_origin = std::numeric_limits<double>::infinity();
  for (std::uint32_t c = 0; c < rings_.size(); ++c) {
    const ring& r = *rings_[c];
    for (const event& e : r.snapshot()) {
      out.push_back(merged_event{e, 0.0, c, r.domain()});
      if (r.domain() == time_domain::wall_ns) {
        wall_origin = std::min(wall_origin, e.t);
      }
    }
  }
  for (merged_event& m : out) {
    // Subtract in the raw domain, then convert: one rounding per timestamp.
    m.us = to_export_us(m.domain, m.domain == time_domain::wall_ns
                                      ? m.e.t - wall_origin
                                      : m.e.t);
  }
  // Per-ring runs are already in emission order, so sorting by (us,
  // component) with a stable sort preserves the per-ring seq order for
  // exact ties, giving the documented (us, component, seq) total order.
  // Sorting on the normalized microseconds (not raw e.t) is what lets a
  // wall-ns flight-recorder ring merge against sim-second rings.
  std::stable_sort(out.begin(), out.end(),
                   [](const merged_event& x, const merged_event& y) {
                     if (x.us != y.us) return x.us < y.us;
                     return x.component < y.component;
                   });
  return out;
}

std::uint64_t collector::total_emitted() const noexcept {
  std::uint64_t n = 0;
  for (const ring* r : rings_) n += r->emitted();
  return n;
}

std::uint64_t collector::total_overwritten() const noexcept {
  std::uint64_t n = 0;
  for (const ring* r : rings_) n += r->overwritten();
  return n;
}

std::vector<std::uint64_t> collector::counts_by_type() const {
  std::vector<std::uint64_t> counts(event_type_count, 0);
  for (const ring* r : rings_) {
    for (const event& e : r->snapshot()) {
      ++counts[static_cast<std::size_t>(e.type)];
    }
  }
  return counts;
}

}  // namespace lf::trace
