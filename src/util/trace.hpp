// Datapath event tracer: per-component ring buffers + a borrowing collector.
//
// The metrics spine (util/metrics.hpp) answers "how many / how much" at the
// end of a run; this answers "when, in what order, and how long apart".  The
// same kernel-datapath constraints apply to the instrumentation:
//  - Components *own* a trace::ring as a plain member.  Emission claims a
//    slot with one fetch_add and stores the event into a fixed-capacity
//    power-of-two buffer that overwrites the oldest event when full — no
//    allocation, no locking, no branching beyond the single enabled check.
//    A disabled ring (the default: capacity 0) costs exactly that one
//    branch, which bench_micro's tracer-overhead benches pin down.
//  - Rings may be written and read concurrently: the rt flight recorder
//    (rt/flight_recorder.hpp) keeps its control and per-worker rings as
//    trace::rings and dumps them while workers route.  The slot protocol is
//    documented on ring.
//  - A trace::collector is a borrowing ring index built at wiring time
//    (experiment setup), used only on the reporting path: it merges every
//    attached ring into one causally-ordered stream (sorted by timestamp,
//    ties broken by component id then per-ring emission order) for the
//    Perfetto exporter and the derived span statistics in
//    util/trace_report.hpp.
//
// Timestamps are supplied by the emitting component (rings do not know
// about the clock): simulation::now() seconds in the simulator,
// steady-clock nanoseconds in the flight recorder.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lf::trace {

/// Typed datapath events.  *_begin types open a span closed by the next
/// enum value (is_span_begin/span_end_of), everything else is a point event.
enum class event_type : std::uint8_t {
  inference_begin = 0,  ///< a = flow id, b = model (snapshot) id
  inference_end,        ///< a = flow id, b = model (snapshot) id
  task_begin,           ///< a = kernelsim task category, b = cost (ns)
  task_end,             ///< a = kernelsim task category
  snapshot_install,     ///< a = model id or version (no lock taken)
  snapshot_switch,      ///< a = new active model id, b = lock wait (ns)
  flow_cache_evict,     ///< a = flow id, b = model id
  batch_flush,          ///< a = samples in the batch, b = bytes shipped
  sync_decision,        ///< a = bit0 converged, bit1 necessary; b = min fidelity loss (1e-9 units)
  lock_acquire,         ///< a = hold (ns), b = wait (ns; 0 if uncontended)
  lock_contend,         ///< a = wait (ns); emitted only when wait > 0
  pkt_enqueue,          ///< a = flow id, b = wire bytes
  pkt_drop,             ///< a = flow id, b = wire bytes (tail or random drop)
  ecn_mark,             ///< a = flow id, b = queued bytes at mark time
  flow_complete,        ///< a = flow id, b = FCT (ns)
  alert,                ///< a = health alert kind, b = rule value (1e-9 units)
  // rt flight-recorder events (wall-clock rings).  Appended so existing
  // numeric values stay stable for stored traces.
  route_summary,        ///< a = composite flow key, b = snapshot generation
  gate_verdict,         ///< a = (model id << 1) | admitted, b = mean divergence (1e-9 units)
  zombie_push,          ///< a = demoted generation, b = switch epoch after bump
  version_reclaim,      ///< a = versions freed, b = versions still retired
  invariant_violation,  ///< a = composite flow key, b = (expected gen << 32) | observed gen
  anomaly,              ///< a = watchdog anomaly kind, b = observed value (1e-3 units)
  lifecycle_stage,      ///< a = pack_lifecycle(stage, model, version), b = stage cost (ns)
  snapshot_rollback,    ///< a = (model id << 32) | re-promoted gen, b = demoted (regressed) gen
};

inline constexpr std::size_t event_type_count = 24;

std::string_view to_string(event_type t) noexcept;

/// Control-plane pipeline stages mirrored into the rt flight recorder as
/// `lifecycle_stage` events (§3.1's freeze → quantize → translate → compile
/// → install sequence, bracketed by train and closed by remove).
enum class lifecycle_phase : std::uint8_t {
  train = 0,
  freeze,
  quantize,
  translate,
  compile,
  install,
  remove,
};

inline constexpr std::size_t lifecycle_phase_count = 7;

std::string_view to_string(lifecycle_phase p) noexcept;

/// Pack a lifecycle_stage event's `a` payload: low byte the phase, next
/// byte the logical model, the rest the snapshot version.
constexpr std::uint64_t pack_lifecycle(lifecycle_phase p, std::uint64_t model,
                                       std::uint64_t version) noexcept {
  return (version << 16) | ((model & 0xff) << 8) |
         static_cast<std::uint64_t>(p);
}

constexpr lifecycle_phase lifecycle_phase_of(std::uint64_t a) noexcept {
  return static_cast<lifecycle_phase>(a & 0xff);
}
constexpr std::uint64_t lifecycle_model_of(std::uint64_t a) noexcept {
  return (a >> 8) & 0xff;
}
constexpr std::uint64_t lifecycle_version_of(std::uint64_t a) noexcept {
  return a >> 16;
}

constexpr bool is_span_begin(event_type t) noexcept {
  return t == event_type::inference_begin || t == event_type::task_begin;
}

/// The closing type of a span opener (valid only when is_span_begin).
constexpr event_type span_end_of(event_type t) noexcept {
  return static_cast<event_type>(static_cast<std::uint8_t>(t) + 1);
}

/// The unit of event::t for one ring.  Sim components stamp seconds from
/// simulation::now(); the rt flight recorder stamps steady_clock
/// nanoseconds.  The exporter normalizes both to microseconds so mixed
/// dumps merge into one causally-ordered Perfetto stream.
enum class time_domain : std::uint8_t { sim_seconds, wall_ns };

/// event::t converted to exported microseconds under domain `d`.
constexpr double to_export_us(time_domain d, double t) noexcept {
  return d == time_domain::sim_seconds ? t * 1e6 : t * 1e-3;
}

/// One trace record, as ring::snapshot() decodes it.
struct event {
  double t = 0.0;  ///< ring time_domain units (sim seconds or wall ns)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t seq = 0;  ///< per-ring emission index
  event_type type{};
};

/// Fixed-capacity overwrite-oldest event ring owned by one component.
/// Disabled (capacity 0) until a collector attaches it or enable() is
/// called; emit() on a disabled ring is a single branch.
///
/// Any number of threads may emit() while others read snapshot().  Every
/// slot field is an atomic (plain moves on x86-64) and emit() claims its
/// slot with one relaxed fetch_add on the head.  A slot's tag, ((seq + 1) << 8) | type, works as
/// a per-slot seqlock: emit() clears it before the payload stores and
/// stores it last, and snapshot() keeps a slot only when the tag names the
/// emission it expects there and reads the same before and after the
/// payload.  A slot that is mid-rewrite, or already overwritten by a newer
/// event, is dropped rather than decoded from mixed fields.  One case
/// escapes: a writer preempted mid-slot for long enough that `capacity`
/// later emits lap it can finish its stores under the newer tag.  The rings
/// are forensic records, not transactions.
class ring {
 public:
  explicit ring(std::string name) : name_{std::move(name)} {}

  ring(const ring&) = delete;
  ring& operator=(const ring&) = delete;

  /// Allocate storage (capacity rounded up to a power of two, minimum 2).
  /// Existing events are discarded.  enable(0) disables.  Not thread-safe:
  /// call before emitters start.
  void enable(std::size_t capacity);
  bool enabled() const noexcept { return slots_ != nullptr; }

  /// Hot path: record one event.  Zero allocation; overwrites the oldest
  /// record once the ring is full; no-op (one branch) when disabled.
  void emit(double t, event_type type, std::uint64_t a = 0,
            std::uint64_t b = 0) noexcept {
    if (slots_ == nullptr) return;
    const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
    slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    s.tag.store(0, std::memory_order_relaxed);
    // Release payload stores: a reader that sees any of them also sees the
    // clear above when it re-reads the tag.
    s.t.store(t, std::memory_order_release);
    s.a.store(a, std::memory_order_release);
    s.b.store(b, std::memory_order_release);
    // seq + 1 keeps 0 as the "empty or mid-rewrite" tag.
    s.tag.store(((seq + 1) << 8) | static_cast<std::uint64_t>(type),
                std::memory_order_release);
  }

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Unit of event::t for this ring (default: simulation seconds, which
  /// keeps every existing sim component unchanged).
  time_domain domain() const noexcept { return domain_; }
  void set_domain(time_domain d) noexcept { domain_ = d; }

  std::size_t capacity() const noexcept { return slots_ ? mask_ + 1 : 0; }
  /// Events currently retained (<= capacity).
  std::size_t size() const noexcept;
  /// Total events ever emitted (monotonic, survives overwrites).
  std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  /// Events lost to overwrite-oldest.
  std::uint64_t overwritten() const noexcept { return emitted() - size(); }

  /// Not thread-safe; quiesced use only (tests, between runs).
  void clear() noexcept;

  /// Retained events, oldest first, each tagged with its emission index
  /// (reporting path; allocates).  Safe against concurrent emit().
  std::vector<event> snapshot() const;

 private:
  struct slot {
    std::atomic<double> t{0.0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint64_t> tag{0};  ///< ((seq + 1) << 8) | event_type
  };

  std::string name_;
  std::unique_ptr<slot[]> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
  time_domain domain_ = time_domain::sim_seconds;
};

struct collector_config {
  bool enabled = false;
  std::size_t ring_capacity = 4096;  ///< applied to rings on attach
};

/// Environment defaults: LF_TRACE (nonzero enables) and LF_TRACE_RING
/// (per-ring capacity, events).
collector_config config_from_env();

/// One event from the merged stream, tagged with its source ring.
struct merged_event {
  event e;
  double us = 0.0;              ///< e.t normalized to exported microseconds
  std::uint32_t component = 0;  ///< attach order, stable merge tie-break
  /// Source ring's domain.  Span durations are computed as
  /// to_export_us(domain, end.t - begin.t) — one rounding on the raw
  /// delta, not a difference of two separately-rounded timestamps.
  time_domain domain = time_domain::sim_seconds;
};

/// Borrowing name -> ring index; rings must outlive the collector.  attach()
/// enables each ring with the configured capacity when tracing is on, so
/// components constructed before wiring pay nothing until then.
class collector {
 public:
  explicit collector(collector_config config = {}) : config_{config} {}

  collector(const collector&) = delete;
  collector& operator=(const collector&) = delete;

  /// Register a ring under `name` (overrides the ring's own name) and
  /// return its component id (attach order).
  std::uint32_t attach(ring& r, std::string name);
  /// Register a ring under its own name (which attach leaves untouched, so
  /// rings other threads are emitting into can be attached).
  std::uint32_t attach(ring& r);

  bool enabled() const noexcept { return config_.enabled; }
  const collector_config& config() const noexcept { return config_; }
  std::size_t ring_count() const noexcept { return rings_.size(); }
  const ring& ring_at(std::uint32_t component) const {
    return *rings_[component];
  }
  const std::string& component_name(std::uint32_t component) const {
    return rings_[component]->name();
  }

  /// All retained events merged into causal order: sorted by normalized
  /// microsecond timestamp (so sim-second and wall-ns rings interleave
  /// correctly), equal timestamps ordered by component id, then per-ring
  /// emission order.  Wall-ns timestamps export relative to the oldest
  /// retained wall-ns event (the steady clock's epoch is arbitrary).
  std::vector<merged_event> merged() const;

  std::uint64_t total_emitted() const noexcept;
  std::uint64_t total_overwritten() const noexcept;

  /// Retained (post-overwrite) event count per event_type, indexed by the
  /// enum value.
  std::vector<std::uint64_t> counts_by_type() const;

 private:
  collector_config config_;
  std::vector<ring*> rings_;  ///< borrowed
};

}  // namespace lf::trace
