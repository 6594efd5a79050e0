#include "rt/flight_recorder.hpp"

#include "util/trace_report.hpp"

namespace lf::rt {

flight_recorder::flight_recorder(const telemetry_config& cfg,
                                 std::size_t max_workers)
    : min_dump_interval_ns_{cfg.blackbox_dump_interval_ns},
      max_dumps_{cfg.blackbox_max_dumps} {
  if (cfg.blackbox_events == 0) return;
  route_mask_ = (std::uint64_t{1} << cfg.blackbox_route_shift) - 1;
  control_.set_domain(trace::time_domain::wall_ns);
  control_.enable(cfg.blackbox_events);
  for (std::size_t i = 0; i < max_workers; ++i) {
    trace::ring& r = workers_.emplace_back("rt.worker" + std::to_string(i));
    r.set_domain(trace::time_domain::wall_ns);
    r.enable(cfg.blackbox_events);
  }
}

std::string flight_recorder::dump(std::string_view label) {
  // A disabled collector attaches the live rings as they are (it neither
  // renames nor re-enables them), so the dump reads them in place.
  trace::collector col;
  col.attach(control_);
  for (trace::ring& r : workers_) col.attach(r);
  return trace::write_trace(col, label, "BLACKBOX");
}

std::string flight_recorder::try_dump(std::string_view prefix) {
  std::uint64_t seq = 0;
  {
    // Admission under a lock: the interval check and the sequence claim
    // must be one step or two racing watchdog ticks could both pass the
    // interval test.  Slow path only — dumps happen at most once per
    // min_dump_interval_ns_.
    std::lock_guard<std::mutex> g{dump_mu_};
    const std::uint64_t now = metrics::wall_ns();
    const std::uint64_t written =
        dumps_written_.load(std::memory_order_relaxed);
    const bool capped = max_dumps_ != 0 && written >= max_dumps_;
    const bool too_soon = min_dump_interval_ns_ != 0 && written != 0 &&
                          now - last_dump_ns_ < min_dump_interval_ns_;
    if (capped || too_soon) {
      dumps_suppressed_.fetch_add(1, std::memory_order_relaxed);
      return {};
    }
    last_dump_ns_ = now;
    seq = written + 1;
    dumps_written_.store(seq, std::memory_order_relaxed);
  }
  return dump(std::string{prefix} + "_" + std::to_string(seq));
}

}  // namespace lf::rt
