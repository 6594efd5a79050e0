// Reporting side of the datapath tracer (util/trace.hpp): merge the
// per-component rings and export
//  (a) Chrome/Perfetto trace-event JSON — load TRACE_*.json in
//      ui.perfetto.dev or chrome://tracing.  CPU task spans become B/E
//      pairs (they are sequential per component, the FIFO CPU guarantees
//      it); inference spans become X complete events because queries from
//      different flows overlap while queued on the CPU; everything else is
//      an "i" instant with typed args.  pid 0 is the simulated machine,
//      tid is the component id, named via "M" thread_name metadata.
//  (b) derived span statistics (per-phase exact count and mean plus a log2
//      histogram, lock hold vs. wait) fed back into the metrics registry so
//      TRACE-derived numbers land in the same telemetry scalar map as
//      everything else.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/latency_histogram.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace lf::trace {

/// Perfetto label for a kernelsim task category id.  Hardcoded copies of
/// kernelsim::to_string(task_category) — util sits below kernelsim in the
/// layer order, so the labels live here and a unit test pins them to the
/// kernelsim names.  Out-of-range ids label as "other".
std::string_view task_category_label(std::uint64_t category) noexcept;

/// A matched begin/end pair from the merged stream.  begin/end are in the
/// source ring's raw time units (sim seconds or wall ns); begin_us/end_us
/// are normalized to exported microseconds, which is what duration math
/// must use when rings of different time domains are mixed.
struct span {
  double begin = 0.0;  ///< raw ring-domain units (sim seconds or wall ns)
  double end = 0.0;
  double begin_us = 0.0;  ///< exported-microsecond timestamps
  double end_us = 0.0;
  time_domain domain = time_domain::sim_seconds;
  std::uint32_t component = 0;
  event_type open{};     ///< inference_begin or task_begin
  std::uint64_t a = 0;   ///< opening event's a (flow id / task category)
  std::uint64_t b = 0;   ///< opening event's b (model id / cost ns)
};

/// FIFO-match *_begin/*_end pairs keyed by (component, span kind, a).
/// Unmatched events — begins still open at the end of the run, ends whose
/// begin was overwritten in the ring — are dropped, which is what keeps
/// the exported B/E stream balanced by construction.
std::vector<span> derive_spans(const std::vector<merged_event>& events);

/// One derived latency: the exact count and mean of the observed values
/// (in the unit the stat's name carries) and their distribution in
/// nanoseconds.
struct span_stat {
  double ns_per_unit = 1.0;  ///< converts the stat's unit to nanoseconds
  metrics::counter count{};
  metrics::gauge mean{};            ///< exact: sum / count
  metrics::latency_histogram ns{};  ///< log2 buckets, for the flight report
  double sum = 0.0;

  void observe(double v) noexcept;
};

/// Latency decomposition derived from a trace.
struct span_stats {
  span_stat inference_us{.ns_per_unit = 1e3};
  span_stat task_us{.ns_per_unit = 1e3};
  span_stat lock_hold_ns;
  span_stat lock_wait_ns;
};

void derive_span_stats(const collector& col, span_stats& out);

/// Bind each stat's count and mean under "<prefix>.span.<stat>.count" and
/// "....mean" so registry.scalars() flattens them into the run telemetry.
void register_span_stats(span_stats& stats, metrics::registry& reg,
                         const std::string& prefix);

/// The full Chrome trace-event document ("traceEvents" array plus a
/// "liteflow" block recording emitted/overwritten totals per component).
std::string perfetto_json(const collector& col);

/// Write <prefix>_<label>.json (bench::artifact_path) through
/// bench::write_artifact.  The default prefix is "TRACE"; the rt flight
/// recorder dumps with "BLACKBOX" through the same exporter.  Returns the
/// path written, or an empty string after a stderr diagnostic.
std::string write_trace(const collector& col, std::string_view label,
                        std::string_view prefix = "TRACE");

}  // namespace lf::trace
