// Per-run HTML flight report.
//
// BENCH_*.json is for machines and TRACE_*.json needs the Perfetto UI; this
// is the human-facing artifact: one self-contained HTML file per run
// (inline CSS + inline SVG, no external assets, no JavaScript) that a CI
// job can archive and a browser can open from anywhere.  It renders
//   - time-series charts (goodput, fidelity drift) with vertical markers
//     for snapshot installs and health alerts and horizontal threshold
//     lines (the §3.3 necessity bound),
//   - tables (the adaptation monitor's snapshot lifecycle ledger, the
//     fired-alert log),
//   - latency histograms derived from trace spans.
// The renderer is deliberately generic — charts/tables/histograms in, HTML
// out — so apps fill a flight_report from run_result and stay free of
// markup.  Section ids ("summary", "goodput", ..., "latency") are stable
// anchors the report_smoke test greps for.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/latency_histogram.hpp"

namespace lf::report {

/// One plotted line.
struct series_data {
  std::string name;
  std::vector<std::pair<double, double>> points;  ///< (t seconds, value)
};

/// Vertical event marker on a chart's time axis.
struct marker {
  double t = 0.0;
  std::string label;
  bool alert = false;  ///< alert markers render distinctly from installs
};

/// Horizontal reference line (e.g. the necessity threshold).
struct threshold_line {
  double value = 0.0;
  std::string label;
};

struct chart_data {
  std::string id;  ///< section anchor (e.g. "goodput")
  std::string title;
  std::string y_label;
  std::vector<series_data> series;
  std::vector<marker> markers;
  std::vector<threshold_line> thresholds;
};

struct table_data {
  std::string id;  ///< section anchor (e.g. "lifecycle")
  std::string title;
  std::string caption;  ///< rendered under the title; may be empty
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  /// Optional CSS class per row (parallel to rows; "" for none).  Tests
  /// count rows by class (e.g. "lifecycle-update").
  std::vector<std::string> row_classes;
};

/// Pre-digested histogram: only non-empty buckets survive.
struct histogram_data {
  struct bucket {
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t count = 0;
  };
  std::string name;
  double mean = 0.0;
  std::uint64_t total = 0;
  std::vector<bucket> buckets;
};

/// Digest a log2 histogram (nanosecond buckets) shown with `mean`, which
/// callers pass because only they know it exactly.
histogram_data make_histogram_data(std::string name,
                                   const metrics::latency_snapshot& h,
                                   double mean);

struct flight_report {
  std::string title;
  /// Key/value run facts rendered in the "summary" section, in order.
  std::vector<std::pair<std::string, std::string>> summary;
  std::vector<chart_data> charts;
  std::vector<table_data> tables;
  /// Rendered together under the "latency" section anchor.
  std::vector<histogram_data> histograms;
};

/// Escape text for HTML body / attribute contexts.
std::string html_escape(std::string_view s);

/// Render the full self-contained document.
std::string render_html(const flight_report& r);

/// Write REPORT_<label>.html (bench::artifact_path) through
/// bench::write_artifact.  Returns the path, or "" after a stderr diagnostic.
std::string write_flight_report(const flight_report& r,
                                std::string_view label);

}  // namespace lf::report
