// Shared machine-readable benchmark reporter.
//
// Every figure bench writes one BENCH_<figure>.json with a common schema:
//   {
//     "figure":  "fig11",
//     "title":   "goodput by deployment mechanism",
//     "fast_mode": false,
//     "config":  { "duration": 12.0, ... },
//     "series":  { "goodput_bps": [[t, v], ...], ... },
//     "summary": { "lf_aurora_mbps": 812.4, ... }
//   }
// Output directory: $LF_BENCH_OUT if set, else the compiled-in repository
// root (LF_BENCH_OUT_DEFAULT), else the current working directory.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/time_series.hpp"

namespace lf::bench {

/// Directory BENCH_*.json files land in (see header comment for the rules).
std::string output_dir();

/// True when LF_BENCH_FAST is set to anything but "" or "0": benches then
/// shrink durations and counts for quick iteration.
bool fast_mode();

/// Escape a string for inclusion inside a JSON string literal (quotes not
/// added).  Shared with the trace exporter (util/trace_report.cpp).
std::string json_escape(std::string_view s);

/// Encode a double as a JSON number; NaN/Inf become null so the document
/// stays parseable.
std::string json_number(double v);

/// "<output_dir()>/<prefix>_<label><ext>": where BENCH, TRACE, BLACKBOX,
/// REPORT and INCIDENT artifacts land.  Label characters outside
/// [A-Za-z0-9._-] become '-'; an empty label becomes "run".
std::string artifact_path(std::string_view prefix, std::string_view label,
                          std::string_view ext);

/// The one artifact writer: write `body` to the sibling "<path>.tmp" and
/// rename it over `path`, so a reader sees the old file or the new one,
/// never a torn write.  Returns `path`, or "" after one stderr diagnostic;
/// a failed write leaves no temp file behind.
std::string write_artifact(const std::string& path, std::string_view body);

class report {
 public:
  report(std::string figure, std::string title);

  // Config scalars/strings (insertion order preserved).
  void config(std::string key, double value);
  void config(std::string key, std::string value);
  void config_bool(std::string key, bool value);

  // Named series of (x, y) points.
  void add_series(std::string name,
                  std::span<const std::pair<double, double>> points);
  void add_series(const time_series& ts);  ///< uses the series' own name
  void add_point(std::string_view series, double x, double y);

  // Summary scalars.
  void summary(std::string name, double value);
  void summaries(std::span<const std::pair<std::string, double>> values);

  /// Append one row to a named table (e.g. the snapshot lifecycle ledger:
  /// one row per installed version).  Tables serialize as a top-level
  /// "tables" object mapping each name to an array of {column: value}
  /// row objects; documents with no rows omit the key entirely, so
  /// existing BENCH JSON is byte-identical.
  void add_row(std::string table,
               std::span<const std::pair<std::string, double>> columns);

  const std::string& figure() const noexcept { return figure_; }

  /// Per-process emission index (0 for the first report constructed);
  /// serialized as a top-level "emitted_seq" field.  Monotonic but not
  /// wall-clock, so repeated runs produce diffable JSON.
  std::uint64_t emitted_seq() const noexcept { return emitted_seq_; }

  /// Serialize the full document (tests validate this directly).
  std::string json() const;

  /// Write BENCH_<figure>.json into output_dir() through write_artifact().
  std::string write() const;

 private:
  using series_points = std::vector<std::pair<double, double>>;
  using table_row = std::vector<std::pair<std::string, double>>;

  std::string figure_;
  std::string title_;
  std::uint64_t emitted_seq_;
  std::vector<std::pair<std::string, std::string>> config_;  // pre-encoded
  std::vector<std::pair<std::string, series_points>> series_;
  std::vector<std::pair<std::string, double>> summary_;
  std::vector<std::pair<std::string, std::vector<table_row>>> tables_;
};

}  // namespace lf::bench
