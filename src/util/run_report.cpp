#include "util/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/bench_report.hpp"

namespace lf::report {
namespace {

// Chart geometry (one fixed layout keeps the renderer allocation-simple).
constexpr double k_w = 760.0, k_h = 300.0;
constexpr double k_ml = 64.0, k_mr = 14.0, k_mt = 14.0, k_mb = 34.0;
constexpr double k_plot_w = k_w - k_ml - k_mr;
constexpr double k_plot_h = k_h - k_mt - k_mb;

constexpr const char* k_palette[] = {"#1f77b4", "#d62728", "#2ca02c",
                                     "#9467bd", "#ff7f0e", "#8c564b"};

std::string fmt(double v) {
  if (!std::isfinite(v)) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct range {
  double lo = 0.0;
  double hi = 1.0;

  void widen(double v) {
    if (!std::isfinite(v)) return;
    if (!seen) {
      lo = hi = v;
      seen = true;
      return;
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  /// Guarantee hi > lo so projection never divides by zero.
  void finish(double pad_fraction) {
    if (!seen) {
      lo = 0.0;
      hi = 1.0;
      return;
    }
    if (hi <= lo) {
      const double bump = std::max(1.0, std::abs(lo)) * 0.5;
      lo -= bump;
      hi += bump;
      return;
    }
    const double pad = (hi - lo) * pad_fraction;
    lo -= pad;
    hi += pad;
  }

  bool seen = false;
};

double project_x(const range& r, double t) {
  return k_ml + (t - r.lo) / (r.hi - r.lo) * k_plot_w;
}
double project_y(const range& r, double v) {
  return k_mt + k_plot_h - (v - r.lo) / (r.hi - r.lo) * k_plot_h;
}

void render_chart(std::ostringstream& os, const chart_data& c) {
  os << "<section id=\"" << html_escape(c.id) << "\">\n<h2>"
     << html_escape(c.title) << "</h2>\n";

  std::size_t total_points = 0;
  range xr, yr;
  for (const series_data& s : c.series) {
    total_points += s.points.size();
    for (const auto& [t, v] : s.points) {
      xr.widen(t);
      yr.widen(v);
    }
  }
  if (total_points == 0) {
    os << "<p class=\"empty\">no data recorded</p>\n</section>\n";
    return;
  }
  for (const marker& m : c.markers) xr.widen(m.t);
  for (const threshold_line& th : c.thresholds) yr.widen(th.value);
  xr.finish(0.0);
  yr.finish(0.06);

  // Legend (plain colored text; the SVG stays label-free).
  os << "<p class=\"legend\">";
  for (std::size_t i = 0; i < c.series.size(); ++i) {
    os << "<span style=\"color:"
       << k_palette[i % (sizeof(k_palette) / sizeof(k_palette[0]))] << "\">"
       << html_escape(c.series[i].name) << "</span> ";
  }
  os << "</p>\n";

  os << "<svg viewBox=\"0 0 " << k_w << " " << k_h
     << "\" role=\"img\" aria-label=\"" << html_escape(c.title) << "\">\n";
  // Plot frame.
  os << "<rect class=\"frame\" x=\"" << k_ml << "\" y=\"" << k_mt
     << "\" width=\"" << k_plot_w << "\" height=\"" << k_plot_h << "\"/>\n";

  // Axis tick labels: min / mid / max on both axes.
  const double xm = (xr.lo + xr.hi) / 2.0, ym = (yr.lo + yr.hi) / 2.0;
  os << "<text class=\"tick\" x=\"" << k_ml << "\" y=\"" << (k_h - 12)
     << "\">" << fmt(xr.lo) << "</text>\n"
     << "<text class=\"tick\" x=\"" << (k_ml + k_plot_w / 2)
     << "\" y=\"" << (k_h - 12) << "\" text-anchor=\"middle\">" << fmt(xm)
     << "</text>\n"
     << "<text class=\"tick\" x=\"" << (k_w - k_mr) << "\" y=\""
     << (k_h - 12) << "\" text-anchor=\"end\">" << fmt(xr.hi)
     << "</text>\n";
  os << "<text class=\"tick\" x=\"" << (k_ml - 6) << "\" y=\""
     << (k_mt + k_plot_h) << "\" text-anchor=\"end\">" << fmt(yr.lo)
     << "</text>\n"
     << "<text class=\"tick\" x=\"" << (k_ml - 6) << "\" y=\""
     << (k_mt + k_plot_h / 2) << "\" text-anchor=\"end\">" << fmt(ym)
     << "</text>\n"
     << "<text class=\"tick\" x=\"" << (k_ml - 6) << "\" y=\""
     << (k_mt + 10) << "\" text-anchor=\"end\">" << fmt(yr.hi)
     << "</text>\n";
  // Axis captions.
  os << "<text class=\"axis\" x=\"" << (k_ml + k_plot_w / 2) << "\" y=\""
     << (k_h - 1) << "\" text-anchor=\"middle\">time (s)</text>\n";
  if (!c.y_label.empty()) {
    os << "<text class=\"axis\" transform=\"rotate(-90)\" x=\""
       << -(k_mt + k_plot_h / 2) << "\" y=\"12\" text-anchor=\"middle\">"
       << html_escape(c.y_label) << "</text>\n";
  }

  // Threshold reference lines.
  for (const threshold_line& th : c.thresholds) {
    const double y = project_y(yr, th.value);
    os << "<line class=\"threshold\" x1=\"" << k_ml << "\" y1=\"" << y
       << "\" x2=\"" << (k_ml + k_plot_w) << "\" y2=\"" << y
       << "\"><title>" << html_escape(th.label) << " = " << fmt(th.value)
       << "</title></line>\n";
  }

  // Event markers (installs gray, alerts red; <title> is the hover label).
  for (const marker& m : c.markers) {
    const double x = project_x(xr, m.t);
    os << "<line class=\"" << (m.alert ? "marker-alert" : "marker-install")
       << "\" x1=\"" << x << "\" y1=\"" << k_mt << "\" x2=\"" << x
       << "\" y2=\"" << (k_mt + k_plot_h) << "\"><title>"
       << html_escape(m.label) << " @ " << fmt(m.t) << "s</title></line>\n";
  }

  for (std::size_t i = 0; i < c.series.size(); ++i) {
    const series_data& s = c.series[i];
    if (s.points.empty()) continue;
    os << "<polyline class=\"series\" stroke=\""
       << k_palette[i % (sizeof(k_palette) / sizeof(k_palette[0]))]
       << "\" points=\"";
    for (const auto& [t, v] : s.points) {
      os << fmt(project_x(xr, t)) << "," << fmt(project_y(yr, v)) << " ";
    }
    os << "\"/>\n";
  }
  os << "</svg>\n</section>\n";
}

void render_table(std::ostringstream& os, const table_data& t) {
  os << "<section id=\"" << html_escape(t.id) << "\">\n<h2>"
     << html_escape(t.title) << "</h2>\n";
  if (!t.caption.empty()) {
    os << "<p class=\"caption\">" << html_escape(t.caption) << "</p>\n";
  }
  if (t.rows.empty()) {
    os << "<p class=\"empty\">empty</p>\n</section>\n";
    return;
  }
  os << "<table>\n<thead><tr>";
  for (const std::string& col : t.columns) {
    os << "<th>" << html_escape(col) << "</th>";
  }
  os << "</tr></thead>\n<tbody>\n";
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    const std::string* cls =
        r < t.row_classes.size() && !t.row_classes[r].empty()
            ? &t.row_classes[r]
            : nullptr;
    os << "<tr";
    if (cls) os << " class=\"" << html_escape(*cls) << "\"";
    os << ">";
    for (const std::string& cell : t.rows[r]) {
      os << "<td>" << html_escape(cell) << "</td>";
    }
    os << "</tr>\n";
  }
  os << "</tbody>\n</table>\n</section>\n";
}

void render_histogram(std::ostringstream& os, const histogram_data& h) {
  os << "<div class=\"hist\">\n<h3>" << html_escape(h.name) << "</h3>\n"
     << "<p class=\"caption\">count " << h.total << ", mean " << fmt(h.mean)
     << "</p>\n";
  if (h.buckets.empty()) {
    os << "<p class=\"empty\">empty</p>\n</div>\n";
    return;
  }
  std::uint64_t max_count = 0;
  for (const auto& b : h.buckets) max_count = std::max(max_count, b.count);
  // Horizontal bars: one row per non-empty bucket, bar length ∝ count.
  constexpr double bw = 360.0, row_h = 16.0, label_w = 150.0;
  const double hh = row_h * static_cast<double>(h.buckets.size());
  os << "<svg viewBox=\"0 0 " << (label_w + bw + 60) << " " << hh
     << "\" role=\"img\" aria-label=\"" << html_escape(h.name) << "\">\n";
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const auto& b = h.buckets[i];
    const double y = row_h * static_cast<double>(i);
    const double len =
        bw * static_cast<double>(b.count) / static_cast<double>(max_count);
    os << "<text class=\"tick\" x=\"" << (label_w - 6) << "\" y=\""
       << (y + 12) << "\" text-anchor=\"end\">[" << fmt(b.lo) << ", "
       << fmt(b.hi) << ")</text>\n"
       << "<rect class=\"bar\" x=\"" << label_w << "\" y=\"" << (y + 2)
       << "\" width=\"" << fmt(std::max(len, 1.0)) << "\" height=\""
       << (row_h - 4) << "\"/>\n"
       << "<text class=\"tick\" x=\"" << (label_w + len + 4) << "\" y=\""
       << (y + 12) << "\">" << b.count << "</text>\n";
  }
  os << "</svg>\n</div>\n";
}

constexpr const char* k_css =
    "body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;max-width:"
    "860px;color:#1a1a2e;background:#fafafa}"
    "h1{font-size:22px}h2{font-size:17px;margin:28px 0 6px;border-bottom:"
    "1px solid #ddd;padding-bottom:3px}h3{font-size:14px;margin:14px 0 2px}"
    "table{border-collapse:collapse;width:100%;font-size:13px}"
    "th,td{border:1px solid #ccc;padding:3px 8px;text-align:right}"
    "th{background:#eee}td:first-child,th:first-child{text-align:left}"
    "tr.alert-row td{background:#fdecea}"
    "tr.gate-rollback td{background:#fff4e5}"
    "svg{width:100%;height:auto;background:#fff;border:1px solid #ddd}"
    ".frame{fill:none;stroke:#999;stroke-width:1}"
    ".series{fill:none;stroke-width:1.6}"
    ".tick{font:11px sans-serif;fill:#555}.axis{font:11px sans-serif;"
    "fill:#333}"
    ".threshold{stroke:#b8860b;stroke-width:1;stroke-dasharray:6 3}"
    ".marker-install{stroke:#888;stroke-width:1;stroke-dasharray:2 3}"
    ".marker-alert{stroke:#d62728;stroke-width:1.4;stroke-dasharray:4 2}"
    ".bar{fill:#1f77b4}"
    ".caption,.legend{color:#555;font-size:12px;margin:2px 0 6px}"
    ".empty{color:#888;font-style:italic}"
    "dl{display:grid;grid-template-columns:max-content 1fr;gap:2px 16px;"
    "font-size:13px}dt{color:#555}dd{margin:0;font-variant-numeric:"
    "tabular-nums}";

}  // namespace

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

histogram_data make_histogram_data(std::string name,
                                   const metrics::latency_snapshot& h,
                                   double mean) {
  using metrics::latency_histogram;
  histogram_data out;
  out.name = std::move(name);
  out.mean = mean;
  out.total = h.total();
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    const std::uint64_t lo = latency_histogram::bucket_floor(i);
    out.buckets.push_back(histogram_data::bucket{
        static_cast<double>(lo),
        static_cast<double>(lo + latency_histogram::bucket_width(i)),
        h.counts[i]});
  }
  return out;
}

std::string render_html(const flight_report& r) {
  std::ostringstream os;
  os << "<!doctype html>\n<html lang=\"en\">\n<head>\n"
     << "<meta charset=\"utf-8\">\n<title>" << html_escape(r.title)
     << "</title>\n<style>" << k_css << "</style>\n</head>\n<body>\n"
     << "<h1>" << html_escape(r.title) << "</h1>\n";

  os << "<section id=\"summary\">\n<h2>Run summary</h2>\n<dl>\n";
  for (const auto& [k, v] : r.summary) {
    os << "<dt>" << html_escape(k) << "</dt><dd>" << html_escape(v)
       << "</dd>\n";
  }
  os << "</dl>\n</section>\n";

  for (const chart_data& c : r.charts) render_chart(os, c);
  for (const table_data& t : r.tables) render_table(os, t);

  os << "<section id=\"latency\">\n<h2>Datapath latency</h2>\n";
  if (r.histograms.empty()) {
    os << "<p class=\"empty\">no span data (run with LF_TRACE=1)</p>\n";
  }
  for (const histogram_data& h : r.histograms) render_histogram(os, h);
  os << "</section>\n</body>\n</html>\n";
  return os.str();
}

std::string write_flight_report(const flight_report& r,
                                std::string_view label) {
  return bench::write_artifact(bench::artifact_path("REPORT", label, ".html"),
                               render_html(r));
}

}  // namespace lf::report
