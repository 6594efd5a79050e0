#include "util/bench_report.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace lf::bench {
namespace {

/// Reports are numbered in emission order within the process.  Unlike a
/// wall-clock timestamp this is identical across repeated runs, so
/// fast-mode JSON output stays byte-diffable.
std::uint64_t next_emitted_seq() {
  static std::uint64_t seq = 0;
  return seq++;
}

}  // namespace

bool fast_mode() {
  const char* v = std::getenv("LF_BENCH_FAST");
  return v != nullptr && *v != '\0' && *v != '0';
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON has no NaN/Inf; encode those as null so the file stays parseable.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string artifact_path(std::string_view prefix, std::string_view label,
                          std::string_view ext) {
  std::string safe;
  safe.reserve(label.size());
  for (const char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    safe += ok ? c : '-';
  }
  if (safe.empty()) safe = "run";
  return output_dir() + "/" + std::string{prefix} + "_" + safe +
         std::string{ext};
}

std::string write_artifact(const std::string& path, std::string_view body) {
  const std::string tmp = path + ".tmp";
  const char* failed = nullptr;
  {
    std::ofstream os{tmp, std::ios::trunc};
    if (!os) {
      failed = "cannot create the temp file";
    } else {
      os << body;
      os.close();
      if (!os) failed = "write failed";
    }
  }
  if (failed == nullptr && std::rename(tmp.c_str(), path.c_str()) != 0) {
    failed = "cannot rename the temp file over it";
  }
  if (failed == nullptr) return path;
  const int err = errno;
  std::error_code ec;
  std::filesystem::remove(tmp, ec);
  std::fprintf(stderr, "cannot write %s: %s (%s)\n", path.c_str(), failed,
               std::strerror(err));
  return {};
}

std::string output_dir() {
  if (const char* dir = std::getenv("LF_BENCH_OUT"); dir && *dir) return dir;
#ifdef LF_BENCH_OUT_DEFAULT
  return LF_BENCH_OUT_DEFAULT;
#else
  return ".";
#endif
}

report::report(std::string figure, std::string title)
    : figure_{std::move(figure)},
      title_{std::move(title)},
      emitted_seq_{next_emitted_seq()} {}

void report::config(std::string key, double value) {
  config_.emplace_back(std::move(key), json_number(value));
}

void report::config(std::string key, std::string value) {
  config_.emplace_back(std::move(key), "\"" + json_escape(value) + "\"");
}

void report::config_bool(std::string key, bool value) {
  config_.emplace_back(std::move(key), value ? "true" : "false");
}

void report::add_series(std::string name,
                        std::span<const std::pair<double, double>> points) {
  series_.emplace_back(std::move(name),
                       series_points{points.begin(), points.end()});
}

void report::add_series(const time_series& ts) {
  add_series(ts.name().empty() ? "series" : ts.name(), ts.points());
}

void report::add_point(std::string_view series, double x, double y) {
  for (auto& [name, pts] : series_) {
    if (name == series) {
      pts.emplace_back(x, y);
      return;
    }
  }
  series_.emplace_back(std::string{series}, series_points{{x, y}});
}

void report::summary(std::string name, double value) {
  summary_.emplace_back(std::move(name), value);
}

void report::summaries(std::span<const std::pair<std::string, double>> values) {
  for (const auto& [name, value] : values) summary(name, value);
}

void report::add_row(std::string table,
                     std::span<const std::pair<std::string, double>> columns) {
  for (auto& [name, rows] : tables_) {
    if (name == table) {
      rows.emplace_back(columns.begin(), columns.end());
      return;
    }
  }
  tables_.emplace_back(
      std::move(table),
      std::vector<table_row>{table_row{columns.begin(), columns.end()}});
}

std::string report::json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"figure\": \"" << json_escape(figure_) << "\",\n";
  os << "  \"title\": \"" << json_escape(title_) << "\",\n";
  os << "  \"fast_mode\": " << (fast_mode() ? "true" : "false") << ",\n";
  os << "  \"emitted_seq\": " << emitted_seq_ << ",\n";

  os << "  \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << json_escape(config_[i].first)
       << "\": " << config_[i].second;
  }
  os << (config_.empty() ? "" : "\n  ") << "},\n";

  os << "  \"series\": {";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << json_escape(series_[i].first)
       << "\": [";
    const auto& pts = series_[i].second;
    for (std::size_t p = 0; p < pts.size(); ++p) {
      os << (p ? "," : "") << "[" << json_number(pts[p].first) << ","
         << json_number(pts[p].second) << "]";
    }
    os << "]";
  }
  os << (series_.empty() ? "" : "\n  ") << "},\n";

  os << "  \"summary\": {";
  for (std::size_t i = 0; i < summary_.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << json_escape(summary_[i].first)
       << "\": " << json_number(summary_[i].second);
  }
  os << (summary_.empty() ? "" : "\n  ") << "}";

  if (!tables_.empty()) {
    os << ",\n  \"tables\": {";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      os << (t ? "," : "") << "\n    \"" << json_escape(tables_[t].first)
         << "\": [";
      const auto& rows = tables_[t].second;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        os << (r ? "," : "") << "\n      {";
        for (std::size_t c = 0; c < rows[r].size(); ++c) {
          os << (c ? "," : "") << "\"" << json_escape(rows[r][c].first)
             << "\": " << json_number(rows[r][c].second);
        }
        os << "}";
      }
      os << (rows.empty() ? "" : "\n    ") << "]";
    }
    os << "\n  }";
  }
  os << "\n}\n";
  return os.str();
}

std::string report::write() const {
  return write_artifact(artifact_path("BENCH", figure_, ".json"), json());
}

}  // namespace lf::bench
