// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each binary regenerates one table/figure from the paper's evaluation and
// prints the same rows/series the paper reports.  Absolute numbers come
// from the simulated substrate and will not match the authors' testbed;
// EXPERIMENTS.md records the shape comparison.  Set LF_BENCH_FAST=1 to
// shrink durations for quick iteration.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "apps/cc/cc_experiment.hpp"
#include "util/bench_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace lf::bench {

inline void print_header(const std::string& figure, const std::string& title) {
  std::cout << "\n=== " << figure << ": " << title << " ===\n";
  if (fast_mode()) {
    std::cout << "(LF_BENCH_FAST: reduced durations)\n";
  }
}

/// Emit the bench's BENCH_<figure>.json next to the text table and say where
/// it went (every figure binary funnels through this).
inline void write_report(const report& rep) {
  const std::string path = rep.write();
  if (path.empty()) {
    std::cerr << "warning: failed to write BENCH_" << rep.figure()
              << ".json\n";
  } else {
    std::cout << "[json] " << path << "\n";
  }
}

/// Scale a duration down in fast mode.
inline double dur(double full, double fast) {
  return fast_mode() ? fast : full;
}

inline std::size_t count(std::size_t full, std::size_t fast) {
  return fast_mode() ? fast : full;
}

inline std::string mbps(double bps, int precision = 1) {
  return text_table::num(bps / 1e6, precision);
}

inline std::string pct(double fraction, int precision = 1) {
  return text_table::num(fraction * 100.0, precision) + "%";
}

}  // namespace lf::bench
