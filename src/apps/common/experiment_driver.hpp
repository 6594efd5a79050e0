// Generic experiment runtime shared by the cc / sched / lb harnesses.
//
// Every end-to-end run in the paper's evaluation has the same skeleton:
// build a topology and a deployment stack, optionally snapshot state at the
// end of a warmup window, advance the simulation (either one shot to a fixed
// duration, or in slices with an early exit once the flow plan drains), then
// report summary statistics from a fixed seed.  The driver owns that
// skeleton; an experiment implements the four hooks and the per-app harness
// shrinks to topology wiring + reporting.
//
// The driver also owns a metrics::registry for the run: setup() wires
// component telemetry into it, and the driver snapshots every registered
// scalar into run_result::telemetry after the run — this is the flat
// key/value block the bench_report JSON emitter writes out.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/adaptation_monitor.hpp"
#include "sim/sim.hpp"
#include "util/metrics.hpp"
#include "util/time_series.hpp"
#include "util/trace.hpp"

namespace lf::apps {

/// FCT summary for one of the paper's flow-size classes.
struct class_fct_stats {
  std::size_t count = 0;
  double mean_seconds = 0.0;
  double p99_seconds = 0.0;
};


/// CPU accounting over the measurement window at the host under test.
struct cpu_breakdown {
  double softirq_seconds = 0.0;
  double datapath_seconds = 0.0;
  double slowpath_seconds = 0.0;  ///< userspace inference + training
  double busy_seconds = 0.0;
  double utilization = 0.0;  ///< busy / (capacity * window)
};

/// The unified result every experiment reports through.  An experiment fills
/// the fields that apply (a goodput run leaves the FCT classes empty and
/// vice versa); the driver fills name/seed/telemetry.
struct run_result {
  std::string name;        ///< experiment name (driver_config::name)
  std::uint64_t seed = 0;  ///< the seed this run is deterministic under

  // Goodput-shaped results (cc).
  time_series goodput{"goodput_bps"};
  double mean_goodput = 0.0;
  double stddev_goodput = 0.0;
  time_series queue{"queue_bytes"};

  // FCT-shaped results (sched / lb).
  class_fct_stats short_flows;
  class_fct_stats mid_flows;
  class_fct_stats long_flows;
  std::size_t completed = 0;

  cpu_breakdown cpu{};
  double softirq_share = 0.0;  ///< softirq / total busy at the host under test
  std::uint64_t snapshot_updates = 0;  ///< LiteFlow deployments only

  /// Flat scalar snapshot of every metric registered during setup().  When
  /// tracing is on this additionally carries "trace.events.<type>" retained
  /// event counts and the "trace.span.*" histogram scalars.
  std::map<std::string, double> telemetry;

  /// Path of the exported TRACE_<label>.json; empty when tracing was off
  /// (or the write failed — a diagnostic lands on stderr in that case).
  std::string trace_path;

  /// Snapshot lifecycle ledger and fired health alerts, copied from the
  /// run's adaptation monitor (empty when it was disabled).
  std::vector<core::snapshot_record> lifecycle;
  std::vector<core::alert_record> alerts;

  /// Path of the written REPORT_<label>.html; empty when reporting was off.
  std::string report_path;
};

/// Flow completion times of an FCT-shaped run (sched / lb), split into the
/// paper's short/mid/long classes by flow size.
class fct_recorder {
 public:
  void record(std::uint64_t flow_bytes, double fct_seconds);
  std::size_t completed() const noexcept {
    return short_.size() + mid_.size() + long_.size();
  }
  /// Fill the result's three FCT classes and its completion count.
  void report(run_result& out) const;

 private:
  std::vector<double> short_, mid_, long_;
};

/// Datapath tracing knobs for one run.  Off by default; the environment
/// (LF_TRACE=1, LF_TRACE_RING=<events>) enables it for any driver-routed
/// binary without code changes, and experiment configs can override
/// programmatically.
struct trace_options {
  trace::collector_config collector{};  ///< enabled flag + ring capacity
  /// TRACE_<label>.json file label; empty uses driver_config::name.
  std::string label;
  /// Write the Perfetto file at the end of the run (the derived span stats
  /// always feed the metrics registry when tracing is enabled).
  bool write_file = true;

  static trace_options from_env() {
    return trace_options{trace::config_from_env(), {}, true};
  }
};

/// Per-run HTML flight report knobs.  Off by default; LF_REPORT=1 turns it
/// on for any driver-routed binary.  Enabling the report force-enables the
/// adaptation monitor for the run (the report renders its ledger/alerts).
struct report_options {
  bool enabled = false;
  /// REPORT_<label>.html file label; empty uses driver_config::name.
  std::string label;
  bool write_file = true;

  /// Environment default: LF_REPORT (nonzero enables).
  static report_options from_env();
};

struct driver_config {
  std::string name;
  std::uint64_t seed = 0;
  double warmup = 0.0;    ///< at_warmup() fires here when warmup_hook is set
  double duration = 0.0;  ///< one-shot runs: run_until(duration)
  /// Sliced runs: advance `slice` at a time up to max_sim_time, stopping as
  /// soon as finished() reports true.  0 selects the one-shot shape.
  double slice = 0.0;
  double max_sim_time = 0.0;
  /// Schedule the at_warmup() callback (off by default so experiments that
  /// ignore it do not add an event to the run).
  bool warmup_hook = false;
  /// Event tracing; defaults to the LF_TRACE / LF_TRACE_RING environment.
  trace_options trace = trace_options::from_env();
  /// Run the adaptation health monitor (a flight report runs it too).
  bool monitor = false;
  /// Per-run HTML flight report; defaults to the LF_REPORT environment.
  report_options report = report_options::from_env();
};

/// What the driver hands each hook: the simulation, the run's registry, the
/// run's trace collector, and the run's adaptation monitor (setup() wires
/// component rings/hooks into them exactly like it wires metrics; attaching
/// a disabled monitor is a no-op cost).
struct driver_context {
  sim::simulation& sim;
  metrics::registry& metrics;
  trace::collector& trace;
  core::adaptation_monitor& monitor;
};

/// One end-to-end experiment.  Hooks run in order: setup (build topology,
/// deployments, schedule arrivals), at_warmup (snapshot accounting),
/// finished (polled between slices), report (summarize into run_result).
class experiment {
 public:
  virtual ~experiment() = default;

  virtual const driver_config& config() const = 0;
  virtual void setup(driver_context& ctx) = 0;
  virtual void at_warmup(driver_context& ctx) { (void)ctx; }
  virtual bool finished() const { return false; }
  virtual void report(driver_context& ctx, run_result& out) = 0;
};

/// Run one experiment through the shared phases and return its result.
run_result run_experiment(experiment& exp);

}  // namespace lf::apps
