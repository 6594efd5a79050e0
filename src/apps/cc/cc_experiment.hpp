// Reusable congestion-control experiment harnesses on the dumbbell testbed,
// shared by the benchmark binaries (Figs. 1-5, 11-14) and the examples.
//
// Two shapes cover the paper's CC evaluation:
//  - single-flow goodput runs under emulated congestion (optionally with a
//    schedule of background-traffic changes for the adaptation figures), and
//  - N-flow overhead runs in a non-congested setting where the sender CPU
//    is the bottleneck and cross-space communication eats into it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "apps/common/experiment_driver.hpp"
#include "kernelsim/cpu.hpp"
#include "netsim/topology.hpp"
#include "util/time_series.hpp"

namespace lf::apps {

enum class cc_scheme {
  lf_aurora,
  lf_mocc,
  lf_aurora_noa,       ///< LiteFlow, adaptation disabled
  lf_dummy,            ///< LF-Dummy-NN: snapshot always emits line rate
  ccp_aurora,          ///< userspace deployment, interval configurable
  ccp_mocc,
  kernel_train_aurora, ///< §2.3 all-in-kernel anti-pattern
  bbr,
  cubic,
};

std::string_view to_string(cc_scheme s) noexcept;
bool is_rate_based(cc_scheme s) noexcept;

struct bg_phase {
  double at = 0.0;          ///< absolute time the phase starts
  double bg_bps = 0.0;      ///< background UDP rate from then on
  double random_loss = 0.0; ///< stochastic loss on the bottleneck from then on
};

struct cc_single_flow_config {
  cc_scheme scheme = cc_scheme::lf_aurora;
  netsim::dumbbell_config net{};
  double duration = 10.0;
  double warmup = 1.0;              ///< excluded from summary stats
  double bg_bps = 0.1e9;            ///< paper: 0.1 Gbps constant UDP
  std::vector<bg_phase> bg_schedule;  ///< optional dynamics (Figs. 5/12)
  double ccp_interval = 10e-3;      ///< for ccp_* schemes (0 = per ACK)
  double batch_interval = 0.100;    ///< LiteFlow slow-path T
  double lf_sync_alpha = 0.05;      ///< necessity threshold (§3.3)
  std::size_t pretrain_iterations = 400;
  std::uint64_t seed = 7;
  double sample_interval = 0.1;     ///< goodput sampling (paper: 0.1 s)
  bool trace_queue = false;
  /// Programmatic event-tracing override; unset keeps the driver default
  /// (the LF_TRACE / LF_TRACE_RING environment).
  std::optional<trace_options> trace;
  /// Run the adaptation health monitor (driver_config::monitor).
  bool monitor = false;
  /// Flight-report override; unset keeps the LF_REPORT default.
  std::optional<report_options> report;
};

/// Single-flow goodput runs report straight through the unified run_result:
/// goodput/queue series, mean/stddev over [warmup, duration], snapshot
/// updates and the sender's softirq share.
using cc_single_flow_result = run_result;

cc_single_flow_result run_cc_single_flow(const cc_single_flow_config& config);

struct cc_overhead_config {
  cc_scheme scheme = cc_scheme::bbr;
  std::size_t n_flows = 10;
  double duration = 1.5;
  double warmup = 0.3;
  double ccp_interval = 10e-3;
  double batch_interval = 0.100;
  /// Non-congested setting: generous link, CPU becomes the bottleneck.
  double bottleneck_bps = 5e9;
  std::size_t pretrain_iterations = 300;
  std::uint64_t seed = 7;
};

/// Overhead runs report goodput over [warmup, duration] as mean_goodput and
/// the sender's CPU over the same window in run_result::cpu.
run_result run_cc_overhead(const cc_overhead_config& config);

}  // namespace lf::apps
