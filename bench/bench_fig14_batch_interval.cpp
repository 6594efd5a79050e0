// Figure 14: micro-benchmark of the batch data delivery interval T.
//
// Two effects trade off (§3.2):
//  - overhead: softirq share with 10 concurrent LF-Aurora flows as T
//    shrinks (paper: within ~14.1% for T in [100ms, 1000ms], close to the
//    ~12.6% of pure kernel CC);
//  - adaptation quality: goodput of one flow under an environment change
//    (a too-large T reacts too slowly).
// N-O-A rows give the no-slow-path reference.
#include "bench_common.hpp"

int main() {
  using namespace lf;
  using namespace lf::apps;
  using namespace lf::bench;

  print_header("Figure 14", "batch data delivery interval sweep");

  const double overhead_duration = dur(1.5, 0.8);
  const std::size_t pretrain = count(800, 200);

  text_table table{{"T", "softirq-share(10 flows)", "slow-path-cpu(ms/s)",
                    "goodput-after-change(Mbps)", "snapshot-updates"}};

  const double phase_len = dur(16.0, 6.0);
  auto goodput_under_change = [&](double batch_interval, bool adaptation,
                                  std::uint64_t* updates) {
    cc_single_flow_config cfg;
    cfg.scheme = adaptation ? cc_scheme::lf_aurora : cc_scheme::lf_aurora_noa;
    cfg.batch_interval = batch_interval;
    cfg.duration = 2 * phase_len;
    cfg.warmup = 2.0;
    cfg.pretrain_iterations = pretrain;
    cfg.net.bottleneck_bps = 1e9;
    cfg.net.rtt = 10e-3;
    cfg.bg_bps = 0.1e9;
    cfg.bg_schedule = {{phase_len, 0.1e9, 0.08}};  // lossy phase
    const auto r = run_cc_single_flow(cfg);
    if (updates) *updates = r.snapshot_updates;
    return r.goodput.average(phase_len + phase_len / 3, cfg.duration);
  };

  auto overhead = [&](double batch_interval, bool adaptation) {
    cc_overhead_config cfg;
    cfg.scheme = adaptation ? cc_scheme::lf_aurora : cc_scheme::lf_aurora_noa;
    cfg.batch_interval = batch_interval;
    cfg.n_flows = 10;
    cfg.duration = overhead_duration;
    cfg.pretrain_iterations = count(400, 100);
    return run_cc_overhead(cfg);
  };

  report rep{"fig14", "batch data delivery interval sweep"};
  rep.config("overhead_duration", overhead_duration);
  rep.config("phase_len", phase_len);

  const double ow = overhead_duration - 0.3;  // measurement window
  for (const double T : {1e-3, 10e-3, 100e-3, 1000e-3}) {
    std::uint64_t updates = 0;
    const auto oh = overhead(T, true);
    const double goodput = goodput_under_change(T, true, &updates);
    table.add_row({text_table::num(T * 1e3, 0) + "ms", pct(oh.softirq_share),
                   text_table::num(oh.cpu.slowpath_seconds / ow * 1e3, 1),
                   mbps(goodput), std::to_string(updates)});
    rep.add_point("softirq_share", T * 1e3, oh.softirq_share);
    rep.add_point("slowpath_ms_per_s", T * 1e3,
                  oh.cpu.slowpath_seconds / ow * 1e3);
    rep.add_point("goodput_after_change_mbps", T * 1e3, goodput / 1e6);
    rep.add_point("snapshot_updates", T * 1e3, static_cast<double>(updates));
  }
  const auto noa = overhead(100e-3, false);
  const double noa_goodput = goodput_under_change(100e-3, false, nullptr);
  table.add_row({"N-O-A", pct(noa.softirq_share),
                 text_table::num(noa.cpu.slowpath_seconds / ow * 1e3, 1),
                 mbps(noa_goodput), "0"});
  rep.summary("noa.softirq_share", noa.softirq_share);
  rep.summary("noa.goodput_after_change_mbps", noa_goodput / 1e6);

  std::cout << "\n" << table.to_string();
  std::cout << "\nPaper shape: T in [100ms, 1000ms] keeps softirq near the "
               "pure-kernel baseline without hurting adaptation; tiny T "
               "raises overhead, N-O-A loses goodput after the change.\n";
  write_report(rep);
  return 0;
}
