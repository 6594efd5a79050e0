// Figure 12: LiteFlow's slow path adapts to environmental dynamics.
//
// Single flow, the background pattern changes mid-run.  LF-Aurora and
// LF-MOCC re-tune in userspace and re-sync the snapshot; the N-O-A variant
// keeps the stale snapshot and loses goodput after the change.  Paper also
// observes MOCC adapting faster than Aurora.
#include "bench_common.hpp"

int main() {
  using namespace lf;
  using namespace lf::apps;
  using namespace lf::bench;

  print_header("Figure 12", "online adaptation under traffic dynamics");

  const double phase_len = dur(20.0, 8.0);
  const double duration = 2 * phase_len;

  report rep{"fig12", "online adaptation under traffic dynamics"};
  rep.config("phase_len", phase_len);
  rep.config("duration", duration);

  text_table table{{"scheme", "phase1(Mbps)", "phase2(Mbps)",
                    "phase2-util", "snapshot-updates"}};

  for (const auto scheme : {cc_scheme::lf_aurora, cc_scheme::lf_mocc,
                            cc_scheme::lf_aurora_noa}) {
    cc_single_flow_config cfg;
    cfg.scheme = scheme;
    cfg.duration = duration;
    cfg.warmup = 2.0;
    cfg.pretrain_iterations = count(800, 200);
    cfg.net.bottleneck_bps = 1e9;
    cfg.net.rtt = 10e-3;
    cfg.net.buffer_bytes = 150 * 1000;
    cfg.bg_bps = 0.1e9;
    // Environment change: the path turns lossy (8% stochastic loss); the
    // slow path re-estimates the loss floor and retrains (§3.2).
    cfg.bg_schedule = {{phase_len, 0.1e9, 0.08}};
    // Run the adaptation monitor so the report carries each scheme's
    // snapshot lifecycle ledger (install/retire/drain per version).
    cfg.monitor = true;
    const auto r = run_cc_single_flow(cfg);

    const double p1 = r.goodput.average(cfg.warmup, phase_len);
    // Allow the slow path a re-convergence window after the change.
    const double p2 = r.goodput.average(phase_len + phase_len / 3, duration);
    const double avail2 = cfg.net.bottleneck_bps - 0.1e9;
    table.add_row({std::string{to_string(scheme)}, mbps(p1), mbps(p2),
                   pct(p2 / avail2),
                   std::to_string(r.snapshot_updates)});
    const std::string name{to_string(scheme)};
    rep.summary(name + ".phase1_mbps", p1 / 1e6);
    rep.summary(name + ".phase2_mbps", p2 / 1e6);
    rep.summary(name + ".phase2_util", p2 / avail2);
    rep.summary(name + ".snapshot_updates",
                static_cast<double>(r.snapshot_updates));
    rep.add_series("goodput_bps_" + name, r.goodput.points());
    for (const auto& rec : r.lifecycle) {
      const std::vector<std::pair<std::string, double>> row = {
          {"version", static_cast<double>(rec.version)},
          {"initial", rec.initial ? 1.0 : 0.0},
          {"install_time", rec.install_time},
          {"install_seconds", rec.install_seconds},
          {"switch_wait_seconds", rec.switch_wait_seconds},
          {"fidelity_min", rec.fidelity_min},
          {"retire_time", rec.retire_time},
          {"pinned_at_retire", static_cast<double>(rec.pinned_at_retire)},
          {"drain_seconds", rec.drain_seconds()},
      };
      rep.add_row("lifecycle_" + name, row);
    }
  }
  std::cout << "\n" << table.to_string();
  std::cout << "\nPaper shape: LF-Aurora and LF-MOCC recover high utilization "
               "after the change (MOCC faster); N-O-A stays degraded and "
               "never updates the snapshot.\n";
  write_report(rep);
  return 0;
}
