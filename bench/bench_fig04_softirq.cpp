// Figure 4: software interrupts caused by frequent communication.
//
// mpstat-style CPU breakdown with 10 active flows: BBR's softirq time is
// small (paper: 15.4 ms, ~12.6% of execution time); CCP-Aurora's grows
// from 30.8 ms to 133.9 ms (72.3%) as the interval shrinks 100 ms -> 1 ms.
// We report softirq CPU-milliseconds per second of wall time and the share
// of total busy time.
#include "bench_common.hpp"

int main() {
  using namespace lf;
  using namespace lf::apps;
  using namespace lf::bench;

  print_header("Figure 4", "softirq time with 10 concurrent flows");

  const double duration = dur(1.5, 0.8);
  const std::size_t pretrain = count(400, 100);

  report rep{"fig04", "softirq time with 10 concurrent flows"};
  rep.config("duration", duration);
  rep.config("n_flows", 10.0);

  text_table table{{"scheme", "softirq(ms/s)", "softirq-share",
                    "datapath(ms/s)", "cpu-util"}};

  auto run = [&](cc_scheme scheme, double interval, const std::string& name) {
    cc_overhead_config cfg;
    cfg.scheme = scheme;
    cfg.ccp_interval = interval;
    cfg.n_flows = 10;
    cfg.duration = duration;
    cfg.pretrain_iterations = pretrain;
    const auto r = run_cc_overhead(cfg);
    const double window = duration - cfg.warmup;
    table.add_row({name,
                   text_table::num(r.cpu.softirq_seconds / window * 1e3, 1),
                   pct(r.softirq_share),
                   text_table::num(r.cpu.datapath_seconds / window * 1e3, 1),
                   pct(r.cpu.utilization)});
    rep.summary(name + ".softirq_ms_per_s",
                r.cpu.softirq_seconds / window * 1e3);
    rep.summary(name + ".softirq_share", r.softirq_share);
    rep.summary(name + ".cpu_utilization", r.cpu.utilization);
  };

  run(cc_scheme::bbr, 0.0, "BBR");
  run(cc_scheme::ccp_aurora, 100e-3, "CCP-Aurora-100ms");
  run(cc_scheme::ccp_aurora, 10e-3, "CCP-Aurora-10ms");
  run(cc_scheme::ccp_aurora, 1e-3, "CCP-Aurora-1ms");

  std::cout << "\n" << table.to_string();
  std::cout << "\nPaper shape: BBR softirq ~12.6% of CPU; CCP softirq share "
               "rises steeply as the interval shrinks (72.3% at 1ms).\n";
  write_report(rep);
  return 0;
}
