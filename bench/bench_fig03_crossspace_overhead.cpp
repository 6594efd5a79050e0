// Figure 3: fine-grained cross-space communication suffers high overhead.
//
// N concurrent flows (N = 2..10) in a non-congested setting where the
// sender CPU is the bottleneck.  Aggregated throughput of CCP-Aurora at
// intervals 1/10/100 ms, normalized to BBR.  Paper: at N = 10 the 1 ms
// interval reaches less than half of BBR.
#include "bench_common.hpp"

int main() {
  using namespace lf;
  using namespace lf::apps;
  using namespace lf::bench;

  print_header("Figure 3",
               "normalized aggregate throughput vs concurrent flows");

  const double duration = dur(1.5, 0.8);
  const std::size_t pretrain = count(400, 100);
  const std::size_t n_values[] = {2, 4, 6, 8, 10};

  report rep{"fig03", "normalized aggregate throughput vs concurrent flows"};
  rep.config("duration", duration);

  // Baseline: BBR per N.
  std::vector<double> bbr_tput;
  for (const std::size_t n : n_values) {
    cc_overhead_config cfg;
    cfg.scheme = cc_scheme::bbr;
    cfg.n_flows = n;
    cfg.duration = duration;
    const auto r = run_cc_overhead(cfg);
    bbr_tput.push_back(r.mean_goodput);
  }

  text_table table{{"N", "BBR(Gbps)", "CCP-1ms", "CCP-10ms", "CCP-100ms"}};
  for (std::size_t i = 0; i < std::size(n_values); ++i) {
    std::vector<std::string> row;
    row.push_back(std::to_string(n_values[i]));
    row.push_back(text_table::num(bbr_tput[i] / 1e9, 2));
    const double n = static_cast<double>(n_values[i]);
    rep.add_point("bbr_gbps", n, bbr_tput[i] / 1e9);
    for (const double interval : {1e-3, 10e-3, 100e-3}) {
      cc_overhead_config cfg;
      cfg.scheme = cc_scheme::ccp_aurora;
      cfg.ccp_interval = interval;
      cfg.n_flows = n_values[i];
      cfg.duration = duration;
      cfg.pretrain_iterations = pretrain;
      const auto r = run_cc_overhead(cfg);
      row.push_back(text_table::num(r.mean_goodput / bbr_tput[i], 2));
      rep.add_point(
          "ccp_norm_" + text_table::num(interval * 1e3, 0) + "ms", n,
          r.mean_goodput / bbr_tput[i]);
    }
    table.add_row(std::move(row));
  }
  std::cout << "\naggregate throughput normalized to BBR:\n"
            << table.to_string();
  std::cout << "\nPaper shape: normalized throughput falls as N grows, and "
               "smaller intervals fall hardest (<0.5 at N=10, 1ms).\n";
  write_report(rep);
  return 0;
}
