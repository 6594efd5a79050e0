// §5.1, "High Throughput & Low Latency": in a DCN-like no-added-latency
// setting, a LiteFlow-deployed dummy NN (Aurora's structure, output pinned
// to line rate) achieves throughput within 5% of kernel BBR — the fast path
// adds negligible overhead.
#include "bench_common.hpp"

int main() {
  using namespace lf;
  using namespace lf::apps;
  using namespace lf::bench;

  print_header("§5.1 summary", "LF-Dummy-NN vs BBR at line rate (no netem)");

  const double duration = dur(1.5, 0.8);

  report rep{"dummy_nn_linerate", "LF-Dummy-NN vs BBR at line rate"};
  rep.config("duration", duration);

  text_table table{{"N", "BBR(Gbps)", "LF-Dummy-NN(Gbps)", "ratio"}};

  for (const std::size_t n : {2u, 4u, 6u}) {
    cc_overhead_config bbr_cfg;
    bbr_cfg.scheme = cc_scheme::bbr;
    bbr_cfg.n_flows = n;
    bbr_cfg.duration = duration;
    const double bbr = run_cc_overhead(bbr_cfg).mean_goodput;

    cc_overhead_config lf_cfg;
    lf_cfg.scheme = cc_scheme::lf_dummy;
    lf_cfg.n_flows = n;
    lf_cfg.duration = duration;
    lf_cfg.pretrain_iterations = 0;
    const double lf = run_cc_overhead(lf_cfg).mean_goodput;

    table.add_row({std::to_string(n), text_table::num(bbr / 1e9, 2),
                   text_table::num(lf / 1e9, 2),
                   text_table::num(lf / bbr, 3)});
    const double x = static_cast<double>(n);
    rep.add_point("bbr_gbps", x, bbr / 1e9);
    rep.add_point("lf_dummy_gbps", x, lf / 1e9);
    rep.add_point("ratio", x, lf / bbr);
  }
  std::cout << "\n" << table.to_string();
  std::cout << "\nPaper shape: degradation within 5% of pure kernel BBR.\n";
  write_report(rep);
  return 0;
}
