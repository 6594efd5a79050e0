// Figure 13: LiteFlow's overhead matches pure kernel implementations.
//
// N concurrent flows in a non-congested (CPU-bound) setting; aggregated
// throughput normalized to BBR.  Paper: LF-Aurora/LF-MOCC lose <5% vs BBR,
// beat CUBIC by ~17.5%, and beat the CCP deployments by up to 63.5%.
#include "bench_common.hpp"

int main() {
  using namespace lf;
  using namespace lf::apps;
  using namespace lf::bench;

  print_header("Figure 13", "deployment overhead: normalized throughput");

  const double duration = dur(1.5, 0.8);
  const std::size_t pretrain = count(400, 100);
  const std::size_t n_values[] = {2, 4, 6, 8, 10};

  std::vector<double> bbr_tput;
  for (const std::size_t n : n_values) {
    cc_overhead_config cfg;
    cfg.scheme = cc_scheme::bbr;
    cfg.n_flows = n;
    cfg.duration = duration;
    bbr_tput.push_back(run_cc_overhead(cfg).mean_goodput);
  }

  struct scheme_case {
    cc_scheme scheme;
    double interval;
    std::string name;
  };
  const scheme_case cases[] = {
      {cc_scheme::cubic, 0, "CUBIC"},
      {cc_scheme::lf_aurora, 0, "LF-Aurora"},
      {cc_scheme::lf_mocc, 0, "LF-MOCC"},
      {cc_scheme::ccp_aurora, 1e-3, "CCP-Aurora-1ms"},
      {cc_scheme::ccp_aurora, 10e-3, "CCP-Aurora-10ms"},
      {cc_scheme::kernel_train_aurora, 0, "Kernel-Train"},
  };

  std::vector<std::string> headers{"N", "BBR(Gbps)"};
  for (const auto& c : cases) headers.push_back(c.name);
  text_table table{headers};

  report rep{"fig13", "deployment overhead: normalized throughput"};
  rep.config("duration", duration);

  for (std::size_t i = 0; i < std::size(n_values); ++i) {
    std::vector<std::string> row{std::to_string(n_values[i]),
                                 text_table::num(bbr_tput[i] / 1e9, 2)};
    rep.add_point("bbr_gbps", static_cast<double>(n_values[i]),
                  bbr_tput[i] / 1e9);
    for (const auto& c : cases) {
      cc_overhead_config cfg;
      cfg.scheme = c.scheme;
      cfg.ccp_interval = c.interval;
      cfg.n_flows = n_values[i];
      cfg.duration = duration;
      cfg.pretrain_iterations = pretrain;
      const auto r = run_cc_overhead(cfg);
      row.push_back(text_table::num(r.mean_goodput / bbr_tput[i], 2));
      rep.add_point("norm_" + c.name, static_cast<double>(n_values[i]),
                    r.mean_goodput / bbr_tput[i]);
    }
    table.add_row(std::move(row));
  }
  std::cout << "\naggregate throughput normalized to BBR:\n"
            << table.to_string();
  std::cout << "\nPaper shape: LF-* within ~5% of BBR and above CUBIC; CCP "
               "deployments degrade with N; in-kernel training is worst "
               "(~90% loss per §2.3).\n";
  write_report(rep);
  return 0;
}
