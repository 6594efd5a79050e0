// Ablation (§3.4): flow consistency via the flow cache.
//
// Run many concurrent flows through the core module while snapshot updates
// keep switching the active model.  With the flow cache, a flow is pinned
// to the snapshot generation that served its first packet — zero mid-flow
// model changes; without it, every switch hits every live flow.  Also shows
// the pin side: pinned generations stay loaded until their flows finish.
//
// The core module serves through rt::datapath_engine, as every figure does,
// so the verdict checks flow consistency on the figures' code.  Exit code 1
// unless the cache keeps every flow on one generation, switches do reach
// live flows without it, and the cache holds more generations loaded.
#include "bench_common.hpp"

#include <iostream>

#include "codegen/snapshot.hpp"
#include "core/liteflow_core.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

int main() {
  using namespace lf;
  using namespace lf::bench;

  print_header("Ablation (§3.4)", "flow cache and flow consistency");

  report rep{"ablation_flow_cache", "flow cache and flow consistency"};
  rep.config("flows", 64.0);
  rep.config("queries_per_flow", 40.0);

  text_table table{{"flow-cache", "mid-flow model changes", "cache hits",
                    "generations pinned at end"}};

  std::uint64_t changes[2] = {0, 0};
  double pinned[2] = {0.0, 0.0};
  for (const bool cache_enabled : {true, false}) {
    sim::simulation s;
    kernelsim::cost_model costs;
    kernelsim::cpu_model cpu{s};
    core::liteflow_core core{s, cpu, costs, cache_enabled};
    metrics::registry reg;
    core.register_metrics(reg, "ablation");

    rng g{41};
    const auto net = nn::make_ffnn_flow_size_net(g);
    std::uint64_t version = 1;
    // With the flow cache on, pinned flows keep the demoted generation
    // loaded until they finish.
    auto install = [&]() {
      core.register_model(codegen::generate_snapshot(net, "m", version++));
      core.switch_active();
    };
    install();

    constexpr int k_flows = 64;
    constexpr int k_queries_per_flow = 40;
    constexpr double k_query_gap = 1e-3;
    std::vector<std::uint64_t> last_gen(k_flows, 0);
    std::uint64_t mid_flow_changes = 0;

    // Queries: every flow queries every ms; updates: every 10ms.
    for (int q = 0; q < k_queries_per_flow; ++q) {
      s.schedule_at(q * k_query_gap + 1e-6, [&]() {
        for (int f = 0; f < k_flows; ++f) {
          const auto gen = core.route(static_cast<netsim::flow_id_t>(f + 1));
          if (gen == 0) continue;
          auto& last = last_gen[static_cast<std::size_t>(f)];
          if (last != 0 && last != gen) ++mid_flow_changes;
          last = gen;
        }
      });
    }
    for (double t = 10e-3; t < k_queries_per_flow * k_query_gap; t += 10e-3) {
      s.schedule_at(t, [&]() { install(); });
    }
    s.run();

    const double hits =
        reg.find_gauge("ablation.core.router.cache_hits")->value();
    const double live =
        reg.find_gauge("ablation.core.router.versions_live")->value();
    table.add_row({cache_enabled ? "on" : "off",
                   std::to_string(mid_flow_changes),
                   std::to_string(static_cast<std::uint64_t>(hits)),
                   std::to_string(static_cast<std::uint64_t>(live))});
    const std::string tag = cache_enabled ? "cache_on" : "cache_off";
    rep.summary(tag + ".mid_flow_changes",
                static_cast<double>(mid_flow_changes));
    rep.summary(tag + ".cache_hits", hits);
    rep.summary(tag + ".generations_pinned", live);
    changes[cache_enabled ? 0 : 1] = mid_flow_changes;
    pinned[cache_enabled ? 0 : 1] = live;
  }
  std::cout << "\n" << table.to_string();
  std::cout << "\nDesign point: the cache guarantees one model generation "
               "per flow (no mid-flow decision discontinuities) at the cost "
               "of keeping superseded generations loaded until their flows "
               "drain; functions that tolerate switches (CC) disable it.\n";
  write_report(rep);

  bool ok = true;
  if (changes[0] != 0) {
    std::cerr << "FAIL: cache on, " << changes[0] << " mid-flow changes\n";
    ok = false;
  }
  if (changes[1] == 0) {
    std::cerr << "FAIL: cache off, switches reached no live flow\n";
    ok = false;
  }
  if (!(pinned[0] > pinned[1])) {
    std::cerr << "FAIL: cache on pins " << pinned[0]
              << " generations, cache off " << pinned[1] << "\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
