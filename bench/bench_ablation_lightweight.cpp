// Ablation (§2.3): lightweight kernel-deployable inference artifacts.
//
// Compares the two "NN optimization abandoned" options the paper surveys —
// integer-quantized NN snapshots and distilled decision trees — on accuracy
// vs the FP teacher, artifact size, and per-inference work.  Either runs
// fine in kernel space; neither can adapt, which is the gap LiteFlow's slow
// path closes.  Also sweeps the activation-LUT size (a DESIGN.md knob).
#include "bench_common.hpp"

#include "quant/decision_tree.hpp"
#include "quant/lut.hpp"
#include "quant/quantizer.hpp"
#include "util/rng.hpp"

#include <cmath>

int main() {
  using namespace lf;
  using namespace lf::bench;
  using namespace lf::quant;

  print_header("Ablation (§2.3)", "lightweight inference artifacts");

  report rep{"ablation_lightweight", "lightweight inference artifacts"};

  // ------------------------------------------ quantized NN vs decision tree
  text_table table{{"teacher", "artifact", "mean|err|", "size(bytes)",
                    "work/inference"}};
  rng g{31};
  struct teacher_case {
    std::string name;
    nn::mlp net;
  };
  std::vector<teacher_case> teachers;
  teachers.push_back({"Aurora(30 in)", nn::make_aurora_net(g)});
  teachers.push_back({"FFNN(8 in)", nn::make_ffnn_flow_size_net(g)});

  for (auto& tc : teachers) {
    const auto q = quantize(tc.net);
    rng xs{32};
    double q_err = 0.0;
    std::size_t n = 0;
    for (int i = 0; i < 300; ++i) {
      std::vector<double> x(tc.net.input_size());
      for (auto& v : x) v = xs.uniform(-1, 1);
      const auto y = tc.net.forward(x);
      const auto yq = q.infer_float(x);
      for (std::size_t o = 0; o < y.size(); ++o) {
        q_err += std::abs(y[o] - yq[o]);
        ++n;
      }
    }
    table.add_row({tc.name, "quantized-NN",
                   text_table::num(q_err / static_cast<double>(n), 4),
                   std::to_string(q.parameter_bytes()),
                   std::to_string(q.mac_count()) + " MACs"});
    rep.summary(tc.name + ".quantized_nn_mean_abs_err",
                q_err / static_cast<double>(n));
    rep.summary(tc.name + ".quantized_nn_bytes",
                static_cast<double>(q.parameter_bytes()));

    dt_config dc;
    dc.max_depth = 10;
    dc.training_samples = 4096;
    const auto tree = decision_tree_snapshot::distill(tc.net, dc);
    table.add_row({tc.name, "decision-tree",
                   text_table::num(tree.mean_abs_error(tc.net, 300, 33), 4),
                   std::to_string(tree.node_count() * 24),
                   std::to_string(tree.depth()) + " compares"});
    rep.summary(tc.name + ".decision_tree_mean_abs_err",
                tree.mean_abs_error(tc.net, 300, 33));
    rep.summary(tc.name + ".decision_tree_bytes",
                static_cast<double>(tree.node_count() * 24));
  }
  std::cout << "\n" << table.to_string();

  // ------------------------------------------------------- LUT size sweep
  text_table lut_table{{"tanh-LUT entries", "max|err|", "bytes"}};
  for (const std::size_t entries : {64u, 256u, 1024u, 4096u}) {
    const auto lut =
        lookup_table::for_activation(nn::activation::tanh_act, entries, 1000);
    const double max_err =
        lut->max_abs_error([](double x) { return std::tanh(x); });
    lut_table.add_row({std::to_string(entries), text_table::num(max_err, 5),
                       std::to_string(entries * sizeof(fp::s64))});
    rep.add_point("tanh_lut_max_abs_err", static_cast<double>(entries),
                  max_err);
  }
  std::cout << "\nactivation lookup-table resolution (scale 1000):\n"
            << lut_table.to_string();
  std::cout << "\nTakeaway: the tree is cheaper per inference but far less "
               "faithful on high-dimensional inputs; the quantized NN "
               "tracks the teacher to ~1e-3 — and only it has a slow path "
               "to stay current.\n";
  write_report(rep);
  return 0;
}
