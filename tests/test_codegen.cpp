// Unit tests for src/codegen: the C emitter, and the gcc+dlopen golden tests
// proving generated code matches the interpreter.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>

#include "codegen/c_emitter.hpp"
#include "codegen/compiled_snapshot.hpp"
#include "codegen/snapshot.hpp"
#include "nn/mlp.hpp"
#include "quant/quantizer.hpp"
#include "random_qmlp.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;
using namespace lf::codegen;

// ------------------------------------------------------------- c emitter --

TEST(CEmitter, SourceContainsExpectedStructure) {
  rng g{50};
  const auto net = nn::make_aurora_net(g);
  const auto snap = generate_snapshot(net, "aurora", 3);
  const auto& src = snap.c_source;
  // Per-layer functions like the paper's Listing 2.
  EXPECT_NE(src.find("static void fc_0_comp"), std::string::npos);
  EXPECT_NE(src.find("static void fc_1_comp"), std::string::npos);
  EXPECT_NE(src.find("static void fc_2_comp"), std::string::npos);
  // The three tanh layers share one table: its values are written once,
  // and each layer gets its own eval.
  EXPECT_NE(src.find("static const s64 lut_0_values[1024]"),
            std::string::npos);
  EXPECT_EQ(src.find("lut_1_values"), std::string::npos);
  EXPECT_EQ(src.find("lut_2_values"), std::string::npos);
  EXPECT_NE(src.find("static s64 lut_1_eval"), std::string::npos);
  EXPECT_NE(src.find("static s64 lut_2_eval"), std::string::npos);
  // Only the helpers a layer calls: no relu, and the tables fit 64 bits.
  EXPECT_EQ(src.find("lf_relu"), std::string::npos);
  EXPECT_EQ(src.find("lf_mul_div"), std::string::npos);
  // Top-level inference entry point and kernel module registration.
  EXPECT_NE(src.find("int lf_nn_infer"), std::string::npos);
  EXPECT_NE(src.find("lf_register_model(\"aurora\", 3UL, 30, 1, 1000"),
            std::string::npos);
  EXPECT_NE(src.find("module_init"), std::string::npos);
  EXPECT_NE(src.find("MODULE_LICENSE"), std::string::npos);
}

TEST(CEmitter, ReluNetsHaveNoLut) {
  rng g{51};
  const auto net = nn::make_ffnn_flow_size_net(g);
  const auto snap = generate_snapshot(net, "ffnn", 1);
  EXPECT_EQ(snap.c_source.find("lut_"), std::string::npos);
  EXPECT_NE(snap.c_source.find("lf_relu("), std::string::npos);
}

TEST(Snapshot, MetadataMatchesModel) {
  rng g{52};
  const auto net = nn::make_lb_mlp_net(g, 4);
  const auto snap = generate_snapshot(net, "lb-mlp", 7);
  EXPECT_EQ(snap.name, "lb-mlp");
  EXPECT_EQ(snap.version, 7u);
  EXPECT_EQ(snap.input_size(), net.input_size());
  EXPECT_EQ(snap.output_size(), 4u);
}

// ------------------------------------ parameter arrays, byte for byte --

// C has no literal for s64_min, so the emitter spells it LF_S64_MIN.
std::string literal(fp::s64 v) {
  return v == fp::s64_min ? "LF_S64_MIN" : std::to_string(v);
}

// The reference the emitter's directly written arrays must reproduce byte
// for byte, written with a plain stream.
std::string reference_fc_params(const quant::qdense_layer& layer,
                                std::size_t index) {
  std::ostringstream os;
  os << "static const s64 fc_" << index << "_w[" << layer.output_size << "]["
     << layer.input_size << "] = {\n";
  for (std::size_t i = 0; i < layer.output_size; ++i) {
    os << "\t{ ";
    for (std::size_t j = 0; j < layer.input_size; ++j) {
      if (j != 0) os << ", ";
      os << '(' << literal(layer.weights[i * layer.input_size + j]) << ')';
    }
    os << " },\n";
  }
  os << "};\nstatic const s64 fc_" << index << "_b[" << layer.output_size
     << "] = {\n";
  for (std::size_t i = 0; i < layer.biases.size(); ++i) {
    if (i != 0) os << ",\n";
    os << "\t(" << literal(layer.biases[i]) << ')';
  }
  os << "\n};\n";
  return os.str();
}

// The reference for a table's entries: streamed, eight to a line.
std::string reference_lut_values(const quant::lookup_table& lut,
                                 std::size_t index) {
  std::ostringstream os;
  const auto& values = lut.values();
  os << "static const s64 lut_" << index << "_values[" << values.size()
     << "] = {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i % 8 == 0) os << "\n\t";
    os << literal(values[i]);
    if (i + 1 != values.size()) os << ", ";
  }
  os << "\n};\n";
  return os.str();
}

// `src` holds `want` exactly where its first line's declaration starts.
void expect_block(const std::string& src, const std::string& want) {
  const auto at = src.find(want.substr(0, want.find('=')));
  ASSERT_NE(at, std::string::npos) << want.substr(0, want.find('\n'));
  EXPECT_EQ(src.substr(at, want.size()), want);
}

// Each distinct table's values appear once, under the first layer that
// uses them.
void expect_arrays_match_reference(const quant::quantized_mlp& program,
                                   const std::string& src) {
  for (std::size_t i = 0; i < program.layer_count(); ++i) {
    const auto& layer = program.layer(i);
    expect_block(src, reference_fc_params(layer, i));
    const std::string values = "lut_" + std::to_string(i) + "_values";
    if (layer.lut && program.layer_lut_source(i) == i) {
      expect_block(src, reference_lut_values(*layer.lut, i));
    } else {
      EXPECT_EQ(src.find(values), std::string::npos) << values;
    }
  }
}

TEST(CEmitter, ArraysMatchTemplateReferenceOnPaperNets) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (int kind = 0; kind < 4; ++kind) {
      rng g{200 + 10 * seed + static_cast<std::uint64_t>(kind)};
      const nn::mlp net = kind == 0   ? nn::make_aurora_net(g)
                          : kind == 1 ? nn::make_mocc_net(g)
                          : kind == 2 ? nn::make_ffnn_flow_size_net(g)
                                      : nn::make_lb_mlp_net(g, 4);
      const auto snap = generate_snapshot(net, "ref", seed + 1);
      SCOPED_TRACE(::testing::Message() << "net " << kind << " seed " << seed);
      expect_arrays_match_reference(snap.program, snap.c_source);
    }
  }
}

// Negative weights, weights at the int32 edges (a program's weights fit
// int32) and biases at the s64 edges, with a lookup table on the first
// layer.
quant::quantized_mlp edge_value_program() {
  constexpr fp::s64 i32_max = std::numeric_limits<std::int32_t>::max();
  constexpr fp::s64 i32_min = std::numeric_limits<std::int32_t>::min();
  quant::qdense_layer l0;
  l0.input_size = 3;
  l0.output_size = 3;
  l0.weight_scale = 1 << 20;
  l0.weights = {-1, i32_max, i32_min, -i32_max, 0, -7, i32_min + 1, 1, -2};
  l0.biases = {fp::s64_max, fp::s64_min, -1};
  l0.act = nn::activation::tanh_act;
  l0.lut = quant::lookup_table::for_activation(nn::activation::tanh_act, 37,
                                               1000);
  quant::qdense_layer l1;
  l1.input_size = 3;
  l1.output_size = 1;
  l1.weight_scale = 3;
  l1.weights = {i32_min, i32_max, i32_max - 1};
  l1.biases = {fp::s64_min + 1};
  l1.act = nn::activation::linear;
  return quant::quantized_mlp{3, 1000, {std::move(l0), std::move(l1)}};
}

TEST(CEmitter, ArraysMatchTemplateReferenceOnEdgeValues) {
  const auto program = edge_value_program();
  expect_arrays_match_reference(program, emit_c_source(program, {}));
}

TEST(CEmitter, RejectsModelNamesThatEscapeTheSource) {
  rng g{55};
  const auto program = quant::quantize(nn::make_ffnn_flow_size_net(g));
  for (const char* name : {"a\"b", "x*/y", "a\nb", "a\\b", "", "a b"}) {
    EXPECT_THROW(emit_c_source(program, emit_options{name, 1}),
                 std::invalid_argument)
        << name;
  }
  for (const char* name : {"aurora", "lb-mlp", "rt-heavy", "mm-m0", "v1.2_x"}) {
    const auto src = emit_c_source(program, emit_options{name, 1});
    EXPECT_NE(src.find("lf_register_model(\"" + std::string{name} + "\""),
              std::string::npos);
  }
}

// ----------------------------------------------- compiled golden equality --

class CompiledGolden : public ::testing::TestWithParam<int> {};

TEST_P(CompiledGolden, GeneratedCodeMatchesInterpreterBitForBit) {
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  rng g{static_cast<std::uint64_t>(60 + GetParam())};
  nn::mlp net = [&]() {
    switch (GetParam()) {
      case 0:
        return nn::make_aurora_net(g);
      case 1:
        return nn::make_ffnn_flow_size_net(g);
      default:
        return nn::make_lb_mlp_net(g);
    }
  }();
  const auto snap = generate_snapshot(net, "golden", 1);
  const auto compiled = compiled_snapshot::compile(snap.c_source);
  rng xs{77};
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<fp::s64> x(net.input_size());
    for (auto& v : x) v = xs.uniform_int(-3000, 3000);
    const auto want = snap.program.infer(x);
    const auto got = compiled.infer(x, net.output_size());
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i]) << "output " << i << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Nets, CompiledGolden, ::testing::Values(0, 1, 2));

TEST(CompiledGolden, PropertyCorpusMatchesInterpreterBitForBit) {
  // The random_qmlp corpus: odd weight scales, shared and differing
  // tanh/sigmoid tables, widths 1-44, extreme layers (every third program)
  // and int32-edge weights and hidden outputs (every third); then the
  // edge-value program, whose s64_min bias is spelled LF_S64_MIN.  The
  // tallies show that the corpus both shares a table between layers and
  // mixes different tables in one program, and that some layers fail the
  // no-saturation proof, so their C has only the saturating chain.
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  rng g{0xc0de};
  int shared = 0;
  int mixed = 0;
  int saturating = 0;
  for (int trial = 0; trial <= 30; ++trial) {
    const auto q = trial < 30
                       ? test::random_qmlp(g, trial % 3 == 1, trial % 3 == 2)
                       : edge_value_program();
    for (std::size_t i = 0; i < q.layer_count(); ++i) {
      saturating += !q.layer_saturation_free(i);
    }
    std::vector<std::size_t> sources;
    for (std::size_t i = 0; i < q.layer_count(); ++i) {
      if (!q.layer(i).lut) continue;
      const std::size_t src = q.layer_lut_source(i);
      shared += src != i;
      if (src == i) sources.push_back(i);
    }
    mixed += sources.size() > 1;
    const auto compiled = compiled_snapshot::compile(emit_c_source(q, {}));
    for (int rep = 0; rep < 20; ++rep) {
      // In-bound inputs (the fast chain) first, then ones that mix in
      // huge values (the saturating chain).
      std::vector<fp::s64> x(q.input_size());
      for (auto& v : x) {
        v = rep < 10 || g.bernoulli(0.5)
                ? g.uniform_int(-2000, 2000)
                : g.uniform_int(fp::s64_min / 2, fp::s64_max / 2);
      }
      ASSERT_EQ(q.infer(x), compiled.infer(x, q.output_size()))
          << "trial " << trial << " rep " << rep;
    }
  }
  EXPECT_GT(shared, 0);
  EXPECT_GT(mixed, 0);
  EXPECT_GT(saturating, 0);
}

TEST(CompiledGolden, WideLutTierMatchesInterpreterBitForBit) {
  // A tanh table at scale 2^30 is too wide for 64-bit interpolation, so
  // its lut_0_eval runs the 128-bit tier (lf_mul_div).  Inputs up to the
  // fast-path bound sweep the table's whole domain.
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  rng g{64};
  quant::qdense_layer l0;
  l0.input_size = 3;
  l0.output_size = 5;
  l0.weight_scale = 16;
  for (int i = 0; i < 15; ++i) l0.weights.push_back(g.uniform_int(-64, 64));
  for (int i = 0; i < 5; ++i) {
    l0.biases.push_back(g.uniform_int(-1'000'000'000, 1'000'000'000));
  }
  l0.act = nn::activation::tanh_act;
  l0.lut = quant::lookup_table::for_activation(nn::activation::tanh_act, 64,
                                               fp::s64{1} << 30);
  quant::qdense_layer l1;
  l1.input_size = 5;
  l1.output_size = 2;
  l1.weight_scale = 1 << 10;
  for (int i = 0; i < 10; ++i) l1.weights.push_back(g.uniform_int(-999, 999));
  l1.biases = {12345, -678};
  l1.act = nn::activation::linear;
  const quant::quantized_mlp q{3, 1000, {std::move(l0), std::move(l1)}};
  ASSERT_EQ(q.layer_lut_tier(0), quant::lut_tier::bits128);
  const auto compiled = compiled_snapshot::compile(emit_c_source(q, {}));
  const fp::s64 bound = q.fastpath_input_bound();
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<fp::s64> x(3);
    for (auto& v : x) {
      v = rep % 4 == 3 ? g.uniform_int(fp::s64_min / 2, fp::s64_max / 2)
                       : g.uniform_int(-bound, bound);
    }
    ASSERT_EQ(q.infer(x), compiled.infer(x, 2)) << "rep " << rep;
  }
}

TEST(CompiledGolden, HugeValueTableMatchesInterpreter) {
  // Values near 2^62 fail the 64-bit tier's |v[i+1]| + |v[i]| bound, so
  // lut_0_eval takes the 128-bit chain (lf_mul_div), and exceed int32, so
  // the interpreter's fast paths run eval.  Every x across the domain and
  // past both ends, and inputs far outside it.
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  quant::qdense_layer l;
  l.input_size = 1;
  l.output_size = 1;
  l.weight_scale = 1;
  l.weights = {1};
  l.biases = {0};
  l.act = nn::activation::tanh_act;
  l.lut = std::make_shared<const quant::lookup_table>(
      [](double x) { return 0x1p62 - 1024.0 * x * x; }, -8.0, 8.0, 17, 1);
  const quant::quantized_mlp q{1, 1, {std::move(l)}};
  ASSERT_EQ(q.layer_lut_tier(0), quant::lut_tier::bits128);
  ASSERT_TRUE(q.layer_lut(0)->dense().empty());
  const std::string src = emit_c_source(q, {});
  EXPECT_NE(src.find("lf_mul_div"), std::string::npos);
  const auto compiled = compiled_snapshot::compile(src);
  std::vector<fp::s64> xs;
  for (fp::s64 x = -12; x <= 12; ++x) xs.push_back(x);
  xs.insert(xs.end(), {fp::s64_min, -(fp::s64{1} << 40), fp::s64{1} << 40,
                       fp::s64_max});
  for (const fp::s64 x : xs) {
    const fp::s64 in[] = {x};
    ASSERT_EQ(q.infer(in), compiled.infer(in, 1)) << "x " << x;
  }
}

TEST(CEmitter, FastVariantEmittedForSaturationFreeLayers) {
  rng g{53};
  const auto net = nn::make_aurora_net(g);
  const auto snap = generate_snapshot(net, "aurora", 1);
  // The quantizer's nets prove saturation-free on every layer, so the source
  // must carry both the saturating chain and the fast chain plus the runtime
  // input-bound dispatch that selects between them.
  EXPECT_NE(snap.c_source.find("fc_0_comp_fast"), std::string::npos);
  EXPECT_NE(snap.c_source.find("lf_sat_add"), std::string::npos);
  EXPECT_NE(snap.c_source.find("if (fast)"), std::string::npos);
}

TEST(CompiledGoldenSaturating, HugeInputsMatchInterpreterBitForBit) {
  // The emitted module dispatches between a plain fast chain and a fully
  // saturating chain exactly like the interpreter; inputs far outside the
  // fast-path bound must still agree bit-for-bit (legacy emitter silently
  // wrapped here).
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  rng g{61};
  const auto net = nn::make_aurora_net(g);
  const auto snap = generate_snapshot(net, "golden", 1);
  const auto compiled = compiled_snapshot::compile(snap.c_source);
  rng xs{78};
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<fp::s64> x(net.input_size());
    for (auto& v : x) {
      v = trial % 2 == 0
              ? xs.uniform_int(fp::s64_min / 2, fp::s64_max / 2)  // saturates
              : xs.uniform_int(-3000, 3000);  // straddle: fast chain
    }
    const auto want = snap.program.infer(x);
    const auto got = compiled.infer(x, net.output_size());
    ASSERT_EQ(want, got) << "trial " << trial;
  }
}

TEST(CompiledGoldenSaturating, HugeWeightsForceSaturatingChain) {
  // Directly-built program whose parameters defeat the no-saturation proof:
  // int32-limit weights take ~2^61 each of the accumulator at the input
  // bound 1000 * 2^20, and with a bias of 3/4 of s64_max output 0's worst
  // case leaves s64.  The emitter must fall back to an all-saturating chain
  // that still matches.
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  constexpr fp::s64 i32_max = std::numeric_limits<std::int32_t>::max();
  constexpr fp::s64 i32_min = std::numeric_limits<std::int32_t>::min();
  quant::qdense_layer l;
  l.input_size = 2;
  l.output_size = 2;
  l.weight_scale = 4;
  l.weights = {i32_max, i32_max - 1, i32_min, 9};
  l.biases = {fp::s64_max / 4 * 3, -7};
  l.act = nn::activation::relu;
  quant::quantized_mlp program{2, 1000, {std::move(l)}};
  EXPECT_FALSE(program.layer_saturation_free(0));
  const auto src = emit_c_source(program, {});
  EXPECT_EQ(src.find("fc_0_comp_fast"), std::string::npos);
  const auto compiled = compiled_snapshot::compile(src);
  rng xs{79};
  quant::inference_scratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<fp::s64> x(2);
    for (auto& v : x) v = xs.uniform_int(fp::s64_min / 2, fp::s64_max / 2);
    const auto want = program.infer(x);
    EXPECT_EQ(want, compiled.infer(x, 2)) << "trial " << trial;
    // And the interpreter fast path agrees with its own oracle here too.
    std::vector<fp::s64> got(2);
    program.infer_into(x, got, scratch);
    EXPECT_EQ(want, got) << "trial " << trial;
  }
}

TEST(CompiledSnapshot, InferIntoMatchesInfer) {
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  rng g{62};
  const auto net = nn::make_ffnn_flow_size_net(g);
  const auto snap = generate_snapshot(net, "golden", 1);
  const auto compiled = compiled_snapshot::compile(snap.c_source);
  std::vector<fp::s64> x(net.input_size(), 321);
  std::vector<fp::s64> out(net.output_size());
  compiled.infer_into(x, out);
  EXPECT_EQ(compiled.infer(x, net.output_size()), out);
}

/// A fresh directory whose name holds a space and a quote, made TMPDIR
/// until destroyed; then TMPDIR is restored and the directory removed.
class quoted_tmpdir {
 public:
  quoted_tmpdir()
      : path_{(std::filesystem::temp_directory_path() / "lf tmp 'q' XXXXXX")
                  .string()} {
    if (!::mkdtemp(path_.data())) throw std::runtime_error{"mkdtemp failed"};
    if (const char* old = std::getenv("TMPDIR")) old_ = old;
    ::setenv("TMPDIR", path_.c_str(), 1);
  }
  quoted_tmpdir(const quoted_tmpdir&) = delete;
  quoted_tmpdir& operator=(const quoted_tmpdir&) = delete;
  ~quoted_tmpdir() {
    if (old_) {
      ::setenv("TMPDIR", old_->c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::optional<std::string> old_;
};

TEST(CompiledSnapshot, CompilesUnderTmpdirWithSpaceAndQuote) {
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  rng g{63};
  const auto snap = generate_snapshot(nn::make_ffnn_flow_size_net(g), "q", 1);
  const quoted_tmpdir tmpdir;
  {
    const auto compiled = compiled_snapshot::compile(snap.c_source);
    std::vector<fp::s64> x(snap.input_size(), 321);
    EXPECT_EQ(compiled.infer(x, snap.output_size()), snap.program.infer(x));
  }
  EXPECT_TRUE(std::filesystem::is_empty(tmpdir.path())) << tmpdir.path();
}

TEST(CompiledSnapshot, RejectsGarbageSource) {
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  EXPECT_THROW(compiled_snapshot::compile("this is not C"),
               std::runtime_error);
}

}  // namespace
