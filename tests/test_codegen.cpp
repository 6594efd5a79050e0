// Unit tests for src/codegen: the template engine, the C emitter, and the
// gcc+dlopen golden test proving generated code matches the interpreter.
#include <gtest/gtest.h>

#include <sstream>

#include "codegen/c_emitter.hpp"
#include "codegen/compiled_snapshot.hpp"
#include "codegen/snapshot.hpp"
#include "codegen/template_engine.hpp"
#include "nn/mlp.hpp"
#include "quant/quantizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;
using namespace lf::codegen;

// -------------------------------------------------------- template engine --

TEST(TemplateEngine, PlainTextPassesThrough) {
  EXPECT_EQ(render_template("hello world", {}), "hello world");
}

TEST(TemplateEngine, VariableSubstitution) {
  tcontext ctx;
  ctx["name"] = "fc_5";
  ctx["n"] = std::int64_t{16};
  EXPECT_EQ(render_template("static void {{ name }}_comp({{ n }})", ctx),
            "static void fc_5_comp(16)");
}

TEST(TemplateEngine, ForOverRange) {
  EXPECT_EQ(render_template("{% for i in range(0, 3) %}{{ i }},{% endfor %}",
                            {}),
            "0,1,2,");
}

TEST(TemplateEngine, ForOverArray) {
  tcontext ctx;
  ctx["xs"] = tvalue{std::vector<tvalue>{std::int64_t{7}, std::int64_t{9}}};
  EXPECT_EQ(render_template("{% for x in xs %}[{{ x }}]{% endfor %}", ctx),
            "[7][9]");
}

TEST(TemplateEngine, NestedLoopsAndIndexing) {
  tcontext ctx;
  ctx["m"] = tvalue{std::vector<tvalue>{
      tvalue{std::vector<tvalue>{std::int64_t{1}, std::int64_t{2}}},
      tvalue{std::vector<tvalue>{std::int64_t{3}, std::int64_t{4}}}}};
  const auto out = render_template(
      "{% for i in range(0, 2) %}{% for j in range(0, 2) %}"
      "{{ m[i][j] }} {% endfor %}{% endfor %}",
      ctx);
  EXPECT_EQ(out, "1 2 3 4 ");
}

TEST(TemplateEngine, LoopLastControlsSeparators) {
  const auto out = render_template(
      "{% for i in range(0, 3) %}{{ i }}{% if not loop.last %} + "
      "{% endif %}{% endfor %}",
      {});
  EXPECT_EQ(out, "0 + 1 + 2");
}

TEST(TemplateEngine, LoopFirstAndIndex0) {
  const auto out = render_template(
      "{% for i in range(5, 8) %}{% if loop.first %}^{% endif %}"
      "{{ loop.index0 }}{% endfor %}",
      {});
  EXPECT_EQ(out, "^012");
}

TEST(TemplateEngine, WhitespaceTrimming) {
  EXPECT_EQ(render_template("a   {{- 1 -}}   b", {}), "a1b");
  EXPECT_EQ(render_template("x {%- if 1 -%} y {%- endif -%} z", {}), "xyz");
}

TEST(TemplateEngine, LiteralBraceBeforeTag) {
  // "(void) {{% for ... %}" contains "{{%": a literal '{' then a tag.
  const auto out = render_template(
      "f(void) {{% for i in range(0, 2) %}x{{ i }};{% endfor %}}", {});
  EXPECT_EQ(out, "f(void) {x0;x1;}");
}

TEST(TemplateEngine, IfTruthiness) {
  tcontext ctx;
  ctx["empty"] = "";
  ctx["full"] = "yes";
  EXPECT_EQ(render_template("{% if empty %}A{% endif %}", ctx), "");
  EXPECT_EQ(render_template("{% if full %}A{% endif %}", ctx), "A");
  EXPECT_EQ(render_template("{% if not empty %}B{% endif %}", ctx), "B");
}

TEST(TemplateEngine, ErrorsCarryOffsets) {
  EXPECT_THROW(render_template("{{ unknown }}", {}), template_error);
  EXPECT_THROW(render_template("{% for i in range(0, 2) %}x", {}),
               template_error);
  EXPECT_THROW(render_template("{{ broken", {}), template_error);
  EXPECT_THROW(render_template("{% frob x %}", {}), template_error);
  try {
    render_template("abc {{ nope }}", {});
    FAIL() << "expected throw";
  } catch (const template_error& e) {
    EXPECT_GT(e.offset(), 0u);
  }
}

TEST(TemplateEngine, IndexOutOfRangeThrows) {
  tcontext ctx;
  ctx["a"] = tvalue{std::vector<tvalue>{std::int64_t{1}}};
  EXPECT_THROW(render_template("{{ a[3] }}", ctx), template_error);
}

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
  // tanh layers got lookup tables.
  EXPECT_NE(src.find("lut_0_values"), std::string::npos);
  EXPECT_NE(src.find("lut_2_eval"), std::string::npos);
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

// The reference the emitter's directly written arrays must reproduce byte
// for byte: the params template, rendered by the template engine.
constexpr std::string_view k_fc_params_template =
    R"(static const s64 fc_{{ prefix }}_w[{{ output_size }}][{{ input_size }}] = {
{% for row in weights %}	{ {% for w in row %}({{ w }}){% if not loop.last %}, {% endif %}{% endfor %} },
{% endfor %}};
static const s64 fc_{{ prefix }}_b[{{ output_size }}] = {
{% for b in bias %}	({{ b }}){% if not loop.last %},
{% endif %}{% endfor %}
};
)";

std::string reference_fc_params(const quant::qdense_layer& layer,
                                std::size_t index) {
  tcontext ctx;
  ctx["prefix"] = static_cast<std::int64_t>(index);
  ctx["input_size"] = static_cast<std::int64_t>(layer.input_size);
  ctx["output_size"] = static_cast<std::int64_t>(layer.output_size);
  std::vector<tvalue> rows;
  for (std::size_t i = 0; i < layer.output_size; ++i) {
    std::vector<tvalue> row;
    for (std::size_t j = 0; j < layer.input_size; ++j) {
      row.emplace_back(layer.weights[i * layer.input_size + j]);
    }
    rows.emplace_back(std::move(row));
  }
  ctx["weights"] = tvalue{std::move(rows)};
  ctx["bias"] =
      tvalue{std::vector<tvalue>(layer.biases.begin(), layer.biases.end())};
  return render_template(k_fc_params_template, ctx);
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
    os << values[i];
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

void expect_arrays_match_reference(const quant::quantized_mlp& program,
                                   const std::string& src) {
  for (std::size_t i = 0; i < program.layer_count(); ++i) {
    const auto& layer = program.layer(i);
    expect_block(src, reference_fc_params(layer, i));
    if (layer.lut) expect_block(src, reference_lut_values(*layer.lut, i));
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

TEST(CEmitter, ArraysMatchTemplateReferenceOnEdgeValues) {
  // Negative weights, weights at the int32 edge and biases at the s64 edge,
  // with a lookup table on the first layer.
  constexpr fp::s64 i32_max = std::numeric_limits<std::int32_t>::max();
  constexpr fp::s64 i32_min = std::numeric_limits<std::int32_t>::min();
  quant::qdense_layer l0;
  l0.input_size = 3;
  l0.output_size = 3;
  l0.weight_scale = 1 << 20;
  l0.weights = {-1, i32_max, i32_min, -i32_max, 0, -7, i32_max + 1, 1, -2};
  l0.biases = {fp::s64_max, fp::s64_min, -1};
  l0.act = nn::activation::tanh_act;
  l0.lut = quant::lookup_table::for_activation(nn::activation::tanh_act, 37,
                                               1000);
  quant::qdense_layer l1;
  l1.input_size = 3;
  l1.output_size = 1;
  l1.weight_scale = 3;
  l1.weights = {fp::s64_min, fp::s64_max, i32_min - 1};
  l1.biases = {fp::s64_min + 1};
  l1.act = nn::activation::linear;
  const quant::quantized_mlp program{3, 1000, {std::move(l0), std::move(l1)}};
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
  // Directly-built program whose weights defeat the no-saturation proof: the
  // emitter must fall back to an all-saturating chain that still matches.
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  quant::qdense_layer l;
  l.input_size = 2;
  l.output_size = 2;
  l.weight_scale = 4;
  l.weights = {fp::s64_max / 2, fp::s64_max / 3, -fp::s64_max / 2, 9};
  l.biases = {fp::s64_max / 5, -7};
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

TEST(CompiledSnapshot, RejectsGarbageSource) {
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  EXPECT_THROW(compiled_snapshot::compile("this is not C"),
               std::runtime_error);
}

}  // namespace
