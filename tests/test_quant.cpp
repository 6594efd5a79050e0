// Unit tests for src/quant: lookup tables, the integer snapshot program,
// the quantizer's precision behaviour (the paper's Fig. 7 invariant: larger
// scaling factors -> smaller accuracy loss) and the fidelity-loss machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "nn/mlp.hpp"
#include "quant/fidelity.hpp"
#include "quant/lut.hpp"
#include "quant/quantized_mlp.hpp"
#include "quant/quantizer.hpp"
#include "random_qmlp.hpp"
#include "util/rng.hpp"

// This thread's operator new calls and bytes, counted so a test can check
// what copying a program allocates.
namespace {
thread_local std::size_t t_news = 0;
thread_local std::size_t t_new_bytes = 0;
}  // namespace

// Out of line, or GCC sees free() called on what new-expressions returned.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++t_news;
  t_new_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace lf;
using namespace lf::quant;
using namespace lf::test;

// ------------------------------------------------------------------- lut --

TEST(Lut, TanhEndpointsSaturate) {
  const auto lut = lookup_table::for_activation(nn::activation::tanh_act, 256,
                                                1000);
  EXPECT_EQ(lut->eval(-100000), lut->values().front());
  EXPECT_EQ(lut->eval(100000), lut->values().back());
  EXPECT_NEAR(lut->eval_float(0.0), 0.0, 1e-3);
  EXPECT_NEAR(lut->eval_float(1.0), std::tanh(1.0), 2e-3);
}

TEST(Lut, SigmoidMidpoint) {
  const auto lut = lookup_table::for_activation(nn::activation::sigmoid, 512,
                                                10000);
  EXPECT_NEAR(lut->eval_float(0.0), 0.5, 1e-3);
  EXPECT_NEAR(lut->eval_float(-12.5), 0.0, 1e-3);
  EXPECT_NEAR(lut->eval_float(12.5), 1.0, 1e-3);
}

TEST(Lut, DenseFormMatchesEvalOnQuantizerTables) {
  // The quantizer's tanh and sigmoid tables at io_scale 1000: the dense
  // form holds eval at every integer of the domain.
  for (const auto act : {nn::activation::tanh_act, nn::activation::sigmoid}) {
    for (const std::size_t entries : {128, 1024}) {
      const auto lut = lookup_table::for_activation(act, entries, 1000);
      const auto dense = lut->dense();
      ASSERT_EQ(dense.size(),
                static_cast<std::size_t>(lut->domain_span_q()) + 1);
      for (std::size_t i = 0; i < dense.size(); ++i) {
        ASSERT_EQ(dense[i],
                  lut->eval(lut->domain_low_q() + static_cast<fp::s64>(i)))
            << nn::to_string(act) << " " << entries << " i " << i;
      }
    }
  }
}

TEST(Lut, RejectsUnsupportedActivation) {
  EXPECT_THROW(lookup_table::for_activation(nn::activation::relu, 64, 1000),
               std::invalid_argument);
}

TEST(Lut, RejectsDegenerateConfig) {
  const auto f = [](double x) { return x; };
  EXPECT_THROW(lookup_table(f, 0.0, 1.0, 1, 1000), std::invalid_argument);
  EXPECT_THROW(lookup_table(f, 1.0, 0.0, 16, 1000), std::invalid_argument);
  EXPECT_THROW(lookup_table(f, 0.0, 1.0, 16, 0), std::invalid_argument);
  // A domain whose quantized span leaves s64.
  EXPECT_THROW(lookup_table(f, -1e300, 1e300, 16, 1000),
               std::invalid_argument);
}

TEST(Lut, EvalFloatSaturatesOutOfRangeInputs) {
  // llround gave INT64_MIN for +-inf, NaN and |x * scale| >= 2^63, so on
  // Aurora's tanh table each of these read the bottom entry (-1).  Now they
  // saturate: the positive ones read the top entry, the negative ones the
  // bottom entry, and NaN reads eval(0).
  const auto lut = lookup_table::for_activation(nn::activation::tanh_act,
                                                1024, 1000);
  const auto at = [](fp::s64 q) { return static_cast<double>(q) / 1000.0; };
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {inf, 1e300, 9.3e15}) {
    EXPECT_EQ(lut->eval_float(x), at(lut->values().back())) << x;
    EXPECT_EQ(lut->eval_float(-x), at(lut->values().front())) << -x;
  }
  EXPECT_EQ(lut->eval_float(std::nan("")), at(lut->eval(0)));
}

class LutPrecisionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, fp::s64>> {};

TEST_P(LutPrecisionSweep, ErrorShrinksWithResolution) {
  const auto [entries, scale] = GetParam();
  const auto lut =
      lookup_table::for_activation(nn::activation::tanh_act, entries, scale);
  const auto tanh_fn = [](double x) { return std::tanh(x); };
  const double err = lut->max_abs_error(tanh_fn);
  // Error bound: interpolation error O((dx)^2) plus quantization 1/scale.
  const double dx = 16.0 / static_cast<double>(entries - 1);
  const double bound = 0.2 * dx * dx + 2.0 / static_cast<double>(scale);
  EXPECT_LE(err, bound) << "entries=" << entries << " scale=" << scale;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LutPrecisionSweep,
    ::testing::Combine(::testing::Values(std::size_t{64}, std::size_t{256},
                                         std::size_t{1024}, std::size_t{4096}),
                       ::testing::Values(fp::s64{100}, fp::s64{1000},
                                         fp::s64{100000})));

// --------------------------------------------------------- quantized mlp --

TEST(QuantizedMlp, ValidatesLayerChain) {
  qdense_layer bad;
  bad.input_size = 3;
  bad.output_size = 2;
  bad.weights.assign(6, 1);
  bad.biases.assign(2, 0);
  bad.weight_scale = 16;
  // input_size 4 != layer's declared 3
  EXPECT_THROW(quantized_mlp(4, 1000, {bad}), std::invalid_argument);
}

TEST(QuantizedMlp, HandComputedExample) {
  // One layer: y = round((w*x + b) / w_scale); identity-ish check.
  qdense_layer layer;
  layer.input_size = 2;
  layer.output_size = 1;
  layer.weight_scale = 4;
  layer.weights = {8, -4};  // real weights 2 and -1
  layer.biases = {4000};    // real bias 1.0 at io_scale 1000 (4 * 1000)
  layer.act = nn::activation::linear;
  quantized_mlp q{2, 1000, {std::move(layer)}};
  // x = (0.5, 1.0) -> 2*0.5 - 1*1.0 + 1.0 = 1.0 -> 1000 at io scale.
  const fp::s64 in[] = {500, 1000};
  const auto out = q.infer(in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1000);
}

TEST(QuantizedMlp, ReluClampsNegativePreactivation) {
  qdense_layer layer;
  layer.input_size = 1;
  layer.output_size = 1;
  layer.weight_scale = 1;
  layer.weights = {1};
  layer.biases = {0};
  layer.act = nn::activation::relu;
  quantized_mlp q{1, 1000, {std::move(layer)}};
  const fp::s64 neg[] = {-500};
  EXPECT_EQ(q.infer(neg)[0], 0);
  const fp::s64 pos[] = {700};
  EXPECT_EQ(q.infer(pos)[0], 700);
}

// ------------------------------------------------- fast path (infer_into) --

TEST(QuantizedMlpFastPath, InferIntoMatchesInferBitForBit) {
  // The tally shows that the extreme half of the corpus has layers the
  // no-saturation proof fails, which run the saturating chain on every
  // call.
  rng g{0xfa57};
  inference_scratch scratch;
  std::size_t saturating = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const bool extreme = trial >= 100;
    const auto q = random_qmlp(g, extreme);
    for (std::size_t i = 0; i < q.layer_count(); ++i) {
      saturating += !q.layer_saturation_free(i);
    }
    for (int rep = 0; rep < 10; ++rep) {
      std::vector<fp::s64> x(q.input_size());
      for (auto& v : x) {
        // Mix of in-bound inputs (fast mode) and enormous ones (forces the
        // all-saturating mode); both must equal the legacy oracle exactly.
        v = g.bernoulli(0.85) ? g.uniform_int(-2000, 2000)
                              : g.uniform_int(fp::s64_min / 2, fp::s64_max / 2);
      }
      const auto expect = q.infer(x);
      std::vector<fp::s64> got(q.output_size());
      q.infer_into(x, got, scratch);
      ASSERT_EQ(expect, got) << "trial " << trial << " rep " << rep;
    }
  }
  EXPECT_GT(saturating, 0u);
}

/// True when infer_batch_into's blocks of q run on the sample lanes on this
/// CPU: every layer saturation-free (so with an operand proof), with a
/// power-of-two weight scale and no table or one with a dense form.
bool takes_sample_lanes(const quantized_mlp& q) {
  if (!quantized_mlp::simd_dispatch()) return false;
  for (std::size_t i = 0; i < q.layer_count(); ++i) {
    const fp::s64 ws = q.layer_weight_scale(i);
    const lookup_table* lut = q.layer_lut(i);
    if (!q.layer_saturation_free(i) || (ws & (ws - 1)) != 0 ||
        (lut != nullptr && lut->dense().empty())) {
      return false;
    }
  }
  return true;
}

/// infer() on each of the k rows of `inputs`, concatenated.
std::vector<fp::s64> infer_rows(const quantized_mlp& q,
                                std::span<const fp::s64> inputs,
                                std::size_t k) {
  std::vector<fp::s64> out;
  for (std::size_t s = 0; s < k; ++s) {
    const auto row =
        q.infer(inputs.subspan(s * q.input_size(), q.input_size()));
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

/// infer_batch_into on the k rows of `inputs`.
std::vector<fp::s64> batch_rows(const quantized_mlp& q,
                                std::span<const fp::s64> inputs,
                                std::size_t k, inference_scratch& scratch) {
  std::vector<fp::s64> out(k * q.output_size());
  q.infer_batch_into(inputs, k, out, scratch);
  return out;
}

TEST(QuantizedMlpFastPath, InferBatchMatchesScalarBitForBit) {
  // The batched kernel must be indistinguishable from k scalar infer_into
  // calls: on batches that mix fast-mode samples with ones beyond the
  // no-saturation bound, and on all-in-bound batches of every k in 0..20
  // and 33..80 on programs that take the sample lanes, so whole blocks,
  // tails on both sides of the break-even and the empty batch all run.
  rng g{0xba7c};
  inference_scratch scratch;
  const auto expect_scalar = [](const quantized_mlp& q,
                                std::span<const fp::s64> inputs,
                                std::size_t k) {
    std::vector<fp::s64> expect(k * q.output_size());
    inference_scratch scalar_scratch;
    for (std::size_t s = 0; s < k; ++s) {
      q.infer_into(inputs.subspan(s * q.input_size(), q.input_size()),
                   std::span<fp::s64>{expect}.subspan(s * q.output_size(),
                                                      q.output_size()),
                   scalar_scratch);
    }
    return expect;
  };
  for (int trial = 0; trial < 60; ++trial) {
    const auto q = random_qmlp(g, trial >= 30);
    const auto k = static_cast<std::size_t>(
        trial % 5 == 0 ? g.uniform_int(33, 80) : g.uniform_int(0, 8));
    std::vector<fp::s64> inputs(k * q.input_size());
    for (auto& v : inputs) {
      v = g.bernoulli(0.85) ? g.uniform_int(-2000, 2000)
                            : g.uniform_int(fp::s64_min / 2, fp::s64_max / 2);
    }
    ASSERT_EQ(expect_scalar(q, inputs, k), batch_rows(q, inputs, k, scratch))
        << "trial " << trial << " k " << k;
  }
  std::size_t lane_programs = 0;
  for (std::size_t k = 0; k <= 80; k = k == 20 ? 33 : k + 1) {
    auto q = random_qmlp(g, false);
    for (int draw = 0; draw < 100 && !takes_sample_lanes(q); ++draw) {
      q = random_qmlp(g, false);
    }
    lane_programs += takes_sample_lanes(q);
    std::vector<fp::s64> inputs(k * q.input_size());
    for (auto& v : inputs) v = g.uniform_int(-2000, 2000);
    const auto got = batch_rows(q, inputs, k, scratch);
    ASSERT_EQ(expect_scalar(q, inputs, k), got) << "in bound, k " << k;
    ASSERT_EQ(infer_rows(q, inputs, k), got) << "in bound, k " << k;
  }
  if (quantized_mlp::simd_dispatch()) {
    EXPECT_EQ(lane_programs, 21u + 48u);
  }
}

TEST(QuantizedMlpFastPath, InferBatchOutOfBoundSampleAtEachLane) {
  // One value outside the lanes' input range in sample p, for every p of a
  // whole block (k = 8) and of a block plus a tail (k = 13: the second
  // block holds 5 real samples and 3 spare lanes repeating sample 12).
  // The range is fastpath_input_bound() for LB-MLP, whose first layer's
  // operands are proven, and int32 for a program at io_scale 2^12, whose
  // bound 2^32 leaves them to the per-call check.  The values sit at
  // both ends of the range and one past each; every output must equal
  // infer().
  rng g{0x0b0d};
  qdense_layer wide_layer;
  wide_layer.input_size = 3;
  wide_layer.output_size = 5;
  wide_layer.weight_scale = 16;
  for (int i = 0; i < 15; ++i) {
    wide_layer.weights.push_back(g.uniform_int(-64, 64));
  }
  wide_layer.biases.assign(5, 1000);
  wide_layer.act = nn::activation::relu;
  const quantized_mlp progs[] = {
      quantize(nn::make_lb_mlp_net(g)),
      quantized_mlp{3, fp::s64{1} << 12, {wide_layer}}};
  ASSERT_EQ(progs[0].layer_operand_proof(0), operand_proof::proven);
  ASSERT_EQ(progs[1].layer_operand_proof(0), operand_proof::per_call);
  inference_scratch scratch;
  for (const quantized_mlp& q : progs) {
    ASSERT_EQ(takes_sample_lanes(q), quantized_mlp::simd_dispatch());
    const fp::s64 hi = std::min(q.fastpath_input_bound(), i32_max);
    const fp::s64 lo = std::max(-q.fastpath_input_bound(), i32_min);
    const std::size_t in = q.input_size();
    for (const std::size_t k : {8, 13}) {
      for (std::size_t p = 0; p < k; ++p) {
        for (const fp::s64 v : {hi, hi + 1, lo, lo - 1, fp::s64_max}) {
          std::vector<fp::s64> x(k * in);
          for (auto& e : x) e = g.uniform_int(-900, 900);
          x[p * in + static_cast<std::size_t>(g.uniform_int(
                         0, static_cast<fp::s64>(in) - 1))] = v;
          ASSERT_EQ(infer_rows(q, x, k), batch_rows(q, x, k, scratch))
              << "io_scale " << q.io_scale() << " k " << k << " sample " << p
              << " value " << v;
        }
      }
    }
  }
}

TEST(QuantizedMlpFastPath, InferBatchInt32FailureInOneLane) {
  // random_qmlp's edge programs put hidden outputs near +-2^31, and inputs
  // up to 10^9 (still within the bound) push others past it.  On programs
  // that take the sample lanes, a block holds 8 copies of a sample whose
  // hidden rows fit int32, except lane p, which holds a sample with a
  // hidden value outside int32: exactly one lane fails the check in the
  // epilogue of a layer that feeds another.  The block must leave the
  // lanes and still equal infer() in every lane, for every p.
  rng g{0x1a4e};
  inference_scratch scratch;
  std::size_t programs = 0;
  for (int trial = 0; trial < 3000 && programs < 12; ++trial) {
    const auto q = random_qmlp(g, false, true);
    if (q.layer_count() < 2 || !takes_sample_lanes(q)) continue;
    const std::size_t in = q.input_size();
    std::vector<quantized_mlp> prefixes;  // layers 0..li, li < last
    for (std::size_t li = 0; li + 1 < q.layer_count(); ++li) {
      std::vector<qdense_layer> layers;
      for (std::size_t p = 0; p <= li; ++p) layers.push_back(q.layer(p));
      prefixes.emplace_back(in, q.io_scale(), std::move(layers));
    }
    const auto hidden_fits = [&](const std::vector<fp::s64>& x) {
      return std::all_of(prefixes.begin(), prefixes.end(), [&](const auto& p) {
        const auto h = p.infer(x);
        return std::all_of(h.begin(), h.end(), [](fp::s64 v) {
          return v >= i32_min && v <= i32_max;
        });
      });
    };
    std::optional<std::vector<fp::s64>> fits;
    std::optional<std::vector<fp::s64>> fails;
    for (int draw = 0; draw < 64 && !(fits && fails); ++draw) {
      // Within the input bound (1000 * 2^20) either way.
      const fp::s64 mag = draw % 2 == 0 ? 2000 : 1000000000;
      std::vector<fp::s64> x(in);
      for (auto& v : x) v = g.uniform_int(-mag, mag);
      (hidden_fits(x) ? fits : fails) = std::move(x);
    }
    if (!fits || !fails) continue;
    ++programs;
    for (std::size_t p = 0; p < 8; ++p) {
      std::vector<fp::s64> x;
      for (std::size_t s = 0; s < 8; ++s) {
        const auto& row = s == p ? *fails : *fits;
        x.insert(x.end(), row.begin(), row.end());
      }
      ASSERT_EQ(infer_rows(q, x, 8), batch_rows(q, x, 8, scratch))
          << "trial " << trial << " failing lane " << p;
    }
  }
  if (quantized_mlp::simd_dispatch()) {
    EXPECT_EQ(programs, 12u);
  }
}

TEST(QuantizedMlpFastPath, InferBatchValidatesSpanSizes) {
  rng g{52};
  const auto q = quantize(nn::make_ffnn_flow_size_net(g));
  inference_scratch scratch;
  std::vector<fp::s64> in(3 * q.input_size(), 0);
  std::vector<fp::s64> out(3 * q.output_size());
  EXPECT_NO_THROW(q.infer_batch_into(in, 3, out, scratch));
  EXPECT_THROW(q.infer_batch_into(in, 2, out, scratch), std::invalid_argument);
  std::vector<fp::s64> out_bad(2 * q.output_size());
  EXPECT_THROW(q.infer_batch_into(in, 3, out_bad, scratch),
               std::invalid_argument);
  // LB-MLP has 6 inputs and 2 outputs: at k = 2^63 both sizes wrap to 0,
  // which empty spans would match.
  const auto lb = quantize(nn::make_lb_mlp_net(g));
  const std::size_t huge = std::size_t{1} << 63;
  EXPECT_THROW(lb.infer_batch_into({}, huge, {}, scratch),
               std::invalid_argument);
  EXPECT_THROW(q.infer_batch_into({}, huge, {}, scratch),
               std::invalid_argument);
}

TEST(QuantizedMlpFastPath, PaperNetsUseFastModeAndMatch) {
  // The quantizer's own output (paper nets) must be saturation-free on every
  // layer — the whole point of the bound precomputation — and bit-exact.
  rng g{0x5eed};
  for (int which = 0; which < 4; ++which) {
    nn::mlp net = [&]() {
      switch (which) {
        case 0:
          return nn::make_aurora_net(g);
        case 1:
          return nn::make_mocc_net(g);
        case 2:
          return nn::make_ffnn_flow_size_net(g);
        default:
          return nn::make_lb_mlp_net(g);
      }
    }();
    const auto q = quantize(net);
    for (std::size_t i = 0; i < q.layer_count(); ++i) {
      EXPECT_TRUE(q.layer_saturation_free(i)) << "net " << which << " layer "
                                              << i;
      // Saturation-free layers qualify for the int32 kernel (every weight
      // fits int32 by construction); Aurora's inputs (bound 1000 * 2^20)
      // and tanh outputs (<= 1000) prove its operands statically.
      EXPECT_NE(q.layer_operand_proof(i), operand_proof::none)
          << "net " << which << " layer " << i;
      if (which == 0) {
        EXPECT_EQ(q.layer_operand_proof(i), operand_proof::proven) << i;
      }
    }
    EXPECT_GE(q.fastpath_input_bound(), 1000 * 1000);
    inference_scratch scratch;
    scratch.reserve(q);
    std::vector<fp::s64> x(q.input_size());
    std::vector<fp::s64> out(q.output_size());
    for (int rep = 0; rep < 50; ++rep) {
      for (auto& v : x) v = g.uniform_int(-1000, 1000);
      q.infer_into(x, out, scratch);
      EXPECT_EQ(q.infer(x), out);
    }
  }
}

TEST(QuantizedMlpFastPath, Int32OperandEdgesAgreeAcrossKernels) {
  // infer (the saturating oracle), infer_into and infer_batch_into must
  // agree bit-for-bit on programs whose weights sit at the int32 limits and
  // whose hidden outputs straddle +-2^31; every fourth program also has
  // extreme layers, which the no-saturation proof fails.  Layers without an
  // operand proof run the same scalar code a CPU without AVX2 runs, so
  // these trials cover that branch too.  The tallies show that every proof
  // kind occurred and that the per-call scan both passed and failed.
  rng g{0x1e32};
  inference_scratch scratch;
  inference_scratch batch_scratch;
  std::size_t proofs[3] = {};
  std::size_t scan_pass = 0;
  std::size_t scan_fail = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto q = random_qmlp(g, trial % 4 == 0, true);
    for (std::size_t i = 0; i < q.layer_count(); ++i) {
      ++proofs[static_cast<int>(q.layer_operand_proof(i))];
    }
    const auto k = static_cast<std::size_t>(g.uniform_int(1, 40));
    std::vector<fp::s64> inputs(k * q.input_size());
    for (auto& v : inputs) {
      const fp::s64 edge[] = {i32_min - 1, i32_min, i32_max, i32_max + 1};
      v = g.bernoulli(0.9) ? g.uniform_int(-2000, 2000)
                           : edge[g.uniform_int(0, 3)];
    }
    const std::size_t in_sz = q.input_size();
    const std::size_t out_sz = q.output_size();
    std::vector<fp::s64> got(k * out_sz);
    for (std::size_t s = 0; s < k; ++s) {
      const std::span<const fp::s64> x{inputs.data() + s * in_sz, in_sz};
      const std::span<fp::s64> y{got.data() + s * out_sz, out_sz};
      q.infer_into(x, y, scratch);
      ASSERT_TRUE(std::equal(y.begin(), y.end(), q.infer(x).begin()))
          << "trial " << trial << " sample " << s;
      // Replay the prefix to see what each per-call layer's scan sees on
      // in-bound calls (out-of-bound calls run saturating throughout).
      const bool in_bounds = std::all_of(x.begin(), x.end(), [&](fp::s64 v) {
        return v >= -q.fastpath_input_bound() && v <= q.fastpath_input_bound();
      });
      for (std::size_t li = 1; in_bounds && li < q.layer_count(); ++li) {
        if (q.layer_operand_proof(li) != operand_proof::per_call) continue;
        std::vector<qdense_layer> prefix;
        for (std::size_t p = 0; p < li; ++p) prefix.push_back(q.layer(p));
        const auto hidden =
            quantized_mlp{in_sz, 1000, std::move(prefix)}.infer(x);
        const bool fits = std::all_of(
            hidden.begin(), hidden.end(),
            [](fp::s64 v) { return v >= i32_min && v <= i32_max; });
        ++(fits ? scan_pass : scan_fail);
      }
    }
    std::vector<fp::s64> batch(k * out_sz);
    q.infer_batch_into(inputs, k, batch, batch_scratch);
    ASSERT_EQ(got, batch) << "trial " << trial << " k " << k;
  }
  EXPECT_GT(proofs[static_cast<int>(operand_proof::none)], 0u);
  EXPECT_GT(proofs[static_cast<int>(operand_proof::per_call)], 0u);
  EXPECT_GT(proofs[static_cast<int>(operand_proof::proven)], 0u);
  EXPECT_GT(scan_pass, 0u);
  EXPECT_GT(scan_fail, 0u);
}

/// A one-layer program whose only table is `lut`: out[i] = lut.eval(x + i),
/// i < outputs.  Either LUT activation runs the table.
quantized_mlp lut_program(std::shared_ptr<const lookup_table> lut,
                          nn::activation act = nn::activation::tanh_act,
                          std::size_t outputs = 1) {
  qdense_layer l;
  l.input_size = 1;
  l.output_size = outputs;
  l.weight_scale = 1;
  l.weights.assign(outputs, 1);
  for (std::size_t i = 0; i < outputs; ++i) {
    l.biases.push_back(static_cast<fp::s64>(i));
  }
  l.act = act;
  const fp::s64 scale = lut->scale();
  l.lut = std::move(lut);
  return quantized_mlp{1, scale, {std::move(l)}};
}

/// Every x in [first, last] through the one-input, one-output program q:
/// one infer_into per x, and infer_batch_into 64 x at a time (the last
/// batch short, so a tail block runs too).  Returns the first x at which
/// either differs from lut.eval(x).
std::optional<fp::s64> first_table_mismatch(const quantized_mlp& q,
                                            const lookup_table& lut,
                                            fp::s64 first, fp::s64 last) {
  constexpr std::size_t k = 64;
  inference_scratch scratch;
  std::vector<fp::s64> xs;
  std::vector<fp::s64> batch(k);
  fp::s64 out = 0;
  for (fp::s64 base = first; base <= last; base += k) {
    xs.clear();
    for (fp::s64 x = base; x <= last && xs.size() < k; ++x) xs.push_back(x);
    q.infer_batch_into(xs, xs.size(), {batch.data(), xs.size()}, scratch);
    for (std::size_t r = 0; r < xs.size(); ++r) {
      q.infer_into({&xs[r], 1}, {&out, 1}, scratch);
      const fp::s64 expect = lut.eval(xs[r]);
      if (out != expect || batch[r] != expect) return xs[r];
    }
  }
  return std::nullopt;
}

TEST(QuantizedMlpFastPath, LutLayerMatchesTableAcrossWholeDomain) {
  // The quantizer's default tanh and sigmoid tables at io_scale 1000 (with a
  // dense form) and 300000 (none: over 2^16 domain integers, so the fast
  // paths run eval): every x_q from just below the domain to just above it,
  // through a one-layer program's infer_into and infer_batch_into (the
  // sample lanes for the dense tables), against the table's own eval.
  const std::size_t entries = quantizer_config{}.lut_entries;
  for (const auto act : {nn::activation::tanh_act, nn::activation::sigmoid}) {
    for (const fp::s64 scale : {fp::s64{1000}, fp::s64{300000}}) {
      const auto lut = lookup_table::for_activation(act, entries, scale);
      const quantized_mlp one = lut_program(lut, act);
      EXPECT_EQ(one.layer_lut_tier(0), lut_tier::bits64);
      EXPECT_EQ(lut->dense().empty(), scale != 1000);
      const auto bad =
          first_table_mismatch(one, *lut, lut->domain_low_q() - 2,
                               lut->domain_low_q() + lut->domain_span_q() + 2);
      EXPECT_FALSE(bad.has_value())
          << "x_q " << bad.value_or(0) << " scale " << scale;
    }
  }
}

TEST(QuantizedMlpFastPath, RandomLutTablesMatchEval) {
  // Tables with large, irregular adjacent deltas and every kind of step
  // (odd, even, power of two), so the rounding division meets remainders
  // just below, at and above half the step, which the smooth default
  // tables never produce.  Every x_q across the domain, plus a margin,
  // through infer_into and infer_batch_into.
  rng g{0x1a7};
  std::size_t checked = 0;
  std::size_t dense = 0;
  for (int t = 0; t < 60; ++t) {
    const fp::s64 scale = t < 4 ? 1 : g.uniform_int(1, 4000);
    const double lo = t < 4 ? -512.0 * (t + 1) : g.uniform(-5.0, -0.01);
    const double hi = t < 4 ? 512.0 * (t + 1) : g.uniform(0.01, 5.0);
    const auto entries = static_cast<std::size_t>(g.uniform_int(2, 64));
    const double amp = g.uniform(1.0, 1e6);
    const double freq = g.uniform(0.5, 40.0);
    const lookup_table lut{[&](double x) { return amp * std::sin(freq * x); },
                           lo, hi, entries, scale};
    const quantized_mlp one =
        lut_program(std::make_shared<const lookup_table>(lut));
    dense += lut.dense().empty() ? 0 : 1;
    const fp::s64 first = lut.domain_low_q() - 2;
    const fp::s64 last = lut.domain_low_q() + lut.domain_span_q() + 2;
    const auto bad = first_table_mismatch(one, lut, first, last);
    ASSERT_FALSE(bad.has_value()) << "table " << t << " x_q " << *bad;
    checked += static_cast<std::size_t>(last - first + 1);
  }
  EXPECT_GT(checked, 100000u);
  // Tables whose values fit int32 are read from their dense form, the
  // larger amplitudes through eval.
  EXPECT_GT(dense, 0u);
  EXPECT_LT(dense, 60u);
}

TEST(QuantizedMlp, QuantizerTablesTakeLaneTier) {
  // The lanes read every table the default quantizer builds, through its
  // dense form: tanh and sigmoid, 128 or 1024 entries, io_scale 1 to 1000.
  // At 10^4 the domains hold over 2^16 integers, and those layers run eval.
  // The C interpolates all of them on the 64-bit chain.
  for (const auto act : {nn::activation::tanh_act, nn::activation::sigmoid}) {
    for (const std::size_t entries : {128, 1024}) {
      for (const fp::s64 scale : {1, 10, 100, 1000, 10000}) {
        const auto lut = lookup_table::for_activation(act, entries, scale);
        const auto q = lut_program(lut, act);
        EXPECT_EQ(q.layer_lut_tier(0), lut_tier::bits64)
            << nn::to_string(act) << " " << entries << " " << scale;
        EXPECT_EQ(lut->dense().empty(), scale == 10000)
            << nn::to_string(act) << " " << entries << " " << scale;
      }
    }
  }
}

TEST(QuantizedMlpFastPath, DenseFormEdgesMatchEval) {
  // Tables at the edges of the dense form: a domain of 2^16 integers (dense)
  // and of 2^16 + 1 (none), and max |value| INT32_MAX (dense) and
  // INT32_MAX + 1, as INT32_MIN or above INT32_MAX (none).  Five outputs see
  // x..x+4, so lanes 0-3 and a second group's lane 0 all read the table.
  // Every x from 6 below the domain to 6 above it, and inputs far outside,
  // through infer_into, infer_batch_into and infer() against eval.  ASan
  // does not instrument gathers, so the lanes' index, clamp(x) - lo, is
  // checked against the dense() allocation here.
  const fp::s64 i31 = fp::s64{1} << 31;
  const auto wave = [](double x) { return 30000.0 * std::sin(x / 5000.0); };
  // Two entries at scale 1: y_lo at x = lo, y_hi at x = hi.
  const auto ramp = [](double lo, double hi, double y_lo, double y_hi) {
    return lookup_table{
        [=](double x) { return y_lo + (y_hi - y_lo) * (x - lo) / (hi - lo); },
        lo, hi, 2, 1};
  };
  struct edge {
    lookup_table lut;
    bool dense;
  };
  const edge tables[] = {
      {lookup_table{wave, 0.0, 65535.0, 1024, 1}, true},
      {lookup_table{wave, 0.0, 65536.0, 1024, 1}, false},
      {ramp(-300.0, 700.0, static_cast<double>(-(i31 - 1)),
            static_cast<double>(i31 - 1)),
       true},
      {ramp(-300.0, 700.0, static_cast<double>(i31 - 1),
            static_cast<double>(-i31)),
       false},
      {ramp(0.0, 9.0, 5.0, static_cast<double>(i31)), false},
  };
  constexpr std::size_t outputs = 5;
  constexpr std::size_t k = 61;  // batches that straddle the 8-sample blocks
  for (std::size_t t = 0; t < std::size(tables); ++t) {
    const quantized_mlp q =
        lut_program(std::make_shared<const lookup_table>(tables[t].lut),
                    nn::activation::tanh_act, outputs);
    const lookup_table& lut = *q.layer_lut(0);
    const fp::s64 lo = lut.domain_low_q();
    const fp::s64 span = lut.domain_span_q();
    ASSERT_EQ(lut.dense().empty(), !tables[t].dense) << "table " << t;
    std::vector<fp::s64> xs;
    for (fp::s64 x = lo - 6 - fp::s64{outputs}; x <= lo + span + 6; ++x) {
      xs.push_back(x);
    }
    const fp::s64 bound = q.fastpath_input_bound();
    xs.insert(xs.end(), {-bound, bound - 4, fp::s64{INT32_MIN},
                         fp::s64{INT32_MAX} - 4, fp::s64_min / 2,
                         fp::s64_max / 2});
    inference_scratch scratch;
    std::vector<fp::s64> out(outputs);
    std::vector<fp::s64> batch(k * outputs);
    for (std::size_t base = 0; base < xs.size(); base += k) {
      const std::size_t rows = std::min(k, xs.size() - base);
      q.infer_batch_into({xs.data() + base, rows}, rows,
                         {batch.data(), rows * outputs}, scratch);
      for (std::size_t r = 0; r < rows; ++r) {
        const fp::s64 x = xs[base + r];
        q.infer_into({&x, 1}, out, scratch);
        const auto oracle = q.infer({&x, 1});
        for (std::size_t i = 0; i < outputs; ++i) {
          const fp::s64 pre = x + static_cast<fp::s64>(i);
          const fp::s64 expect = lut.eval(pre);
          if (tables[t].dense) {
            const fp::s64 idx = std::clamp(pre, lo, lo + span) - lo;
            ASSERT_LT(static_cast<std::size_t>(idx), lut.dense().size());
            ASSERT_EQ(lut.dense()[static_cast<std::size_t>(idx)], expect)
                << "table " << t << " x " << pre;
          }
          ASSERT_EQ(oracle[i], expect) << "table " << t << " x " << pre;
          ASSERT_EQ(out[i], expect) << "table " << t << " x " << pre;
          ASSERT_EQ(batch[r * outputs + i], expect)
              << "table " << t << " x " << pre;
        }
      }
    }
  }
}

TEST(QuantizedMlp, ReportsLutTierAndSharedTableSource) {
  // Layers 0 and 2 hold equal tanh tables, layer 2's a separate copy, so
  // they count as one table by value, not by address; the sigmoid table,
  // the scale-10^6 tanh table and the scale-2^30 tanh table (too wide for
  // 64-bit interpolation) are their own.
  const auto lut = [](nn::activation act, std::size_t entries, fp::s64 scale) {
    return lookup_table::for_activation(act, entries, scale);
  };
  const auto tanh = lut(nn::activation::tanh_act, 1024, 1000);
  const std::shared_ptr<const lookup_table> tables[] = {
      tanh, nullptr, std::make_shared<const lookup_table>(*tanh),
      lut(nn::activation::sigmoid, 1024, 1000),
      lut(nn::activation::tanh_act, 1024, 1000000),
      lut(nn::activation::tanh_act, 64, fp::s64{1} << 30)};
  std::vector<qdense_layer> layers;
  for (const auto& table : tables) {
    qdense_layer l;
    l.input_size = 2;
    l.output_size = 2;
    l.weights = {1, 2, 3, 4};
    l.biases = {5, 6};
    l.act = table ? nn::activation::tanh_act : nn::activation::relu;
    l.lut = table;
    layers.push_back(std::move(l));
  }
  const quantized_mlp q{2, 1000, std::move(layers)};
  const lut_tier tiers[] = {lut_tier::bits64, lut_tier::none,
                            lut_tier::bits64, lut_tier::bits64,
                            lut_tier::bits64, lut_tier::bits128};
  const std::size_t sources[] = {0, 1, 0, 3, 4, 5};
  for (std::size_t i = 0; i < q.layer_count(); ++i) {
    EXPECT_EQ(q.layer_lut_tier(i), tiers[i]) << i;
    EXPECT_EQ(q.layer_lut_source(i), sources[i]) << i;
  }
}

TEST(QuantizedMlpFastPath, ValidatesSpanSizes) {
  rng g{50};
  const auto q = quantize(nn::make_ffnn_flow_size_net(g));
  inference_scratch scratch;
  std::vector<fp::s64> in_bad(q.input_size() + 1, 0);
  std::vector<fp::s64> out(q.output_size());
  EXPECT_THROW(q.infer_into(in_bad, out, scratch), std::invalid_argument);
  std::vector<fp::s64> in(q.input_size(), 0);
  std::vector<fp::s64> out_bad(q.output_size() + 1);
  EXPECT_THROW(q.infer_into(in, out_bad, scratch), std::invalid_argument);
}

TEST(QuantizedMlpFastPath, ScratchReusableAcrossPrograms) {
  // One scratch serves Aurora, FFNN and LB-MLP, whose padded activation rows
  // are 32, 8 and 12 wide, alternating infer_into and infer_batch_into, in
  // both orders: every program must find its rows in bounds and must not
  // read what the previous program left in them.
  rng g{51};
  const quantized_mlp progs[] = {quantize(nn::make_aurora_net(g)),
                                 quantize(nn::make_ffnn_flow_size_net(g)),
                                 quantize(nn::make_lb_mlp_net(g))};
  inference_scratch scratch;
  scratch.reserve(progs[1]);  // undersized for aurora; infer_into must grow it
  for (const bool reverse : {false, true}) {
    for (std::size_t n = 0; n < 3; ++n) {
      const quantized_mlp& q = progs[reverse ? 2 - n : n];
      for (const std::size_t k : {1, 5, 40}) {
        std::vector<fp::s64> x(k * q.input_size());
        for (auto& v : x) v = g.uniform_int(-900, 900);
        const auto expect = infer_rows(q, x, k);
        std::vector<fp::s64> one(q.output_size());
        q.infer_into(std::span<const fp::s64>{x}.first(q.input_size()), one,
                     scratch);
        EXPECT_TRUE(std::equal(one.begin(), one.end(), expect.begin()))
            << "program " << n << " reverse " << reverse << " k " << k;
        std::vector<fp::s64> got(k * q.output_size());
        q.infer_batch_into(x, k, got, scratch);
        EXPECT_EQ(expect, got)
            << "program " << n << " reverse " << reverse << " k " << k;
      }
    }
  }
}

TEST(QuantizedMlpFastPath, FusedStoresStayInsideOutputAndRows) {
  // The int32 kernel stores whole 4-lane groups into padded activation
  // rows, and only output_size() values may reach the caller's span.  Every
  // hidden and output width 1..20 (each lane remainder, one to five groups,
  // across the 16-output block), with relu, linear and tanh layers mixed,
  // writes into `out` and each infer_batch_into output block sitting inside
  // a larger buffer of sentinels; the batches take every block shape the
  // sample lanes see (tails of 1..7 real samples, one to five blocks).
  // Sentinels must survive and every output must equal infer().  Under
  // ASan this also catches a scratch-row overrun.
  constexpr fp::s64 sentinel = 0x5e5e5e5e5e5e5e5e;
  constexpr std::size_t pad = 8;  // more than one group on each side
  const nn::activation acts[] = {nn::activation::relu,
                                 nn::activation::linear,
                                 nn::activation::tanh_act};
  const auto layer = [](rng& g, std::size_t in, std::size_t out,
                        nn::activation act) {
    qdense_layer l;
    l.input_size = in;
    l.output_size = out;
    l.weight_scale = fp::s64{1} << g.uniform_int(4, 12);
    const fp::s64 wmax = l.weight_scale * 4;
    for (std::size_t i = 0; i < in * out; ++i) {
      l.weights.push_back(g.uniform_int(-wmax, wmax));
    }
    for (std::size_t i = 0; i < out; ++i) {
      l.biases.push_back(g.uniform_int(-wmax * 1000, wmax * 1000));
    }
    l.act = act;
    if (act == nn::activation::tanh_act) {
      l.lut = lookup_table::for_activation(act, 128, 1000);
    }
    return l;
  };
  const auto sentinels_intact = [&](const std::vector<fp::s64>& buf,
                                    std::size_t used) {
    return std::all_of(buf.begin(), buf.begin() + pad,
                       [&](fp::s64 v) { return v == sentinel; }) &&
           std::all_of(buf.begin() + pad + used, buf.end(),
                       [&](fp::s64 v) { return v == sentinel; });
  };
  rng g{0xf05e};
  for (std::size_t hidden = 1; hidden <= 20; ++hidden) {
    for (std::size_t width = 1; width <= 20; ++width) {
      const std::size_t in = static_cast<std::size_t>(g.uniform_int(1, 20));
      const std::size_t mix = hidden + 3 * width;
      std::vector<qdense_layer> layers;
      layers.push_back(layer(g, in, hidden, acts[mix % 3]));
      layers.push_back(layer(g, hidden, hidden, acts[(mix + 1) % 3]));
      layers.push_back(layer(g, hidden, width, acts[(mix / 3) % 3]));
      const quantized_mlp q{in, 1000, std::move(layers)};
      for (std::size_t li = 0; li < q.layer_count(); ++li) {
        ASSERT_TRUE(q.layer_saturation_free(li));
        ASSERT_NE(q.layer_operand_proof(li), operand_proof::none);
      }
      inference_scratch scratch;  // fresh, so it is sized for q exactly
      for (const std::size_t k : {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33}) {
        std::vector<fp::s64> x(k * in);
        for (auto& v : x) v = g.uniform_int(-900, 900);
        const auto expect = infer_rows(q, x, k);
        const std::string where = "hidden " + std::to_string(hidden) +
                                  " width " + std::to_string(width) + " k " +
                                  std::to_string(k);

        std::vector<fp::s64> buf(pad + width + pad, sentinel);
        q.infer_into(std::span<const fp::s64>{x}.first(in),
                     std::span<fp::s64>{buf}.subspan(pad, width), scratch);
        ASSERT_TRUE(sentinels_intact(buf, width)) << where;
        ASSERT_TRUE(std::equal(expect.begin(), expect.begin() + width,
                               buf.begin() + pad))
            << where;

        std::vector<fp::s64> batch(pad + k * width + pad, sentinel);
        q.infer_batch_into(x, k,
                           std::span<fp::s64>{batch}.subspan(pad, k * width),
                           scratch);
        ASSERT_TRUE(sentinels_intact(batch, k * width)) << where;
        ASSERT_TRUE(std::equal(expect.begin(), expect.end(),
                               batch.begin() + pad))
            << where;
      }
    }
  }
}

TEST(QuantizedMlpFastPath, EachOutputReadsItsOwnWeight) {
  // Every weight (o, j) and bias o holds its own value, and one-hot inputs
  // pick one input's row, so output o must be b_o + w_oj * v on every path
  // and through both accessors.  A permutation of the arena's rows that
  // infer() and the kernels shared would pass every comparison against
  // infer(), but not this.  Output widths 1-20 cover every residue of the
  // 8-output groups and the 16-output blocks; k = 3 runs per sample and
  // k = 8 one block on the sample lanes.
  const auto w_of = [](std::size_t o, std::size_t j) {
    const auto w = static_cast<fp::s64>(1000 * (o + 1) + 10 * (j + 1));
    return o % 2 == 0 ? w : -w;
  };
  const auto b_of = [](std::size_t o) {
    return static_cast<fp::s64>(7 * (o + 1));
  };
  constexpr std::size_t k = 8;
  inference_scratch scratch;
  for (const std::size_t n : {1, 3, 8, 13}) {
    for (std::size_t m = 1; m <= 20; ++m) {
      const std::string where =
          "inputs " + std::to_string(n) + " outputs " + std::to_string(m);
      qdense_layer l;
      l.input_size = n;
      l.output_size = m;
      l.weight_scale = 1;
      for (std::size_t o = 0; o < m; ++o) {
        for (std::size_t j = 0; j < n; ++j) l.weights.push_back(w_of(o, j));
        l.biases.push_back(b_of(o));
      }
      l.act = nn::activation::linear;
      const quantized_mlp q{n, 1000, {l}};
      ASSERT_EQ(q.layer_operand_proof(0), operand_proof::proven) << where;
      ASSERT_EQ(takes_sample_lanes(q), quantized_mlp::simd_dispatch());
      const qdense_layer back = q.layer(0);
      for (std::size_t o = 0; o < m; ++o) {
        ASSERT_EQ(q.bias(0, o), b_of(o)) << where << " o " << o;
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(q.weight(0, o, j), w_of(o, j)) << where << " o " << o;
          ASSERT_EQ(back.weights[o * n + j], w_of(o, j)) << where;
        }
      }
      // Row s puts s + 2 at input s % n.
      std::vector<fp::s64> x(k * n, 0);
      std::vector<fp::s64> want(k * m);
      for (std::size_t s = 0; s < k; ++s) {
        const auto v = static_cast<fp::s64>(s + 2);
        x[s * n + s % n] = v;
        for (std::size_t o = 0; o < m; ++o) {
          want[s * m + o] = b_of(o) + w_of(o, s % n) * v;
        }
      }
      ASSERT_EQ(infer_rows(q, x, k), want) << where;
      std::vector<fp::s64> one(m);
      for (std::size_t s = 0; s < k; ++s) {
        q.infer_into(std::span<const fp::s64>{x}.subspan(s * n, n), one,
                     scratch);
        ASSERT_TRUE(std::equal(one.begin(), one.end(), want.begin() + s * m))
            << where << " sample " << s;
      }
      for (const std::size_t rows : {std::size_t{3}, k}) {
        const auto got = batch_rows(
            q, std::span<const fp::s64>{x}.first(rows * n), rows, scratch);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
            << where << " k " << rows;
      }
    }
  }
}

TEST(QuantizedMlp, InferFloatSaturatesOnHugeInputs) {
  qdense_layer layer;
  layer.input_size = 1;
  layer.output_size = 1;
  layer.weight_scale = 1;
  layer.weights = {1};
  layer.biases = {0};
  layer.act = nn::activation::linear;
  quantized_mlp q{1, 1000, {std::move(layer)}};
  // 1e300 * 1000 is far outside s64: quantization must clamp, not UB.
  const double huge[] = {1e300};
  const auto out = q.infer_float(huge);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0], static_cast<double>(fp::s64_max) / 1000.0, 1e13);
  const double nan_in[] = {std::nan("")};
  EXPECT_EQ(q.infer_float(nan_in)[0], 0.0);
}

TEST(QuantizedMlp, MacCountAndBytes) {
  rng g{40};
  const auto q = quantize(nn::make_aurora_net(g));
  // 30*32 + 32*16 + 16*1 = 960 + 512 + 16.
  EXPECT_EQ(q.mac_count(), 1488u);
  // 1488 weights, 32 + 16 + 1 biases and one 1024-entry tanh table, which
  // the three layers share.
  EXPECT_EQ(q.parameter_bytes(), (1488u + 49u + 1024u) * 8);
  EXPECT_EQ(q.parameter_bytes(), 20488u);
}

/// Field-for-field equality of two layers; the table by address.
void expect_same_layer(const qdense_layer& got, const qdense_layer& want,
                       const std::string& where) {
  EXPECT_EQ(got.input_size, want.input_size) << where;
  EXPECT_EQ(got.output_size, want.output_size) << where;
  EXPECT_EQ(got.weights, want.weights) << where;
  EXPECT_EQ(got.biases, want.biases) << where;
  EXPECT_EQ(got.weight_scale, want.weight_scale) << where;
  EXPECT_EQ(got.act, want.act) << where;
  EXPECT_EQ(got.lut, want.lut) << where;
}

TEST(QuantizedMlp, LayerRebuildsWhatTheProgramWasBuiltFrom) {
  // A program keeps its parameters only in its input-major arena, and
  // infer() reads that arena too, so this is what checks the layout on its
  // own: layer(i) must give back the output-major layer i was built from.
  rng g{0x1a7e};
  for (int trial = 0; trial < 90; ++trial) {
    const qmlp_layers spec =
        random_qmlp_layers(g, trial % 3 == 1, trial % 3 == 2);
    const quantized_mlp q{spec.input_size, 1000, spec.layers};
    ASSERT_EQ(q.layer_count(), spec.layers.size());
    for (std::size_t i = 0; i < q.layer_count(); ++i) {
      const std::string where =
          "trial " + std::to_string(trial) + " layer " + std::to_string(i);
      expect_same_layer(q.layer(i), spec.layers[i], where);
    }
  }
  // The paper nets, against the layers quantize() builds from the float
  // weights at each layer's own scale.
  for (int which = 0; which < 4; ++which) {
    const nn::mlp net = which == 0   ? nn::make_aurora_net(g)
                        : which == 1 ? nn::make_mocc_net(g)
                        : which == 2 ? nn::make_ffnn_flow_size_net(g)
                                     : nn::make_lb_mlp_net(g);
    const quantized_mlp q = quantize(net);
    ASSERT_EQ(q.layer_count(), net.layer_count());
    for (std::size_t i = 0; i < q.layer_count(); ++i) {
      const auto& fl = net.layer(i);
      qdense_layer want;
      want.input_size = fl.input_size();
      want.output_size = fl.output_size();
      want.weight_scale = q.layer_weight_scale(i);
      const auto ws = static_cast<double>(want.weight_scale);
      for (const double w : fl.weights()) {
        want.weights.push_back(fp::sat_quantize(w * ws));
      }
      for (const double b : fl.biases()) {
        want.biases.push_back(fp::sat_quantize(b * ws * 1000.0));
      }
      want.act = fl.act();
      if (q.layer_lut(i) != nullptr) {
        want.lut = lookup_table::for_activation(fl.act(), 1024, 1000);
      }
      expect_same_layer(q.layer(i), want,
                        "net " + std::to_string(which) + " layer " +
                            std::to_string(i));
    }
  }
}

TEST(QuantizedMlp, CopyAllocatesOnlyItsArenaDescsAndTableRefs) {
  // An installed version's program is copied into the engine, and ~120 of
  // them stay live under cc_adapt: a copy carries the parameters once (the
  // padded input-major arena: int32 weight rows of whole 8-output groups,
  // then s64 biases in whole 4-lane groups), the per-layer descriptors and
  // the table references, and nothing else.
  rng g{0xc0b1};
  const quantized_mlp q = quantize(nn::make_aurora_net(g));
  std::size_t arena = 0;
  for (std::size_t i = 0; i < q.layer_count(); ++i) {
    const std::size_t m = q.layer_output_size(i);
    arena += q.layer_input_size(i) * ((m + 7) & ~std::size_t{7}) * 4 +
             ((m + 3) & ~std::size_t{3}) * 8;
  }
  // 30 * 32 + 32 * 16 + 16 * 8 int32 weights, 32 + 16 + 4 s64 biases:
  // 6,816 bytes, where s64 weights in rows of 4-lane groups took 12,704.
  EXPECT_EQ(arena, 1600u * 4 + 52u * 8);
  const std::size_t news = t_news;
  const std::size_t bytes = t_new_bytes;
  const quantized_mlp copy = q;
  const std::size_t copy_news = t_news - news;
  const std::size_t copy_bytes = t_new_bytes - bytes;
  EXPECT_EQ(copy_news, 3u);  // arena, descriptors, table references
  EXPECT_GE(copy_bytes, arena);
  // Descriptors and table references: a few hundred bytes for 3 layers;
  // the whole copy within 7.3 KiB (13,064 bytes with s64 weights).
  EXPECT_LE(copy_bytes, arena + 256 * q.layer_count());
  EXPECT_LE(copy_bytes, 7475u);
  const std::vector<fp::s64> x(q.input_size(), 250);
  EXPECT_EQ(copy.infer(x), q.infer(x));
}

// ---------------------------------------------------- constructor contract --

/// What the constructor must accept: layers that chain from `input_size`,
/// each with input_size * output_size weights that fit int32, output_size
/// biases, a positive weight scale, and a table exactly when its
/// activation is tanh or sigmoid.
bool meets_contract(std::size_t input_size,
                    const std::vector<qdense_layer>& layers) {
  std::size_t in = input_size;
  for (const qdense_layer& l : layers) {
    const bool table_act = l.act == nn::activation::tanh_act ||
                           l.act == nn::activation::sigmoid;
    const bool weights_fit =
        std::all_of(l.weights.begin(), l.weights.end(),
                    [](fp::s64 w) { return w >= i32_min && w <= i32_max; });
    if (l.input_size != in ||
        l.weights.size() != l.input_size * l.output_size ||
        l.biases.size() != l.output_size || l.weight_scale <= 0 ||
        table_act != (l.lut != nullptr) || !weights_fit) {
      return false;
    }
    in = l.output_size;
  }
  return !layers.empty();
}

TEST(QuantizedMlpContract, WeightsBeyondInt32AreRefused) {
  // A program stores its weights as int32: the limits themselves build and
  // read back, one step past them and the s64 limits are refused.
  for (const fp::s64 w : {i32_min, i32_max, i32_min - 1, i32_max + 1,
                          fp::s64_min, fp::s64_max}) {
    qdense_layer l;
    l.input_size = 1;
    l.output_size = 2;
    l.weights = {3, w};
    l.biases = {0, 0};
    l.act = nn::activation::linear;
    if (w >= i32_min && w <= i32_max) {
      const quantized_mlp q{1, 1000, {l}};
      EXPECT_EQ(q.weight(0, 1, 0), w);
    } else {
      EXPECT_THROW((quantized_mlp{1, 1000, {l}}), std::invalid_argument) << w;
    }
  }
}

TEST(QuantizedMlpContract, FuzzedLayerSetsThrowOrAgreeAcrossPaths) {
  // Seeded draws around the constructor's contract: random_qmlp layer sets
  // with 0-2 mutations each, among weights at and one past +-2^31 (and at
  // the s64 limits), weight scales that are 0, negative or huge, broken
  // size chains, wrong weight and bias counts, and tables on the wrong
  // activation.  A set must be refused with std::invalid_argument exactly
  // when it breaks the contract; otherwise infer_into, infer_batch_into and
  // infer must agree on inputs within and beyond the no-saturation bound.
  enum mutation { weight_edge, scale, chain, weight_count, bias_count, table };
  constexpr int kinds = 6;
  rng g{0xc047};
  std::size_t drawn[kinds] = {};
  std::size_t refused = 0;
  std::size_t built = 0;
  inference_scratch scratch;
  for (int trial = 0; trial < 600; ++trial) {
    qmlp_layers spec = random_qmlp_layers(g, trial % 2 == 0, trial % 3 == 0);
    std::vector<qdense_layer>& layers = spec.layers;
    const auto any = [&](std::size_t size) {
      return static_cast<std::size_t>(
          g.uniform_int(0, static_cast<fp::s64>(size) - 1));
    };
    for (auto n = g.uniform_int(0, 2); n > 0; --n) {
      qdense_layer& l = layers[any(layers.size())];
      const auto kind = static_cast<mutation>(g.uniform_int(0, kinds - 1));
      ++drawn[kind];
      switch (kind) {
        case weight_edge: {
          const fp::s64 edge[] = {i32_min - 1, i32_min,     i32_max,
                                  i32_max + 1, fp::s64_min, fp::s64_max};
          l.weights[any(l.weights.size())] = edge[any(std::size(edge))];
          break;
        }
        case scale: {
          const fp::s64 scales[] = {0,           -1,          -4096,
                                    fp::s64_min, fp::s64_max, fp::s64{1} << 62,
                                    fp::s64{1} << 40};
          l.weight_scale = scales[any(std::size(scales))];
          break;
        }
        case chain:
          // A consistent layer that no longer follows its predecessor.
          l.input_size += l.input_size > 1 && g.bernoulli(0.5) ? -1 : 1;
          l.weights.assign(l.input_size * l.output_size, 1);
          break;
        case weight_count:
          if (!l.weights.empty() && g.bernoulli(0.5)) {
            l.weights.pop_back();
          } else {
            l.weights.push_back(1);
          }
          break;
        case bias_count:
          if (!l.biases.empty() && g.bernoulli(0.5)) {
            l.biases.pop_back();
          } else {
            l.biases.push_back(1);
          }
          break;
        case table:
          if (l.lut) {
            if (g.bernoulli(0.5)) {
              l.lut.reset();
            } else {
              l.act = nn::activation::relu;
            }
          } else if (g.bernoulli(0.5)) {
            l.lut = lookup_table::for_activation(nn::activation::tanh_act, 128,
                                                 1000);
          } else {
            l.act = nn::activation::sigmoid;
          }
          break;
      }
    }
    const std::string where = "trial " + std::to_string(trial);
    if (!meets_contract(spec.input_size, layers)) {
      ++refused;
      EXPECT_THROW((quantized_mlp{spec.input_size, 1000, layers}),
                   std::invalid_argument)
          << where;
      continue;
    }
    ++built;
    const quantized_mlp q{spec.input_size, 1000, std::move(layers)};
    const fp::s64 bound = q.fastpath_input_bound();
    const bool beyond = g.bernoulli(0.5);
    const auto k = static_cast<std::size_t>(g.uniform_int(1, 20));
    std::vector<fp::s64> x(k * q.input_size());
    for (auto& v : x) {
      v = beyond && g.bernoulli(0.2)
              ? g.uniform_int(fp::s64_min / 2, fp::s64_max / 2)
              : g.uniform_int(-bound, bound);
    }
    const auto want = infer_rows(q, x, k);
    ASSERT_EQ(batch_rows(q, x, k, scratch), want) << where;
    std::vector<fp::s64> one(q.output_size());
    for (std::size_t s = 0; s < k; ++s) {
      q.infer_into(std::span<const fp::s64>{x}.subspan(s * q.input_size(),
                                                       q.input_size()),
                   one, scratch);
      ASSERT_TRUE(std::equal(one.begin(), one.end(),
                             want.begin() + s * q.output_size()))
          << where << " sample " << s;
    }
  }
  for (int kind = 0; kind < kinds; ++kind) EXPECT_GT(drawn[kind], 0u) << kind;
  EXPECT_GT(refused, 0u);
  EXPECT_GT(built, 0u);
}

// --------------------------------------------------------------- quantizer --

class QuantizerFidelitySweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerFidelitySweep, AllPaperNetsStayAccurateAtC1000) {
  rng g{static_cast<std::uint64_t>(GetParam())};
  nn::mlp net = [&]() {
    switch (GetParam() % 4) {
      case 0:
        return nn::make_aurora_net(g);
      case 1:
        return nn::make_mocc_net(g);
      case 2:
        return nn::make_ffnn_flow_size_net(g);
      default:
        return nn::make_lb_mlp_net(g);
    }
  }();
  quantizer_config config;
  config.io_scale = 1000;
  const auto q = quantize(net, config);
  rng xs{99};
  double worst = 0.0;
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x(net.input_size());
    for (auto& v : x) v = xs.uniform(-1, 1);
    const auto y = net.forward(x);
    const auto yq = q.infer_float(x);
    for (std::size_t k = 0; k < y.size(); ++k) {
      worst = std::max(worst, std::abs(y[k] - yq[k]));
    }
  }
  // Paper: ~2% average accuracy loss at 1000x scaling; our bound is the
  // worst case over random inputs.
  EXPECT_LT(worst, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Nets, QuantizerFidelitySweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(Quantizer, Figure7ShapeCoarseScalesLoseMoreAccuracy) {
  rng g{41};
  const auto net = nn::make_aurora_net(g);
  rng xs{42};
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < 30; ++i) {
    std::vector<double> x(net.input_size());
    for (auto& v : x) v = xs.uniform(-1, 1);
    inputs.push_back(std::move(x));
  }
  auto mean_err = [&](fp::s64 scale) {
    quantizer_config config;
    config.io_scale = scale;
    const auto q = quantize(net, config);
    double total = 0.0;
    for (const auto& x : inputs) {
      const auto y = net.forward(x);
      const auto yq = q.infer_float(x);
      total += std::abs(y[0] - yq[0]);
    }
    return total / static_cast<double>(inputs.size());
  };
  const double e1 = mean_err(1);
  const double e10 = mean_err(10);
  const double e1000 = mean_err(1000);
  EXPECT_GT(e1, e10);
  EXPECT_GT(e10, e1000);
  EXPECT_LT(e1000, 0.02);  // paper: ~2% at C=1000
}

TEST(Quantizer, NonFiniteAndHugeParametersKeepTheirSign) {
  // llround gave INT64_MIN for NaN, +-inf and out-of-range values, so a
  // +1e25 bias quantized negative.  Every parameter now saturates with its
  // sign (NaN -> 0): weights into int32, biases into s64.  Layer 0's
  // int32-limit weights still prove saturation-free at the input bound, so
  // it runs the int32 kernel; layers 1 and 2, whose s64-limit bias and
  // unbounded inputs the proof fails, run the saturating chain.  All of
  // them match infer() exactly.
  rng g{0xbad};
  auto net = nn::make_ffnn_flow_size_net(g);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  net.layer(0).weights()[0] = nan;
  net.layer(0).weights()[1] = inf;
  net.layer(0).weights()[2] = -inf;
  net.layer(1).weights()[0] = 1e30;
  net.layer(1).weights()[1] = -1e30;
  net.layer(1).biases()[0] = 1e25;
  net.layer(2).weights()[0] = inf;
  net.layer(2).biases()[0] = nan;
  const auto q = quantize(net);
  for (std::size_t li = 0; li < q.layer_count(); ++li) {
    const auto& fl = net.layer(li);
    const auto& ql = q.layer(li);
    const auto check = [&](double p, fp::s64 v) {
      const bool same_sign = std::isnan(p) ? v == 0
                             : p > 0       ? v >= 0
                             : p < 0       ? v <= 0
                                           : true;
      EXPECT_TRUE(same_sign) << "layer " << li << ": " << p << " -> " << v;
    };
    for (std::size_t k = 0; k < ql.weights.size(); ++k) {
      check(fl.weights()[k], ql.weights[k]);
    }
    for (std::size_t k = 0; k < ql.biases.size(); ++k) {
      check(fl.biases()[k], ql.biases[k]);
    }
  }
  EXPECT_EQ(q.layer_operand_proof(0), operand_proof::proven);
  EXPECT_EQ(q.layer_operand_proof(1), operand_proof::none);
  EXPECT_EQ(q.layer_operand_proof(2), operand_proof::none);
  EXPECT_EQ(q.layer(0).weights[1], i32_max);
  EXPECT_EQ(q.layer(0).weights[2], i32_min);
  EXPECT_EQ(q.layer(1).weights[0], i32_max);
  EXPECT_EQ(q.layer(1).weights[1], i32_min);
  EXPECT_EQ(q.layer(1).biases[0], fp::s64_max);
  EXPECT_EQ(q.layer(2).weights[0], i32_max);

  inference_scratch scratch;
  rng xs{0xbad + 1};
  std::vector<fp::s64> inputs(16 * q.input_size());
  for (auto& v : inputs) v = xs.uniform_int(-1000, 1000);
  std::vector<fp::s64> got(16 * q.output_size());
  std::vector<fp::s64> batch(got.size());
  for (std::size_t s = 0; s < 16; ++s) {
    const std::span<const fp::s64> x{inputs.data() + s * q.input_size(),
                                     q.input_size()};
    const std::span<fp::s64> y{got.data() + s * q.output_size(),
                               q.output_size()};
    q.infer_into(x, y, scratch);
    EXPECT_TRUE(std::equal(y.begin(), y.end(), q.infer(x).begin())) << s;
  }
  q.infer_batch_into(inputs, 16, batch, scratch);
  EXPECT_EQ(got, batch);
}

TEST(Quantizer, RejectsNonPositiveScale) {
  rng g{43};
  const auto net = nn::make_ffnn_flow_size_net(g);
  quantizer_config config;
  config.io_scale = 0;
  EXPECT_THROW(quantize(net, config), std::invalid_argument);
}

// ------------------------------------------------------------- lut intern --

/// What makes two programs bit-identical: each layer's parameters, table
/// and proofs, and the outputs of infer, infer_into and infer_batch_into
/// on a fixed pool of inputs.
std::vector<fp::s64> fingerprint(const quantized_mlp& q) {
  std::vector<fp::s64> f;
  const auto append = [&](std::span<const fp::s64> v) {
    f.insert(f.end(), v.begin(), v.end());
  };
  for (std::size_t i = 0; i < q.layer_count(); ++i) {
    const qdense_layer& l = q.layer(i);
    append(l.weights);
    append(l.biases);
    if (l.lut) {
      append(l.lut->values());
      append(std::vector{l.lut->domain_low_q(), l.lut->domain_span_q()});
    }
    append(std::vector<fp::s64>{
        l.weight_scale, static_cast<fp::s64>(q.layer_lut_tier(i)),
        static_cast<fp::s64>(q.layer_operand_proof(i)),
        q.layer_saturation_free(i)});
  }
  constexpr std::size_t k = 24;
  rng g{0xf1};
  std::vector<fp::s64> x(k * q.input_size());
  for (auto& v : x) v = g.uniform_int(-3000, 3000);
  inference_scratch scratch;
  append(infer_rows(q, x, k));
  append(batch_rows(q, x, k, scratch));
  std::vector<fp::s64> one(q.output_size());
  q.infer_into(std::span<const fp::s64>{x}.first(q.input_size()), one,
               scratch);
  append(one);
  return f;
}

TEST(LutIntern, ProgramsShareOneTablePerKey) {
  // Two Aurora nets with different weights, quantized at two io_scales:
  // every tanh layer of both programs of a key holds one table object,
  // and each key (activation, entries, io_scale) has its own.
  rng g{0x1e7};
  const auto net_a = nn::make_aurora_net(g);
  const auto net_b = nn::make_aurora_net(g);
  quantizer_config coarse;
  coarse.io_scale = 100;
  const quantized_mlp programs[] = {quantize(net_a), quantize(net_b),
                                    quantize(net_a, coarse),
                                    quantize(net_b, coarse)};
  ASSERT_NE(programs[0].layer(0).weights, programs[1].layer(0).weights);
  const lookup_table* fine = programs[0].layer(0).lut.get();
  const lookup_table* coarse_lut = programs[2].layer(0).lut.get();
  ASSERT_NE(fine, nullptr);
  ASSERT_NE(coarse_lut, nullptr);
  EXPECT_NE(fine, coarse_lut);
  EXPECT_EQ(coarse_lut->scale(), 100);
  for (std::size_t p = 0; p < std::size(programs); ++p) {
    for (std::size_t li = 0; li < programs[p].layer_count(); ++li) {
      EXPECT_EQ(programs[p].layer(li).lut.get(), p < 2 ? fine : coarse_lut)
          << "program " << p << " layer " << li;
    }
  }
  quantizer_config small;
  small.lut_entries = 128;
  EXPECT_NE(quantize(net_a, small).layer(0).lut.get(), fine);
  EXPECT_NE(lookup_table::for_activation(nn::activation::sigmoid, 1024, 1000)
                .get(),
            fine);
  // The shared table is still counted once per program.
  EXPECT_EQ(programs[0].parameter_bytes(), 20488u);
}

TEST(LutIntern, CopiedProgramSharesTheTable) {
  // A copy of a program (an engine version, an oracle) holds the original's
  // table, and still runs bit-identically once the original is gone.
  rng g{0x1e8};
  std::optional<quantized_mlp> original{quantize(nn::make_aurora_net(g))};
  const quantized_mlp copy = *original;
  for (std::size_t li = 0; li < copy.layer_count(); ++li) {
    EXPECT_EQ(copy.layer(li).lut, original->layer(li).lut) << li;
  }
  const auto expect = fingerprint(*original);
  original.reset();
  EXPECT_EQ(fingerprint(copy), expect);
}

TEST(LutIntern, TableIsFreedWithItsLastProgram) {
  // The registry keeps no table alive: once the last program holding a
  // key is gone, its table is freed, and the next quantize builds a new one
  // with the same values.  io_scale 1013 is a key no other test uses.
  rng g{0x1e9};
  const auto net = nn::make_aurora_net(g);
  quantizer_config config;
  config.io_scale = 1013;
  std::optional<quantized_mlp> q{quantize(net, config)};
  std::optional<quantized_mlp> copy{*q};
  const std::weak_ptr<const lookup_table> held = q->layer(0).lut;
  const auto expect = fingerprint(*q);
  q.reset();
  EXPECT_FALSE(held.expired());
  copy.reset();
  EXPECT_TRUE(held.expired());
  EXPECT_EQ(fingerprint(quantize(net, config)), expect);
}

TEST(LutIntern, ConcurrentQuantizeSharesOneTable) {
  // Four threads quantize Aurora nets at once, starting when no program
  // holds the key (io_scale 1019, used by no other test): their programs
  // equal serial ones bit for bit, and all hold one table.
  constexpr std::size_t threads = 4;
  constexpr std::size_t per_thread = 8;
  quantizer_config config;
  config.io_scale = 1019;
  std::vector<nn::mlp> nets;
  for (std::size_t t = 0; t < threads; ++t) {
    rng g{0x1ea + t};
    nets.push_back(nn::make_aurora_net(g));
  }
  std::vector<std::vector<fp::s64>> expect;
  std::weak_ptr<const lookup_table> serial;
  for (const auto& net : nets) {
    const auto q = quantize(net, config);
    expect.push_back(fingerprint(q));
    serial = q.layer(0).lut;
  }
  ASSERT_TRUE(serial.expired());

  std::vector<std::vector<quantized_mlp>> got(threads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      for (std::size_t r = 0; r < per_thread; ++r) {
        got[t].push_back(quantize(nets[t], config));
      }
    });
  }
  for (auto& th : pool) th.join();
  const lookup_table* shared = got[0][0].layer(0).lut.get();
  for (std::size_t t = 0; t < threads; ++t) {
    for (const quantized_mlp& q : got[t]) {
      for (std::size_t li = 0; li < q.layer_count(); ++li) {
        EXPECT_EQ(q.layer(li).lut.get(), shared) << t << " layer " << li;
      }
      EXPECT_EQ(fingerprint(q), expect[t]) << "thread " << t;
    }
  }
}

// ---------------------------------------------------------------- fidelity --

TEST(Fidelity, FreshSnapshotHasLowLoss) {
  rng g{44};
  const auto net = nn::make_aurora_net(g);
  const auto q = quantize(net);
  rng xs{45};
  std::vector<std::vector<double>> batch;
  for (int i = 0; i < 16; ++i) {
    std::vector<double> x(net.input_size());
    for (auto& v : x) v = xs.uniform(-1, 1);
    batch.push_back(std::move(x));
  }
  const auto report = evaluate_fidelity(net, q, batch);
  EXPECT_EQ(report.samples, 16u);
  EXPECT_LE(report.min_loss, report.mean_loss);
  EXPECT_LE(report.mean_loss, report.max_loss);
  EXPECT_LT(report.max_loss, 0.05);
  // Aurora outputs span [-1, 1]; alpha = 5% -> threshold 0.1.
  EXPECT_FALSE(update_necessary(report, 0.05, -1.0, 1.0));
}

TEST(Fidelity, DriftedModelTriggersNecessity) {
  rng g{46};
  auto net = nn::make_aurora_net(g);
  const auto q = quantize(net);  // snapshot of the *old* weights
  // Tune the userspace model far away.
  auto params = net.parameters();
  for (auto& p : params) p += 0.8;
  net.set_parameters(params);
  rng xs{47};
  std::vector<std::vector<double>> batch;
  for (int i = 0; i < 16; ++i) {
    std::vector<double> x(net.input_size());
    for (auto& v : x) v = xs.uniform(-1, 1);
    batch.push_back(std::move(x));
  }
  const auto report = evaluate_fidelity(net, q, batch);
  EXPECT_TRUE(update_necessary(report, 0.05, -1.0, 1.0));
}

TEST(Fidelity, EmptyBatchNeverNecessary) {
  const fidelity_report empty{};
  EXPECT_FALSE(update_necessary(empty, 0.0, 0.0, 1.0));
}

TEST(Fidelity, MismatchedShapesThrow) {
  rng g{48};
  const auto aurora = nn::make_aurora_net(g);
  const auto ffnn_q = quantize(nn::make_ffnn_flow_size_net(g));
  const std::vector<std::vector<double>> batch{std::vector<double>(30, 0.0)};
  EXPECT_THROW(evaluate_fidelity(aurora, ffnn_q, batch), std::invalid_argument);
}

}  // namespace
