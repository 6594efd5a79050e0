#include "codegen/c_emitter.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string_view>

namespace lf::codegen {
namespace {

constexpr std::string_view k_prelude = R"(/*
 * Auto-generated by the LiteFlow snapshot generator. DO NOT EDIT.
 * Integer-only NN inference for the kernel datapath fast path.
 */

#ifdef __KERNEL__
#include <linux/module.h>
#include <linux/kernel.h>
#include <linux/init.h>
#else
typedef long long s64;
#endif

#define LF_S64_MAX 0x7fffffffffffffffLL
#define LF_S64_MIN (-LF_S64_MAX - 1)

/* Round-to-nearest division, ties away from zero. Must match
 * lf::fp::div_round bit-for-bit: s64_min / -1 saturates, and the
 * round-away test is overflow-free for any divisor. */
static s64 lf_div_round(s64 num, s64 den)
{
	s64 q, rem;
	unsigned long long abs_rem, abs_den;

	if (num == LF_S64_MIN && den == -1)
		return LF_S64_MAX;
	q = num / den;
	rem = num % den;
	if (rem == 0)
		return q;
	abs_rem = rem < 0 ? 0ULL - (unsigned long long)rem
			  : (unsigned long long)rem;
	abs_den = den < 0 ? 0ULL - (unsigned long long)den
			  : (unsigned long long)den;
	if (abs_rem >= abs_den - abs_rem)
		return ((num < 0) == (den < 0)) ? q + 1 : q - 1;
	return q;
}
)";

/// Needed only by a table on the 128-bit tier.
constexpr std::string_view k_mul_div = R"(
/* (a * b) / den with a 128-bit intermediate, round to nearest. Must match
 * lf::fp::mul_div bit-for-bit. */
static s64 lf_mul_div(s64 a, s64 b, s64 den)
{
	__int128 prod = (__int128)a * b;
	__int128 d = den;
	__int128 q = prod / d;
	__int128 rem = prod % d;
	__int128 abs_rem = rem < 0 ? -rem : rem;
	__int128 abs_d = d < 0 ? -d : d;
	if (abs_rem * 2 >= abs_d)
		q += ((prod < 0) == (d < 0)) ? 1 : -1;
	if (q > (__int128)LF_S64_MAX)
		return LF_S64_MAX;
	if (q < (__int128)LF_S64_MIN)
		return LF_S64_MIN;
	return (s64)q;
}
)";

constexpr std::string_view k_sat = R"(
/* Saturating add/mul. Must match lf::fp::sat_add / sat_mul bit-for-bit. */
static s64 lf_sat_add(s64 a, s64 b)
{
	s64 r;

	if (__builtin_add_overflow(a, b, &r))
		return b > 0 ? LF_S64_MAX : LF_S64_MIN;
	return r;
}

static s64 lf_sat_mul(s64 a, s64 b)
{
	s64 r;

	if (__builtin_mul_overflow(a, b, &r))
		return ((a > 0) == (b > 0)) ? LF_S64_MAX : LF_S64_MIN;
	return r;
}
)";

constexpr std::string_view k_relu = R"(
static s64 lf_relu(s64 x)
{
	return x > 0 ? x : 0;
}
)";

/// Worst-case characters of one integer ("-9223372036854775808", or
/// 2^64 - 1) and of one double as %g prints it ("-1.23457e-308").
constexpr std::size_t k_int_chars = 20;
constexpr std::size_t k_double_chars = 16;

/// An s64 as a C literal.  s64_min has no literal of its own (its magnitude
/// overflows long long, and gcc warns), so it is spelled LF_S64_MIN.
struct s64_literal {
  fp::s64 v;
};

/// The C source under construction, written through a raw cursor.  Each
/// put() makes room for its parts' worst case once, then writes them: text
/// as is, integers in decimal and doubles as printf's %g prints them.  A
/// part of many puts (a table, an array) reserves its own worst case first,
/// so the buffer grows at most once per part.  take() returns the text at
/// its exact size.
class source_writer {
 public:
  explicit source_writer(std::size_t capacity) { grow(capacity); }

  void reserve(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cur_) < n) grow(size() + n);
  }

  template <class... Parts>
  void put(const Parts&... parts) {
    reserve((bound(parts) + ...));
    (write(parts), ...);
  }

  std::string take() const { return std::string(buf_.get(), cur_); }

 private:
  static std::size_t bound(std::string_view text) { return text.size(); }
  static std::size_t bound(char) { return 1; }
  template <std::integral T>
  static std::size_t bound(T) {
    return k_int_chars;
  }
  static std::size_t bound(double) { return k_double_chars; }
  static std::size_t bound(s64_literal) { return k_int_chars; }

  void write(std::string_view text) {
    std::memcpy(cur_, text.data(), text.size());
    cur_ += text.size();
  }
  void write(char c) { *cur_++ = c; }
  template <std::integral T>
  void write(T v) {
    cur_ = std::to_chars(cur_, cur_ + k_int_chars, v).ptr;
  }
  void write(double v) {
    cur_ = std::to_chars(cur_, cur_ + k_double_chars, v,
                         std::chars_format::general, 6)
               .ptr;
  }
  void write(s64_literal x) {
    if (x.v == fp::s64_min) {
      write(std::string_view{"LF_S64_MIN"});
    } else {
      write(x.v);
    }
  }

  std::size_t size() const {
    return static_cast<std::size_t>(cur_ - buf_.get());
  }

  void grow(std::size_t need) {
    const std::size_t used = size();
    const std::size_t cap = std::max(
        need, 2 * static_cast<std::size_t>(end_ - buf_.get()));
    auto fresh = std::make_unique_for_overwrite<char[]>(cap);
    if (used != 0) std::memcpy(fresh.get(), buf_.get(), used);
    buf_ = std::move(fresh);
    cur_ = buf_.get() + used;
    end_ = buf_.get() + cap;
  }

  std::unique_ptr<char[]> buf_;
  char* cur_ = nullptr;
  char* end_ = nullptr;
};

/// The name is spliced into a C comment and two string literals, so it is
/// limited to characters that cannot close either.
void check_model_name(const std::string& name) {
  const auto allowed = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  };
  if (name.empty() || !std::all_of(name.begin(), name.end(), allowed)) {
    throw std::invalid_argument{
        "emit_c_source: model name must match [A-Za-z0-9_.-]+"};
  }
}

// A layer's table activation.  Layers whose tables hold equal values
// (Aurora's three tanh layers) read one lut_S_values array, written with
// the first of them (S = layer_lut_source), as the interpreter shares one
// table object; each layer keeps its own lut_N_eval and domain constants.
void emit_lut(source_writer& out, const quant::quantized_mlp& program,
              std::size_t index) {
  const quant::lookup_table& lut = *program.layer_lut(index);
  const std::size_t source = program.layer_lut_source(index);
  // bits32 tables take the 64-bit chain too; only the lanes tell them apart.
  const bool small = program.layer_lut_tier(index) != quant::lut_tier::bits128;
  const auto& values = lut.values();
  const std::size_t n = values.size();
  out.put("/* Lookup-table activation for layer ", index, " over [",
          lut.domain_low(), ", ", lut.domain_high(), "], scale ",
          lut.scale());
  if (source != index) out.put(", values of layer ", source);
  out.put(" */\n");
  if (source == index) {
    // Each value with its ", " or line break, and the declaration.
    out.reserve(n * (k_int_chars + 4) + 2 * k_int_chars + 48);
    out.put("static const s64 lut_", index, "_values[", n, "] = {");
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 8 == 0) out.put("\n\t");
      out.put(s64_literal{values[i]});
      if (i + 1 != n) out.put(", ");
    }
    out.put("\n};\n\n");
  }
  out.put("static s64 lut_", index, "_eval(s64 x)\n{\n\tconst s64 lo_q = ",
          s64_literal{lut.domain_low_q()}, ";\n\tconst s64 step_num = ",
          lut.domain_span_q(), ";\n", "\tconst s64 n = ", n, ";\n");
  // With step_num and n literal, the compiler strength-reduces the 64-bit
  // tier's divisions to multiplies.
  out.put(small ? "\ts64 scaled, idx, rem, y0, y1;\n"
                : "\t__int128 scaled;\n\ts64 idx, rem, y0, y1;\n",
          "\tif (x <= lo_q)\n\t\treturn lut_", source, "_values[0];\n",
          "\tif (x >= lo_q + step_num)\n\t\treturn lut_", source,
          "_values[n - 1];\n",
          small ? "\tscaled = (x - lo_q) * (n - 1);\n"
                  "\tidx = scaled / step_num;\n"
                : "\tscaled = (__int128)(x - lo_q) * (n - 1);\n"
                  "\tidx = (s64)(scaled / step_num);\n",
          "\tif (idx >= n - 1)\n\t\treturn lut_", source, "_values[n - 1];\n",
          small ? "\trem = scaled % step_num;\n"
                : "\trem = (s64)(scaled % step_num);\n",
          "\ty0 = lut_", source, "_values[idx];\n",
          "\ty1 = lut_", source, "_values[idx + 1];\n",
          small ? "\treturn y0 + lf_div_round((y1 - y0) * rem, step_num);\n"
                : "\treturn y0 + lf_mul_div(y1 - y0, rem, step_num);\n",
          "}\n");
}

// Parameter arrays, output-major, read from the program's input-major
// arena.  Every element is parenthesized so negative literals stay
// syntactically safe wherever they are substituted.
void emit_fc_params(source_writer& out, const quant::quantized_mlp& program,
                    std::size_t index) {
  const std::size_t n_in = program.layer_input_size(index);
  const std::size_t n_out = program.layer_output_size(index);
  // Each element with its parentheses and separator, each row's braces,
  // and the two declarations.
  out.reserve((n_in + 1) * n_out * (k_int_chars + 5) + n_out * 8 +
              5 * k_int_chars + 96);
  out.put("static const s64 fc_", index, "_w[", n_out, "][", n_in,
          "] = {\n");
  for (std::size_t i = 0; i < n_out; ++i) {
    out.put("\t{ ");
    for (std::size_t j = 0; j < n_in; ++j) {
      if (j != 0) out.put(", ");
      out.put('(', s64_literal{program.weight(index, i, j)}, ')');
    }
    out.put(" },\n");
  }
  out.put("};\nstatic const s64 fc_", index, "_b[", n_out, "] = {\n");
  for (std::size_t i = 0; i < n_out; ++i) {
    if (i != 0) out.put(",\n");
    out.put("\t(", s64_literal{program.bias(index, i)}, ')');
  }
  out.put("\n};\n");
}

// One layer's computation, following the paper's Listing 1: the always-
// correct saturating loop, or — when the snapshot-build-time accumulator
// bound proves saturation impossible — the plain +/* fast loop.  `restrict`
// lets the compiler keep inputs in registers across the MAC loop.
void emit_fc_comp(source_writer& out, const quant::quantized_mlp& program,
                  std::size_t index, bool fast) {
  const nn::activation act = program.layer_activation(index);
  out.put("static void fc_", index, "_comp", fast ? "_fast" : "",
          "(const s64 *restrict input, s64 *restrict output)\n"
          "{\n"
          "\tint i, j;\n"
          "\n"
          "\tfor (i = 0; i < ", program.layer_output_size(index),
          "; i++) {\n"
          "\t\tconst s64 *restrict row = fc_", index, "_w[i];\n"
          "\t\ts64 acc = fc_", index, "_b[i];\n"
          "\n"
          "\t\tfor (j = 0; j < ", program.layer_input_size(index),
          "; j++)\n"
          "\t\t\tacc ",
          fast ? "+= row[j] * input[j]"
               : "= lf_sat_add(acc, lf_sat_mul(row[j], input[j]))",
          ";\n"
          "\t\toutput[i] = ");
  if (act == nn::activation::relu) {
    out.put("lf_relu(");
  } else if (program.layer_lut(index) != nullptr) {
    out.put("lut_", index, "_eval(");
  }
  out.put("lf_div_round(acc, ", program.layer_weight_scale(index), ')',
          act == nn::activation::linear ? "" : ")",
          ";\n"
          "\t}\n"
          "}\n");
}

}  // namespace

std::string emit_c_source(const quant::quantized_mlp& program,
                          const emit_options& options) {
  check_model_name(options.model_name);
  const std::size_t layers = program.layer_count();
  bool any_wide_lut = false;
  bool any_relu = false;
  for (std::size_t i = 0; i < layers; ++i) {
    any_wide_lut |= program.layer_lut_tier(i) == quant::lut_tier::bits128;
    any_relu |= program.layer_activation(i) == nn::activation::relu;
  }
  // Only the helpers some layer calls, so the module builds warning-free.
  source_writer out{k_prelude.size() + k_mul_div.size() + k_sat.size() +
                    k_relu.size() + 4096};
  out.put(k_prelude);
  if (any_wide_lut) out.put(k_mul_div);
  out.put(k_sat);
  if (any_relu) out.put(k_relu);
  out.put("\n/* Model \"", options.model_name, "\" version ",
          options.version, ": ", program.input_size(), " inputs, ",
          program.output_size(), " outputs, io_scale ", program.io_scale(),
          " */\n\n");

  bool any_fast = false;
  std::size_t max_width = program.input_size();
  for (std::size_t i = 0; i < layers; ++i) {
    max_width = std::max(max_width, program.layer_output_size(i));
    if (program.layer_lut(i) != nullptr) {
      emit_lut(out, program, i);
      out.put('\n');
    }
    emit_fc_params(out, program, i);
    out.put('\n');
    // The saturating variant is always emitted (it is the bit-for-bit
    // fallback); layers whose accumulator bound proves saturation impossible
    // additionally get the plain-arithmetic fast variant.
    emit_fc_comp(out, program, i, /*fast=*/false);
    out.put('\n');
    if (program.layer_saturation_free(i)) {
      any_fast = true;
      emit_fc_comp(out, program, i, /*fast=*/true);
      out.put('\n');
    }
  }

  // Entry point: inputs within the interpreter's fast-path bound take the
  // fast variants (where proven safe); anything larger falls back to the
  // fully saturating sequence.  Mirrors quantized_mlp::infer_into exactly.
  // Layer i writes buf_a (even i) or buf_b (odd i); the last writes output.
  out.put("int lf_nn_infer(const s64 *input, s64 *output)\n{\n");
  if (layers >= 2) out.put("\ts64 buf_a[", max_width, "];\n");
  if (layers >= 3) out.put("\ts64 buf_b[", max_width, "];\n");
  const auto emit_chain = [&](bool fast) {
    std::string_view cur = "input";
    const std::string_view bufs[2] = {"buf_a", "buf_b"};
    const std::string_view indent = any_fast ? "\t\t" : "\t";
    for (std::size_t i = 0; i < layers; ++i) {
      const std::string_view dst = i + 1 == layers ? "output" : bufs[i % 2];
      const bool use_fast = fast && program.layer_saturation_free(i);
      out.put(indent, "fc_", i, "_comp", use_fast ? "_fast" : "", '(', cur,
              ", ", dst, ");\n");
      cur = dst;
    }
  };
  if (any_fast) {
    const auto bound = program.fastpath_input_bound();
    out.put("\tint fast = 1;\n\tint i;\n\n",
            "\tfor (i = 0; i < ", program.input_size(), "; i++)\n",
            "\t\tif (input[i] > ", bound, "LL || input[i] < -", bound,
            "LL)\n",
            "\t\t\tfast = 0;\n",
            "\tif (fast) {\n");
    emit_chain(true);
    out.put("\t} else {\n");
    emit_chain(false);
    out.put("\t}\n");
  } else {
    emit_chain(false);
  }
  out.put("\treturn 0;\n}\n\n");

  // Kernel-module boilerplate: register with the LiteFlow core module on
  // insmod, deregister on rmmod (paper §4.2, "NN Module").
  out.put(
      "#ifdef __KERNEL__\n"
      "extern int lf_register_model(const char *name, unsigned long version,\n"
      "\t\t\t     int input_size, int output_size, s64 io_scale,\n"
      "\t\t\t     int (*infer)(const s64 *, s64 *));\n"
      "extern int lf_unregister_model(const char *name, unsigned long "
      "version);\n\n"
      "static int __init lf_snapshot_init(void)\n{\n"
      "\treturn lf_register_model(\"",
      options.model_name, "\", ", options.version, "UL, ",
      program.input_size(), ", ", program.output_size(), ", ",
      program.io_scale(),
      ", lf_nn_infer);\n}\n\n"
      "static void __exit lf_snapshot_exit(void)\n{\n"
      "\tlf_unregister_model(\"",
      options.model_name, "\", ", options.version,
      "UL);\n}\n\n"
      "module_init(lf_snapshot_init);\n"
      "module_exit(lf_snapshot_exit);\n"
      "MODULE_LICENSE(\"GPL\");\n"
      "#endif /* __KERNEL__ */\n");
  // The text is compiled or written out once; an installed version drops
  // it (rt::snapshot_handle::install_standby).  Hand it over at its exact
  // size.
  return out.take();
}

}  // namespace lf::codegen
