#include "nn/serialize.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string_view>

namespace lf::nn {
namespace {

constexpr std::string_view k_magic = "liteflow-mlp v2\n";
constexpr std::size_t k_word = 8;  ///< bytes in every field and parameter

/// The frozen activation codes, by index.  Spelled out, not taken from the
/// enum's order, so reordering the enum cannot change a frozen model.
constexpr activation k_activations[] = {activation::linear, activation::relu,
                                        activation::tanh_act,
                                        activation::sigmoid};

std::uint64_t code_of(activation a) noexcept {
  return static_cast<std::uint64_t>(
      std::find(std::begin(k_activations), std::end(k_activations), a) -
      std::begin(k_activations));
}

/// The layout's byte order from or to the host's.
std::uint64_t little_endian(std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(v);
  }
  return v;
}

char* put(char* p, std::uint64_t v) noexcept {
  v = little_endian(v);
  std::memcpy(p, &v, k_word);
  return p + k_word;
}

char* put(char* p, std::span<const double> values) noexcept {
  for (const double v : values) p = put(p, std::bit_cast<std::uint64_t>(v));
  return p;
}

/// Reads the layout's words in order, in place.
struct cursor {
  const char* p;
  std::size_t left;  ///< bytes

  std::uint64_t next() {
    if (left < k_word) throw std::runtime_error{"mlp load: truncated"};
    std::uint64_t v = 0;
    std::memcpy(&v, p, k_word);
    p += k_word;
    left -= k_word;
    return little_endian(v);
  }

  void take_finite(std::span<double> values) {
    for (double& v : values) {
      v = std::bit_cast<double>(next());
      if (!std::isfinite(v)) {
        throw std::runtime_error{"mlp load: non-finite parameter"};
      }
    }
  }
};

}  // namespace

std::string save_mlp_to_string(const mlp& model) {
  const std::size_t n_layers = model.layer_count();
  const std::size_t count = model.parameter_count();
  std::string out(k_magic.size() + k_word * (3 + 2 * n_layers + count), '\0');
  char* p = std::copy(k_magic.begin(), k_magic.end(), out.data());
  p = put(p, model.input_size());
  p = put(p, n_layers);
  for (std::size_t i = 0; i < n_layers; ++i) {
    p = put(p, model.layer(i).output_size());
    p = put(p, code_of(model.layer(i).act()));
  }
  p = put(p, count);
  for (std::size_t i = 0; i < n_layers; ++i) {
    p = put(p, model.layer(i).weights());
    p = put(p, model.layer(i).biases());
  }
  return out;
}

mlp load_mlp_from_string(const std::string& text) {
  if (!text.starts_with(k_magic)) {
    throw std::runtime_error{"mlp load: not a liteflow-mlp v2 model"};
  }
  cursor in{text.data() + k_magic.size(), text.size() - k_magic.size()};
  const std::size_t input_size = in.next();
  if (input_size == 0) throw std::runtime_error{"mlp load: bad input size"};
  const std::size_t n_layers = in.next();
  if (n_layers == 0) throw std::runtime_error{"mlp load: bad layer count"};
  // The header's sizes are untrusted: this pass reads them in place, and
  // the parameter count is checked for overflow and against the bytes left
  // before the model is allocated.
  cursor layers = in;
  std::size_t expected = 0;
  std::size_t fan_in = input_size;
  for (std::size_t i = 0; i < n_layers; ++i) {
    const std::size_t out = in.next();
    if (out == 0 || in.next() >= std::size(k_activations)) {
      throw std::runtime_error{"mlp load: bad layer spec"};
    }
    std::size_t layer_params = 0;
    if (__builtin_mul_overflow(fan_in, out, &layer_params) ||
        __builtin_add_overflow(layer_params, out, &layer_params) ||
        __builtin_add_overflow(expected, layer_params, &expected)) {
      throw std::runtime_error{"mlp load: parameter count overflows"};
    }
    fan_in = out;
  }
  if (in.next() != expected) {
    throw std::runtime_error{"mlp load: parameter count mismatch"};
  }
  if (in.left % k_word != 0 || in.left / k_word != expected) {
    throw std::runtime_error{"mlp load: parameters do not fill the text"};
  }
  std::vector<layer_spec> specs(n_layers);
  for (auto& s : specs) {
    s.output_size = layers.next();
    s.act = k_activations[layers.next()];
  }
  mlp model{input_size, specs};
  for (std::size_t i = 0; i < n_layers; ++i) {
    in.take_finite(model.layer(i).weights());
    in.take_finite(model.layer(i).biases());
  }
  return model;
}

}  // namespace lf::nn
