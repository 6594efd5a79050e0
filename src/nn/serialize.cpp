#include "nn/serialize.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace lf::nn {
namespace {

/// from_chars reports overflow and underflow alike as out of range; the
/// stream rejected overflow but read an underflow as a signed zero.  The
/// out-of-range decimal [first, last) underflowed iff it is below 1, that
/// is iff its leading nonzero digit's place plus its exponent is negative.
bool underflows(const char* first, const char* last) {
  if (*first == '-') ++first;
  long long place = 0;  // of the leading nonzero digit, as a power of 10
  bool found = false;
  bool fraction = false;
  const char* p = first;
  for (; p != last && *p != 'e' && *p != 'E'; ++p) {
    if (*p == '.') {
      fraction = true;
    } else if (!fraction) {
      if (found) {
        ++place;
      } else {
        found = *p != '0';
      }
    } else if (!found) {
      --place;
      found = *p != '0';
    }
  }
  long long exp = 0;
  bool negative_exp = false;
  if (p != last) {
    ++p;
    if (p != last && (*p == '+' || *p == '-')) negative_exp = *p++ == '-';
    // Capped far beyond any place a text can reach, and far below overflow.
    for (; p != last && exp < 1'000'000'000'000'000; ++p) {
      exp = exp * 10 + (*p - '0');
    }
  }
  return place + (negative_exp ? -exp : exp) < 0;
}

/// A cursor over the frozen text that reads words and numbers as `std::istream`
/// extraction does in the C locale.
class reader {
 public:
  explicit reader(std::string_view text)
      : p_{text.data()}, end_{text.data() + text.size()} {}

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

  /// `is >> std::string`: the next run of non-space characters.
  std::string_view word() {
    skip_space();
    const char* first = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {first, static_cast<std::size_t>(p_ - first)};
  }

  void expect(std::string_view want) {
    const std::string_view got = word();
    if (got != want) {
      throw std::runtime_error{"mlp load: expected '" + std::string{want} +
                               "', got '" + std::string{got} + "'"};
    }
  }

  /// `is >> std::size_t`, except that a '-' sign is refused: the stream
  /// wrapped it to a count no text can hold, which failed later anyway.
  bool count(std::size_t& out) {
    skip_space();
    if (p_ != end_ && *p_ == '+') ++p_;
    const auto [ptr, ec] = std::from_chars(p_, end_, out);
    p_ = ptr;
    return ec == std::errc{};
  }

  /// `is >> double`.  num_get first takes the longest prefix shaped like
  /// [sign] digits [. digits] [e [sign] digits] (an 'e' only after a digit),
  /// so "nan" and "inf" take nothing, then strtod must consume all of it
  /// and not overflow.  from_chars rounds as strtod does but takes no '+'.
  bool real(double& out) {
    skip_space();
    const char* first = p_;
    const char* q = p_;
    if (q != end_ && (*q == '+' || *q == '-')) ++q;
    bool mantissa = false;
    bool dot = false;
    bool sci = false;
    for (; q != end_; ++q) {
      const char c = *q;
      if (c >= '0' && c <= '9') {
        mantissa = true;
      } else if (c == '.' && !dot && !sci) {
        dot = true;
      } else if ((c == 'e' || c == 'E') && mantissa && !sci) {
        sci = true;
        if (q + 1 != end_ && (q[1] == '+' || q[1] == '-')) ++q;
      } else {
        break;
      }
    }
    p_ = q;
    if (first != q && *first == '+') ++first;
    const auto [ptr, ec] = std::from_chars(first, q, out);
    if (ptr != q || first == q) return false;
    if (ec == std::errc::result_out_of_range) {
      if (!underflows(first, q)) return false;
      out = *first == '-' ? -0.0 : 0.0;
      return true;
    }
    return ec == std::errc{};
  }

 private:
  // The C locale's isspace: ' ', '\t', '\n', '\v', '\f', '\r'.
  static bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  void skip_space() noexcept {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

activation parse_activation(std::string_view name) {
  try {
    return activation_from_string(name);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error{std::string{"mlp load: "} + e.what()};
  }
}

}  // namespace

std::string save_mlp_to_string(const mlp& model) {
  std::string out = "liteflow-mlp v1\ninput " +
                    std::to_string(model.input_size()) + "\nlayers " +
                    std::to_string(model.layer_count()) + "\n";
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const auto& layer = model.layer(i);
    out += "layer " + std::to_string(layer.output_size()) + " ";
    out += to_string(layer.act());
    out += '\n';
  }
  const auto params = model.parameters();
  out += "params " + std::to_string(params.size()) + "\n";
  // %.17g round-trips every double and spends at most 24 characters on one
  // ("-2.2250738585072014e-308"); each is followed by its separator.
  constexpr std::size_t k_max_chars = 24 + 1;
  const std::size_t header = out.size();
  out.resize(header + params.size() * k_max_chars + 1);
  char* p = out.data() + header;
  char* const end = out.data() + out.size();
  for (std::size_t i = 0; i < params.size(); ++i) {
    p = std::to_chars(p, end, params[i], std::chars_format::general,
                      std::numeric_limits<double>::max_digits10)
            .ptr;
    *p++ = (i + 1) % 8 == 0 ? '\n' : ' ';
  }
  *p++ = '\n';
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

mlp load_mlp_from_string(const std::string& text) {
  reader in{text};
  in.expect("liteflow-mlp");
  in.expect("v1");
  in.expect("input");
  std::size_t input_size = 0;
  if (!in.count(input_size) || input_size == 0) {
    throw std::runtime_error{"mlp load: bad input size"};
  }
  in.expect("layers");
  std::size_t n_layers = 0;
  if (!in.count(n_layers) || n_layers == 0) {
    throw std::runtime_error{"mlp load: bad layer count"};
  }
  // The header's sizes are untrusted: specs grows one text line at a time,
  // and the parameter count is checked for overflow and against the text
  // before the model is allocated.
  std::vector<layer_spec> specs;
  std::size_t expected = 0;
  std::size_t fan_in = input_size;
  for (std::size_t i = 0; i < n_layers; ++i) {
    in.expect("layer");
    std::size_t out = 0;
    if (!in.count(out) || out == 0) {
      throw std::runtime_error{"mlp load: bad layer spec"};
    }
    const std::string_view act = in.word();
    if (act.empty()) throw std::runtime_error{"mlp load: bad layer spec"};
    specs.push_back({out, parse_activation(act)});
    std::size_t layer_params = 0;
    if (__builtin_mul_overflow(fan_in, out, &layer_params) ||
        __builtin_add_overflow(layer_params, out, &layer_params) ||
        __builtin_add_overflow(expected, layer_params, &expected)) {
      throw std::runtime_error{"mlp load: parameter count overflows"};
    }
    fan_in = out;
  }
  in.expect("params");
  std::size_t count = 0;
  if (!in.count(count) || count != expected) {
    throw std::runtime_error{"mlp load: parameter count mismatch"};
  }
  // A value takes at least two characters: a digit, and the space, sign or
  // point that parts it from the token before.
  if (count > in.remaining() / 2) {
    throw std::runtime_error{"mlp load: truncated parameters"};
  }
  mlp model{input_size, specs};
  std::vector<double> params(count);
  for (auto& p : params) {
    if (!in.real(p)) throw std::runtime_error{"mlp load: bad parameter"};
  }
  model.set_parameters(params);
  return model;
}

}  // namespace lf::nn
