#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netsim/workload.hpp"
#include "rl/link_env.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

constexpr std::size_t k_slot_seq_len = std::size_t{1} << 20;
constexpr std::size_t k_flow_lens = std::size_t{1} << 16;
constexpr std::size_t k_pool_rows = 4096;
constexpr std::size_t k_model_variants = 16;
/// Payload bytes per packet, as netsim's sources and the apps' flows send.
constexpr double k_packet_bytes = 1460.0;
/// Additive N(0, sigma) on every parameter of an update's model.  Small
/// enough that the quantized standby stays inside the shadow gate's
/// divergence threshold, large enough that every update ships new weights.
constexpr double k_perturb_sigma = 0.002;

std::uint32_t draw_length(const spec& s, const lf::empirical_cdf& web,
                          lf::rng& g) {
  double n = 1.0;
  if (s.len == lengths::web_search) {
    n = std::ceil(web.quantile(g.uniform()) / k_packet_bytes);
  } else if (s.mean_packets > 1) {
    // Inverse transform of the geometric law on {1, 2, ...}.
    const double p = 1.0 / static_cast<double>(s.mean_packets);
    n = std::ceil(std::log1p(-g.uniform()) / std::log1p(-p));
  }
  return static_cast<std::uint32_t>(std::clamp(n, 1.0, 1e9));
}

void make_traffic(const spec& s, inputs& in, lf::rng& g) {
  in.slot_seq.resize(k_slot_seq_len);
  in.slot_mask = k_slot_seq_len - 1;
  for (std::uint32_t& x : in.slot_seq) {
    x = static_cast<std::uint32_t>(
        g.uniform_int(0, static_cast<std::int64_t>(s.slots) - 1));
  }
  const lf::empirical_cdf web = lf::netsim::web_search_flow_sizes();
  in.flow_len.resize(k_flow_lens);
  in.len_mask = k_flow_lens - 1;
  std::vector<std::uint64_t> cum(k_flow_lens);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < k_flow_lens; ++i) {
    in.flow_len[i] = draw_length(s, web, g);
    total += in.flow_len[i];
    cum[i] = total;
  }
  // A slot observed at a random time holds a flow picked in proportion to
  // its length, at a uniform point of it.
  in.first_left.resize(s.slots);
  for (std::uint32_t& left : in.first_left) {
    const auto at = static_cast<std::uint64_t>(
        g.uniform() * static_cast<double>(total));
    const std::uint32_t len =
        in.flow_len[std::min<std::size_t>(
            static_cast<std::size_t>(
                std::upper_bound(cum.begin(), cum.end(), at) - cum.begin()),
            k_flow_lens - 1)];
    left = 1 + static_cast<std::uint32_t>(g.uniform() * len) % len;
  }
}

/// Aurora observations from the fluid link model under random rate
/// actions, skipping each episode's zero-padded history.
void fill_link_env_rows(inputs& in, lf::rng& g) {
  lf::rl::link_env env{lf::rl::link_env_config{}, g.split()};
  const std::size_t history = env.config().history;
  std::size_t step = 0;
  std::vector<double> obs = env.reset();
  for (std::size_t r = 0; r < in.rows;) {
    const double action[1] = {g.uniform(-1.0, 1.0)};
    lf::rl::step_result res = env.step(action);
    ++step;
    if (step > history) {
      for (std::size_t j = 0; j < in.in_size; ++j) {
        in.pool[r * in.in_size + j] =
            lf::fp::sat_quantize(res.observation[j] * 1000.0);
      }
      ++r;
    }
    if (res.done) {
      env.reset();
      step = 0;
    }
  }
}

lf::nn::mlp make_model(kind k, lf::rng& g) {
  switch (k) {
    case kind::cc_adapt:
      return lf::nn::make_aurora_net(g);
    case kind::flow_churn:
      return lf::nn::make_ffnn_flow_size_net(g);
    case kind::lb_batch:
      return lf::nn::make_lb_mlp_net(g);
  }
  throw std::logic_error{"unknown workload kind"};
}

}  // namespace

const std::vector<spec>& specs() {
  // Block sizes give blocks of roughly 5-10 ms on a 2020s x86 core, so one
  // block always holds the same periodic work (maintain(), FIN erases,
  // tombstone rehashes) and a whole run yields hundreds of blocks.
  // cc_adapt updates every 25 blocks: 102.4 ms of engine time, the
  // LiteFlow slow-path period T = 100 ms the apps default to.
  static const std::vector<spec> all = {
      {kind::cc_adapt, "cc_adapt", "cc-aurora", 1024, lengths::web_search, 0,
       4096, 0, 25, true, 1.0 / 16.0},
      {kind::flow_churn, "flow_churn", "sched-ffnn", 8192, lengths::geometric,
       4, 16384, 0, 16, false, 0.0},
      {kind::lb_batch, "lb_batch", "lb-mlp", 4096, lengths::geometric, 16,
       32768, 64, 16, false, 0.0},
  };
  return all;
}

const spec* find_spec(std::string_view name) {
  for (const spec& s : specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::uint64_t inputs::longest_life_routes() const noexcept {
  const std::uint32_t longest =
      *std::max_element(flow_len.begin(), flow_len.end());
  return static_cast<std::uint64_t>(longest) * first_left.size();
}

inputs make_inputs(const spec& s, std::uint64_t seed) {
  lf::rng master{seed * 0x9e3779b97f4a7c15ULL +
                 static_cast<std::uint64_t>(s.k) + 1};
  lf::rng sched_g = master.split();
  lf::rng pool_g = master.split();
  lf::rng model_g = master.split();

  inputs in;
  make_traffic(s, in, sched_g);

  in.models.reserve(1 + k_model_variants);  // `base` must stay valid
  in.models.push_back(make_model(s.k, model_g));
  const lf::nn::mlp& base = in.models.front();
  const std::vector<double> params = base.parameters();
  for (std::size_t v = 0; v < k_model_variants; ++v) {
    std::vector<double> p = params;
    for (double& x : p) x += model_g.normal(0.0, k_perturb_sigma);
    lf::nn::mlp m = base;
    m.set_parameters(p);
    in.models.push_back(std::move(m));
  }

  in.rows = k_pool_rows;
  in.in_size = base.input_size();
  in.out_size = base.output_size();
  in.pool.resize(in.rows * in.in_size);
  if (s.k == kind::cc_adapt) {
    fill_link_env_rows(in, pool_g);
  } else {
    // Flow features inside the io_scale range, as the rt harnesses use.
    for (lf::fp::s64& x : in.pool) x = pool_g.uniform_int(-900, 900);
  }
  return in;
}

}  // namespace perfbench
