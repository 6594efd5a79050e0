// Workload definitions for the single-thread rt benchmark.
//
// A workload fixes the model, the flow mix and the cadences; a seed fixes
// every input derived from them.  All inputs are generated here, before any
// clock starts: the cyclic packet-to-flow-slot sequence, the flow lengths,
// the feature-vector pool and the perturbed models the update pipeline
// freezes.  Nothing here reads a clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "nn/mlp.hpp"
#include "util/fixed_point.hpp"

namespace perfbench {

enum class kind { cc_adapt, flow_churn, lb_batch };

/// How many packets a flow sends; its last one is followed by its FIN.
enum class lengths {
  /// Geometric with mean `mean_packets`: a FIN after any packet with
  /// p = 1 / mean_packets, as the rt stress harness ends its flows.
  geometric,
  /// ceil(bytes / 1460) with bytes from netsim::web_search_flow_sizes(),
  /// the DCTCP web-search CDF and packet size the apps' experiments use.
  web_search,
};

struct spec {
  kind k;
  const char* name;
  const char* model_name;
  /// Concurrent flows.  Each packet belongs to a slot drawn uniformly, as
  /// the rt stress harness picks flows; a slot holds one live flow, and a
  /// new one starts in it after each FIN.
  std::size_t slots;
  lengths len;
  std::uint32_t mean_packets;  ///< geometric lengths only
  std::size_t block_routes;    ///< routes per timed block (batch multiple)
  std::size_t batch;           ///< 0 = route(); else route_batch() size
  std::size_t update_every;    ///< blocks between snapshot updates
  bool updates_route;          ///< updates target the routing engine
  double shadow_rate;          ///< engine_config::shadow.sample_rate
};

/// The three workloads, in the order BENCHMARK.json lists them.
const std::vector<spec>& specs();
/// nullptr when `name` is not a workload.
const spec* find_spec(std::string_view name);

/// Everything a run consumes, derived from (workload, seed).
struct inputs {
  /// Cyclic packet sequence; route number p belongs to slot
  /// slot_seq[p & slot_mask].
  std::vector<std::uint32_t> slot_seq;
  std::size_t slot_mask = 0;
  /// Cyclic flow lengths in packets, consumed in the order flows start.
  std::vector<std::uint32_t> flow_len;
  std::size_t len_mask = 0;
  /// Packets each slot's first flow has left at route 0: the residual of
  /// a length-biased draw, so slot occupancy starts in its steady state.
  std::vector<std::uint32_t> first_left;
  /// Feature rows, row-major; route number p reads row p & (rows - 1), so
  /// the rows of one batch are contiguous.
  std::vector<lf::fp::s64> pool;
  std::size_t rows = 0;
  std::size_t in_size = 0;
  std::size_t out_size = 0;
  /// models[0] is the deployed model; models[1..] carry seeded weight
  /// perturbations small enough for the shadow gate to admit, and update
  /// k freezes models[1 + k % (models.size() - 1)].
  std::vector<lf::nn::mlp> models;

  std::uint32_t slot(std::uint64_t route) const noexcept {
    return slot_seq[route & slot_mask];
  }
  std::uint32_t length(std::uint64_t k) const noexcept {
    return flow_len[k & len_mask];
  }
  const lf::fp::s64* row(std::uint64_t route) const noexcept {
    return pool.data() + (route & (rows - 1)) * in_size;
  }
  const lf::nn::mlp& update_model(std::uint64_t k) const noexcept {
    return models[1 + k % (models.size() - 1)];
  }
  /// Routes the longest flow lives, on average: its length times the slot
  /// count, since a slot gets one packet in `slots`.
  std::uint64_t longest_life_routes() const noexcept;
};

inputs make_inputs(const spec& s, std::uint64_t seed);

}  // namespace perfbench
