// Model keys and shadow scoring: the vocabulary of the rt engine's
// multi-model serving (rt::datapath_engine, DESIGN §11).
//
//   model_key        stable identifier of one *logical* model ("cc-aurora",
//                    "sched-ffnn", ...).  Distinct from core::model_id,
//                    which names one *installed snapshot* inside nn_manager;
//                    a logical model's lifecycle is a sequence of snapshot
//                    installs behind one stable key.
//   composite key    the engine's flow caches stay keyed by a single 64-bit
//                    value so their probe loops are untouched; multi-model
//                    routing folds the model key into the top bits of the
//                    flow id.  Key 0 maps a flow onto itself, so a
//                    single-model engine hashes and shards exactly as a
//                    keyless one would.
//
// The header also carries the **shadow scoring** primitives (the live
// complement to §3.3's offline fidelity check): a seeded, deterministic
// flow sampler plus a divergence accumulator.  The standby snapshot runs on
// the sampled slice of live routes, its outputs are compared against the
// active's, and the accumulated divergence statistic gates the engine's
// try_switch — measure before you commit.  The scorer itself is plain
// (single-writer); the rt engine wraps it in a per-model spinlock.  The
// simulated stack serves one model behind core::inference_router and uses
// none of this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "netsim/packet.hpp"

namespace lf::core {

/// Stable identifier of one logical model served by an engine.
using model_key = std::uint32_t;

/// The implicit model of every single-model harness.
inline constexpr model_key k_default_model = 0;

/// Bits of the composite key reserved for the flow id.  Flows must fit in
/// 48 bits and model keys in 16 — comfortably true for every harness (flow
/// ids are dense small integers; an engine serves a handful of models).
inline constexpr unsigned k_flow_key_bits = 48;
inline constexpr netsim::flow_id_t k_flow_key_mask =
    (netsim::flow_id_t{1} << k_flow_key_bits) - 1;

/// Fold (model, flow) into the single 64-bit key the flow caches probe on.
/// Exact (collision-free) under the bit-budget above, and the identity for
/// model 0 — which is what keeps single-model hashing, shard selection and
/// therefore fixed-seed outputs unchanged.
constexpr netsim::flow_id_t composite_flow_key(model_key m,
                                               netsim::flow_id_t flow) noexcept {
  return (flow & k_flow_key_mask) |
         (static_cast<netsim::flow_id_t>(m) << k_flow_key_bits);
}

/// Shadow scoring knobs.  Rate 0 (the default) disables shadowing entirely:
/// no sampling hash, no standby inference, no gate — the zero-overhead
/// contract the regression tests pin down.
struct shadow_config {
  /// Fraction of *flows* (not packets) shadow-scored, deterministically
  /// selected by hashing (seed, model, flow).  Sampling whole flows keeps
  /// the sampled route set identical across runs with the same flow plan.
  double sample_rate = 0.0;
  std::uint64_t seed = 0x5eedc0de5eedc0deULL;
  /// Mean per-route output divergence (io_scale-normalized) above which the
  /// standby is considered unfaithful and the switch is blocked.
  double divergence_threshold = 0.05;
  /// Shadow samples required before a gated switch may be admitted — an
  /// unmeasured standby is treated as unproven, not as clean.
  std::size_t min_samples = 32;
  /// When false the scorer still accumulates (observability) but
  /// try_switch is never blocked.
  bool gate_enabled = true;

  bool active() const noexcept { return sample_rate > 0.0; }
};

/// Verdict of one gate consultation.
struct shadow_verdict {
  bool admit = true;
  std::size_t samples = 0;
  double mean_divergence = 0.0;
  double max_divergence = 0.0;
};

/// Divergence accumulator for one model's standby snapshot.  Plain data:
/// callers that share it across threads must wrap it in their own lock (the
/// rt engine uses a per-model spinlock).
class shadow_scorer {
 public:
  /// Deterministic flow sampler: a pure splitmix64 hash of
  /// (seed, composite key) against the rate.  No state, no clock — the same
  /// (seed, model, flow) always lands on the same side, which is what makes
  /// the sampled route set reproducible run-over-run.
  static bool sampled(const shadow_config& cfg, model_key m,
                      netsim::flow_id_t flow) noexcept;

  /// Record one shadow comparison (mean |active - standby| over the output
  /// vector, in io_scale-normalized units) made against `candidate_gen`.
  /// Drops (and counts) the sample unless `candidate_gen` matches the bound
  /// generation.  This closes a misattribution race in concurrent callers:
  /// a worker that peeked candidate A inside its epoch guard can reach the
  /// scorer after the writer replaced A with B and reset/re-bound the
  /// evidence — A's divergence must not gate B.
  void record(double divergence, std::uint64_t candidate_gen) noexcept;

  /// Bind the evidence to one candidate generation (0 = unbound: every
  /// tagged record drops).  reset() unbinds.
  void bind(std::uint64_t candidate_gen) noexcept { bound_gen_ = candidate_gen; }
  std::uint64_t bound_gen() const noexcept { return bound_gen_; }
  /// Tagged records dropped for naming a generation other than the bound
  /// one (cumulative; survives reset()).
  std::uint64_t gen_mismatch_drops() const noexcept { return gen_drops_; }

  std::size_t samples() const noexcept { return samples_; }
  double mean_divergence() const noexcept {
    return samples_ == 0 ? 0.0 : sum_ / static_cast<double>(samples_);
  }
  double max_divergence() const noexcept { return max_; }

  /// Gate decision for the current evidence (pure; does not reset).
  shadow_verdict check(const shadow_config& cfg) const noexcept;

  /// Forget the evidence (a new standby invalidates the old one's score)
  /// and unbind the generation, so in-flight tagged records for the old
  /// candidate drop instead of polluting the fresh accumulator.
  void reset() noexcept;

 private:
  std::size_t samples_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  std::uint64_t bound_gen_ = 0;
  std::uint64_t gen_drops_ = 0;
};

/// Mean absolute elementwise difference between two quantized output
/// vectors, each normalized by its own io_scale (generations may quantize
/// with different scales).  Sizes must match; returns +inf on mismatch so a
/// shape-incompatible standby can never pass the gate.
double shadow_divergence(std::span<const std::int64_t> active_out,
                         std::int64_t active_scale,
                         std::span<const std::int64_t> shadow_out,
                         std::int64_t shadow_scale) noexcept;

}  // namespace lf::core
