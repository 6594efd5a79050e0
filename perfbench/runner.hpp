// The load loop: one pinned thread drives a datapath_engine through its
// public calls, block by block, on a workload's pre-generated inputs.
//
// Time inside the engine is a virtual clock (1 us per route), never wall
// time, and every cadence (FIN, update, maintain) counts work, not seconds.
// Two runs with one seed therefore make the same calls in the same order
// and reach the same engine state; only the wall-clock timings differ.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "quant/quantized_mlp.hpp"
#include "rt/engine.hpp"
#include "workload.hpp"

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------- spans --

/// Span names, one per call the traced run wraps.
enum class sp : std::uint32_t {
  block,          ///< one block of routes + maintain()
  route_l1,       ///< sampled route() served from the worker L1
  route_l2,       ///< sampled route() served from the sharded cache
  route_miss,     ///< sampled route() that pinned + inserted
  route_batch,    ///< sampled route_batch() call
  infer_into,     ///< quantized_mlp::infer_into replay of a sampled hit
  fin,            ///< sampled flow_finished()
  maintain,       ///< datapath_engine::maintain()
  update,         ///< one snapshot update (parent of the stages below)
  freeze,         ///< nn::save_mlp_to_string
  load,           ///< nn::load_mlp_from_string
  generate,       ///< codegen::generate_snapshot
  quantize,       ///< quant::quantize on the loaded model (replay)
  emit,           ///< codegen::emit_c_source on the same program (replay)
  install,        ///< datapath_engine::install
  switch_,        ///< datapath_engine::try_switch
  layer0,         ///< infer_into on a one-layer program (replay)
  layer1,
  layer2,
  infer_batch,    ///< quantized_mlp::infer_batch_into, 64 rows (replay)
  count_
};
struct span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;  ///< 1-based span id; 0 = root
  std::uint32_t update = 0;  ///< shared by one update's spans; 0 = none
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
};

/// Spans stay in memory until the run ends (write_json).
class tracer {
 public:
  /// Returns the new span's 1-based id.
  std::uint32_t add(sp name, std::uint32_t parent, std::uint32_t update,
                    std::uint64_t t0, std::uint64_t t1) {
    spans_.push_back(span{static_cast<std::uint32_t>(name), parent, update,
                          t0, t1});
    return static_cast<std::uint32_t>(spans_.size());
  }
  /// Open a span whose end is not known yet; close() sets it.
  std::uint32_t open(sp name, std::uint32_t parent, std::uint32_t update,
                     std::uint64_t t0) {
    return add(name, parent, update, t0, t0);
  }
  void close(std::uint32_t id, std::uint64_t t1) { spans_[id - 1].t1 = t1; }
  std::uint32_t next_update() noexcept { return ++updates_; }
  const std::vector<span>& spans() const noexcept { return spans_; }
  /// Durations (ns) of every span with this name.
  std::vector<double> durations(sp name) const;
  /// Per-name count, total and self time (span minus its children).
  std::string self_time_table() const;
  bool write_json(const std::string& path) const;

 private:
  std::vector<span> spans_;
  std::uint32_t updates_ = 0;
};

// ------------------------------------------------------------- checking --

/// Correctness gate, run outside the timed blocks on what a block recorded.
struct check_counts {
  std::uint64_t routes = 0;
  std::uint64_t unserved = 0;
  std::uint64_t inconsistent = 0;  ///< gen changed before the flow's FIN
  std::uint64_t outputs_checked = 0;
  std::uint64_t mismatched = 0;    ///< != quantized_mlp::infer, or batch != scalar
  std::uint64_t updates = 0;
  std::uint64_t gate_refused = 0;
  std::uint64_t drain_failures = 0;
  std::uint64_t failed() const noexcept {
    return unserved + inconsistent + mismatched + gate_refused +
           drain_failures;
  }
};

// --------------------------------------------------------------- runner --

class runner {
 public:
  /// `batch` 0 routes through route(), else through route_batch() calls of
  /// that many packets.  Construction does nothing timed.
  runner(const spec& s, const inputs& in, lf::rt::engine_config cfg,
         std::size_t batch, std::uint64_t seed);

  /// Engine construction, the first generate_snapshot, install and the
  /// first switch.  Returns the wall time (ns), which excludes the copy of
  /// the program kept as the output oracle.
  std::uint64_t setup();

  /// One block: spec.block_routes routes (a FIN after each flow's last), then
  /// maintain().  Results land in results()/outputs() for check().
  void run_block();
  /// Same calls as run_block(); additionally records spans for the block,
  /// maintain(), every `route_every`-th route, the first packet (a miss) of
  /// one new flow in 8, an infer_into replay of each sampled hit on the
  /// active program, and every `fin_every`-th FIN.
  void run_block_traced(tracer& tr, std::uint32_t route_every,
                        std::uint32_t fin_every);

  /// Warm-up for traffic whose flows outlive a run: advance it `blocks`
  /// blocks routing only each flow's first packet (which pins the active
  /// version) and sending each FIN, with `at_block` before every block and
  /// maintain() after it.  Flows started here keep their pins, so the
  /// versions they hold are at steady state when measurement starts.
  void fast_forward(std::size_t blocks, const std::function<void()>& at_block);

  /// Correctness checks on the last block (never timed).
  void check(check_counts& c);

  /// Freeze -> load -> generate -> install of `model` as the standby.  With
  /// `tr`, also replays quantize and emit_c_source on the loaded model as
  /// sibling spans.  Returns the wall time of the four calls (ns).
  std::uint64_t push_update(const lf::nn::mlp& model, std::uint64_t version,
                            tracer* tr, std::uint32_t update_id);
  /// try_switch on the model; returns its wall time and outcome.
  std::pair<std::uint64_t, lf::rt::switch_outcome::result> try_switch(
      tracer* tr, std::uint32_t update_id);

  /// switch_active(), the ungated flip; true when it flipped.
  bool switch_ungated();

  /// Teardown check: FIN every live flow, maintain(), and expect exactly
  /// the active version (plus an uninstalled standby) to stay live.
  bool drain_to_active();

  const inputs& in() const noexcept { return in_; }
  lf::rt::datapath_engine& engine() noexcept { return *eng_; }
  lf::rt::worker_handle& worker() noexcept { return *w_; }
  const std::vector<lf::rt::route_result>& results() const noexcept {
    return res_;
  }
  const std::vector<lf::fp::s64>& outputs() const noexcept { return out_; }
  /// Size of the C source the first generate_snapshot emitted.
  std::size_t c_source_bytes() const noexcept { return c_source_bytes_; }

 private:
  template <bool Traced>
  void scalar_block(tracer* tr, std::uint32_t parent, std::uint32_t route_every,
                    std::uint32_t fin_every);
  template <bool Traced>
  void batch_block(tracer* tr, std::uint32_t parent, std::uint32_t batch_every,
                   std::uint32_t fin_every);
  template <bool Traced>
  void fin(tracer* tr, std::uint32_t parent, std::uint32_t fin_every,
           lf::netsim::flow_id_t flow);
  /// Counts one packet of `slot`'s flow; true when it was the flow's last,
  /// in which case a new flow takes the slot.
  bool last_packet(std::uint32_t slot) noexcept;
  /// Drop oracles no live flow can still be served by.
  void prune_oracles();

  const spec& s_;
  const inputs& in_;
  lf::rt::engine_config cfg_;
  std::size_t batch_;
  std::uint64_t seed_;
  std::unique_ptr<lf::rt::datapath_engine> eng_;
  lf::rt::worker_handle* w_ = nullptr;

  std::vector<lf::netsim::flow_id_t> slot_flow_;  ///< live flow per slot
  std::vector<std::uint32_t> slot_left_;  ///< its packets still to send
  /// Set when a slot's flow starts; cleared by the traced loop and the
  /// fast-forward when they route the flow's first packet (its miss).
  std::vector<std::uint8_t> fresh_;
  lf::netsim::flow_id_t next_flow_ = 0;
  std::uint64_t flows_started_ = 0;  ///< indexes inputs::length()
  std::uint64_t pos_ = 0;        ///< routes played so far
  std::uint64_t fins_seen_ = 0;  ///< FIN sampling counter
  std::uint64_t block_first_ = 0;

  std::vector<lf::rt::route_result> res_;  ///< last block, one per route
  std::vector<lf::fp::s64> out_;           ///< last block, row per route
  std::vector<std::uint8_t> fin_;          ///< last block: FIN after route
  std::vector<lf::netsim::flow_id_t> bflows_;
  std::vector<lf::netsim::flow_id_t> pending_fin_;
  std::vector<lf::fp::s64> replay_out_;
  lf::quant::inference_scratch replay_scratch_;

  // Checker state: generation each slot's live flow started on, and the
  // installed programs by generation (the bit-exact output oracle).
  std::vector<std::uint64_t> slot_gen_;
  std::map<std::uint64_t, lf::quant::quantized_mlp> oracle_;
  std::uint64_t active_gen_ = 0;
  std::size_t c_source_bytes_ = 0;
};

/// Percentile with linear interpolation (q in [0, 1]); NaN when empty.
double percentile(std::vector<double> v, double q);

}  // namespace perfbench
