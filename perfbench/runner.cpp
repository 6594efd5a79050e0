#include "runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "codegen/c_emitter.hpp"
#include "codegen/snapshot.hpp"
#include "nn/serialize.hpp"
#include "quant/quantizer.hpp"

namespace perfbench {
namespace {

/// Virtual engine time of route number p: a nominal 1 Mpps link.
double vtime(std::uint64_t p) noexcept {
  return static_cast<double>(p) * 1e-6;
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One route in 256, chosen by seed, has its output checked against
/// quantized_mlp::infer.
constexpr std::uint64_t k_oracle_mask = 255;
/// Traced blocks time the first packet (a miss) of one new flow in 8.
constexpr std::uint64_t k_first_every = 8;

constexpr const char* k_span_names[] = {
    "block",        "route.l1",    "route.l2",      "route.miss",
    "route_batch",  "quant.infer_into", "rt.fin",   "rt.maintain",
    "update",       "nn.freeze",   "nn.load",       "codegen.generate",
    "quant.quantize", "codegen.emit", "rt.install", "rt.switch",
    "quant.layer0", "quant.layer1", "quant.layer2", "quant.infer_batch"};
static_assert(std::size(k_span_names) == static_cast<std::size_t>(sp::count_));

}  // namespace

// --------------------------------------------------------------- tracer --

std::vector<double> tracer::durations(sp name) const {
  std::vector<double> out;
  for (const span& s : spans_) {
    if (s.name == static_cast<std::uint32_t>(name)) {
      out.push_back(static_cast<double>(s.t1 - s.t0));
    }
  }
  return out;
}

std::string tracer::self_time_table() const {
  const std::size_t names = static_cast<std::size_t>(sp::count_);
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.t1 - s.t0;
  }
  std::vector<std::uint64_t> count(names, 0), total(names, 0), self(names, 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    const std::uint64_t d = s.t1 - s.t0;
    ++count[s.name];
    total[s.name] += d;
    self[s.name] += d > child_ns[i] ? d - child_ns[i] : 0;
  }
  std::string out = "span                 count     total_ms      self_ms\n";
  char line[128];
  for (std::size_t n = 0; n < names; ++n) {
    if (count[n] == 0) continue;
    std::snprintf(line, sizeof line, "%-18s %8llu %12.3f %12.3f\n",
                  k_span_names[n], static_cast<unsigned long long>(count[n]),
                  static_cast<double>(total[n]) / 1e6,
                  static_cast<double>(self[n]) / 1e6);
    out += line;
  }
  return out;
}

bool tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"names\": [");
  for (std::size_t n = 0; n < std::size(k_span_names); ++n) {
    std::fprintf(f, "%s\"%s\"", n == 0 ? "" : ", ", k_span_names[n]);
  }
  std::fprintf(f,
               "],\n \"columns\": [\"id\", \"name\", \"parent\", \"update\", "
               "\"start_ns\", \"end_ns\"],\n \"spans\": [");
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().t0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    std::fprintf(f, "%s\n  [%zu, %u, %u, %u, %llu, %llu]", i == 0 ? "" : ",",
                 i + 1, s.name, s.parent, s.update,
                 static_cast<unsigned long long>(s.t0 - base),
                 static_cast<unsigned long long>(s.t1 - base));
  }
  std::fprintf(f, "\n ]}\n");
  return std::fclose(f) == 0;
}

// --------------------------------------------------------------- runner --

runner::runner(const spec& s, const inputs& in, lf::rt::engine_config cfg,
               std::size_t batch, std::uint64_t seed)
    : s_{s}, in_{in}, cfg_{cfg}, batch_{batch}, seed_{mix64(seed)} {
  slot_flow_.resize(s.slots);
  for (std::size_t i = 0; i < s.slots; ++i) slot_flow_[i] = i + 1;
  next_flow_ = s.slots + 1;
  slot_left_ = in.first_left;
  fresh_.assign(s.slots, 1);
  slot_gen_.assign(s.slots, 0);
  res_.resize(s.block_routes);
  fin_.resize(s.block_routes);
  out_.resize(s.block_routes * in.out_size);
  replay_out_.resize(in.out_size);
  if (batch_ != 0) bflows_.resize(batch_);
}

std::uint64_t runner::setup() {
  const std::uint64_t t0 = now_ns();
  eng_ = std::make_unique<lf::rt::datapath_engine>(cfg_);
  w_ = &eng_->register_worker();
  lf::codegen::snapshot snap =
      lf::codegen::generate_snapshot(in_.models.front(), s_.model_name, 1);
  const std::uint64_t t1 = now_ns();
  lf::quant::quantized_mlp oracle = snap.program;
  c_source_bytes_ = snap.c_source.size();
  const std::uint64_t t2 = now_ns();
  const std::uint64_t gen = eng_->install(std::move(snap));
  eng_->try_switch(lf::core::k_default_model);
  const std::uint64_t t3 = now_ns();
  oracle_.insert_or_assign(gen, std::move(oracle));
  active_gen_ = gen;
  return (t1 - t0) + (t3 - t2);
}

template <bool Traced>
void runner::fin(tracer* tr, std::uint32_t parent, std::uint32_t fin_every,
                 lf::netsim::flow_id_t flow) {
  if constexpr (Traced) {
    if (++fins_seen_ % fin_every == 0) {
      const std::uint64_t t0 = now_ns();
      eng_->flow_finished(*w_, flow);
      tr->add(sp::fin, parent, 0, t0, now_ns());
      return;
    }
  }
  eng_->flow_finished(*w_, flow);
}

bool runner::last_packet(std::uint32_t slot) noexcept {
  if (--slot_left_[slot] != 0) return false;
  slot_flow_[slot] = next_flow_++;
  slot_left_[slot] = in_.length(flows_started_++);
  fresh_[slot] = 1;
  return true;
}

template <bool Traced>
void runner::scalar_block(tracer* tr, std::uint32_t parent,
                          std::uint32_t route_every, std::uint32_t fin_every) {
  const std::size_t n = s_.block_routes;
  const std::size_t in_sz = in_.in_size;
  const std::size_t out_sz = in_.out_size;
  // The infer_into replay runs on the engine's own active program, pinned
  // through the public handle for the block.
  lf::rt::snapshot_version* active = nullptr;
  if constexpr (Traced) {
    lf::rt::epoch_domain::guard g{eng_->epochs(), w_->epoch_slot()};
    active = eng_->snapshots().pin_active();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t p = pos_ + i;
    const std::uint32_t slot = in_.slot(p);
    const lf::netsim::flow_id_t flow = slot_flow_[slot];
    const std::span<const lf::fp::s64> x{in_.row(p), in_sz};
    const std::span<lf::fp::s64> y{out_.data() + i * out_sz, out_sz};
    if constexpr (Traced) {
      const bool first = fresh_[slot] != 0;
      fresh_[slot] = 0;
      if (p % route_every == 0 || (first && flow % k_first_every == 0)) {
        const std::uint64_t l1 = w_->l1_hits();
        const std::uint64_t t0 = now_ns();
        res_[i] = eng_->route(*w_, flow, vtime(p), x, y);
        const std::uint64_t t1 = now_ns();
        const sp name = !res_[i].hit              ? sp::route_miss
                        : w_->l1_hits() != l1     ? sp::route_l1
                                                  : sp::route_l2;
        tr->add(name, parent, 0, t0, t1);
        if (res_[i].hit && active != nullptr) {
          const std::uint64_t t2 = now_ns();
          active->snap.program.infer_into(x, replay_out_, replay_scratch_);
          tr->add(sp::infer_into, parent, 0, t2, now_ns());
        }
      } else {
        res_[i] = eng_->route(*w_, flow, vtime(p), x, y);
      }
    } else {
      res_[i] = eng_->route(*w_, flow, vtime(p), x, y);
    }
    fin_[i] = last_packet(slot);
    if (fin_[i]) fin<Traced>(tr, parent, fin_every, flow);
  }
  pos_ += n;
  if constexpr (Traced) {
    if (active != nullptr) eng_->snapshots().unpin(active);
  }
}

template <bool Traced>
void runner::batch_block(tracer* tr, std::uint32_t parent,
                         std::uint32_t batch_every, std::uint32_t fin_every) {
  const std::size_t n = s_.block_routes;
  const std::size_t in_sz = in_.in_size;
  const std::size_t out_sz = in_.out_size;
  for (std::size_t b = 0; b < n; b += batch_) {
    const std::uint64_t p0 = pos_ + b;
    // NAPI-style gather: the batch's flows in arrival order.  A flow whose
    // last packet is in this batch gets its FIN after the batch, and a new
    // flow in the same slot already routes under its own id.
    pending_fin_.clear();
    for (std::size_t k = 0; k < batch_; ++k) {
      const std::uint32_t slot = in_.slot(p0 + k);
      bflows_[k] = slot_flow_[slot];
      fin_[b + k] = last_packet(slot);
      if (fin_[b + k]) pending_fin_.push_back(bflows_[k]);
    }
    // Rows of one batch are contiguous: p0 and the pool size are both
    // multiples of the batch size.
    const std::span<const lf::fp::s64> x{in_.row(p0), batch_ * in_sz};
    const std::span<lf::fp::s64> y{out_.data() + b * out_sz, batch_ * out_sz};
    const std::span<lf::rt::route_result> r{res_.data() + b, batch_};
    if constexpr (Traced) {
      if ((p0 / batch_) % batch_every == 0) {
        const std::uint64_t t0 = now_ns();
        eng_->route_batch(*w_, bflows_, vtime(p0), x, y, r);
        tr->add(sp::route_batch, parent, 0, t0, now_ns());
      } else {
        eng_->route_batch(*w_, bflows_, vtime(p0), x, y, r);
      }
    } else {
      eng_->route_batch(*w_, bflows_, vtime(p0), x, y, r);
    }
    for (const lf::netsim::flow_id_t f : pending_fin_) {
      fin<Traced>(tr, parent, fin_every, f);
    }
  }
  pos_ += n;
}

void runner::run_block() {
  block_first_ = pos_;
  if (batch_ == 0) {
    scalar_block<false>(nullptr, 0, 1, 1);
  } else {
    batch_block<false>(nullptr, 0, 1, 1);
  }
  eng_->maintain();
}

void runner::run_block_traced(tracer& tr, std::uint32_t route_every,
                              std::uint32_t fin_every) {
  block_first_ = pos_;
  const std::uint32_t id = tr.open(sp::block, 0, 0, now_ns());
  if (batch_ == 0) {
    scalar_block<true>(&tr, id, route_every, fin_every);
  } else {
    // Batches are sampled as often as single routes would be.
    const std::uint32_t every = std::max<std::uint32_t>(
        1, route_every / static_cast<std::uint32_t>(batch_));
    batch_block<true>(&tr, id, every, fin_every);
  }
  const std::uint64_t t0 = now_ns();
  eng_->maintain();
  const std::uint64_t t1 = now_ns();
  tr.add(sp::maintain, id, 0, t0, t1);
  tr.close(id, t1);
}

void runner::fast_forward(std::size_t blocks,
                          const std::function<void()>& at_block) {
  // A slot's flow is routed once, at its first packet; its later packets
  // are skipped.
  std::vector<lf::fp::s64> y(in_.out_size);
  for (std::size_t b = 0; b < blocks; ++b) {
    at_block();
    for (std::size_t i = 0; i < s_.block_routes; ++i) {
      const std::uint64_t p = pos_ + i;
      const std::uint32_t slot = in_.slot(p);
      const lf::netsim::flow_id_t flow = slot_flow_[slot];
      if (fresh_[slot] != 0) {
        fresh_[slot] = 0;
        slot_gen_[slot] =
            eng_->route(*w_, flow, vtime(p), {in_.row(p), in_.in_size}, y)
                .gen;
      }
      if (last_packet(slot)) {
        eng_->flow_finished(*w_, flow);
        slot_gen_[slot] = 0;
      }
    }
    pos_ += s_.block_routes;
    eng_->maintain();
    prune_oracles();
  }
}

void runner::check(check_counts& c) {
  const std::size_t n = s_.block_routes;
  const std::size_t in_sz = in_.in_size;
  const std::size_t out_sz = in_.out_size;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t p = block_first_ + i;
    const lf::rt::route_result& r = res_[i];
    ++c.routes;
    if (!r.served) ++c.unserved;
    // §3.4: a flow stays on the generation its first packet pinned.
    std::uint64_t& g = slot_gen_[in_.slot(p)];
    if (g == 0) {
      g = r.gen;
    } else if (g != r.gen) {
      ++c.inconsistent;
    }
    if (fin_[i] != 0) g = 0;
    if ((mix64(p ^ seed_) & k_oracle_mask) == 0) {
      ++c.outputs_checked;
      const auto it = oracle_.find(r.gen);
      if (it == oracle_.end()) {
        ++c.mismatched;
        continue;
      }
      const std::vector<lf::fp::s64> want =
          it->second.infer({in_.row(p), in_sz});
      if (!std::equal(want.begin(), want.end(), out_.begin() + i * out_sz)) {
        ++c.mismatched;
      }
    }
  }
  prune_oracles();
}

void runner::prune_oracles() {
  std::uint64_t oldest = active_gen_;
  for (const std::uint64_t g : slot_gen_) {
    if (g != 0) oldest = std::min(oldest, g);
  }
  oracle_.erase(oracle_.begin(), oracle_.lower_bound(oldest));
}

std::uint64_t runner::push_update(const lf::nn::mlp& model,
                                  std::uint64_t version, tracer* tr,
                                  std::uint32_t update_id) {
  const std::uint64_t t0 = now_ns();
  const std::string frozen = lf::nn::save_mlp_to_string(model);
  const std::uint64_t t1 = now_ns();
  const lf::nn::mlp loaded = lf::nn::load_mlp_from_string(frozen);
  const std::uint64_t t2 = now_ns();
  lf::codegen::snapshot snap =
      lf::codegen::generate_snapshot(loaded, s_.model_name, version);
  const std::uint64_t t3 = now_ns();
  lf::quant::quantized_mlp oracle = snap.program;
  std::uint32_t parent = 0;
  if (tr != nullptr) {
    // generate_snapshot = quantize + emit_c_source; replay both halves
    // through their public calls to split its time.
    parent = tr->open(sp::update, 0, update_id, t0);
    tr->add(sp::freeze, parent, update_id, t0, t1);
    tr->add(sp::load, parent, update_id, t1, t2);
    tr->add(sp::generate, parent, update_id, t2, t3);
    const std::uint64_t q0 = now_ns();
    const lf::quant::quantized_mlp prog = lf::quant::quantize(loaded);
    const std::uint64_t q1 = now_ns();
    const std::string c = lf::codegen::emit_c_source(
        prog, lf::codegen::emit_options{s_.model_name, version});
    const std::uint64_t q2 = now_ns();
    tr->add(sp::quantize, parent, update_id, q0, q1);
    tr->add(sp::emit, parent, update_id, q1, q2);
  }
  const std::uint64_t t4 = now_ns();
  const std::uint64_t gen = eng_->install(std::move(snap));
  const std::uint64_t t5 = now_ns();
  if (tr != nullptr) {
    tr->add(sp::install, parent, update_id, t4, t5);
    tr->close(parent, t5);
  }
  oracle_.insert_or_assign(gen, std::move(oracle));
  return (t3 - t0) + (t5 - t4);
}

std::pair<std::uint64_t, lf::rt::switch_outcome::result> runner::try_switch(
    tracer* tr, std::uint32_t update_id) {
  const std::uint64_t t0 = now_ns();
  const lf::rt::switch_outcome out =
      eng_->try_switch(lf::core::k_default_model);
  const std::uint64_t t1 = now_ns();
  if (tr != nullptr) tr->add(sp::switch_, 0, update_id, t0, t1);
  if (out.flipped()) {
    active_gen_ = oracle_.rbegin()->first;
    prune_oracles();
  }
  return {t1 - t0, out.status};
}

bool runner::switch_ungated() {
  if (!eng_->switch_active()) return false;
  active_gen_ = oracle_.rbegin()->first;
  prune_oracles();
  return true;
}

bool runner::drain_to_active() {
  for (const lf::netsim::flow_id_t f : slot_flow_) eng_->flow_finished(*w_, f);
  eng_->maintain();
  const std::uint64_t expect =
      1 + (eng_->snapshots().has_standby() ? 1 : 0);
  return eng_->cached_flows() == 0 && eng_->versions_live() == expect;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
