// Kernel-side training-data accumulation with batched netlink delivery
// (§3.2, §4.2 "LiteFlow Netlink Server Module").
//
// Input collectors append samples cheaply in kernel space; every T seconds
// the accumulated batch ships to userspace over the netlink channel in one
// message, so the cross-space cost is paid once per interval instead of
// once per packet.  The paper's micro-benchmark (Fig. 14) recommends
// T in [100ms, 1000ms]; 100ms is the default.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "kernelsim/channel.hpp"
#include "sim/sim.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace lf::core {

/// One slow-path training sample: the feature vector the snapshot saw plus
/// any auxiliary measurements the tuner needs (observed rates, labels, ...).
struct train_sample {
  std::vector<double> features;
  std::vector<double> aux;
  double collected_at = 0.0;
};

/// Kernel buffer cap: past this many pending samples the oldest drops.
inline constexpr std::size_t k_max_pending_samples = 4096;
/// Serialized size estimate of one sample on the netlink channel.
inline constexpr std::size_t k_bytes_per_sample = 64;

struct batch_collector_config {
  double interval = 0.100;        ///< T, the batch data delivery interval
};

class batch_collector {
 public:
  batch_collector(sim::simulation& sim, kernelsim::crossspace_channel& netlink,
                  batch_collector_config config);

  /// Kernel side: append a sample (cheap; no cross-space work).
  void collect(train_sample sample);

  /// Userspace side: consumer invoked when a batch lands in userspace.
  using consumer = std::function<void(std::vector<train_sample>)>;
  void set_consumer(consumer fn) { consumer_ = std::move(fn); }

  /// Begin periodic delivery (idempotent).
  void start();

  std::uint64_t batches_delivered() const noexcept { return batches_.value(); }
  std::uint64_t samples_delivered() const noexcept { return samples_.value(); }
  std::uint64_t samples_dropped() const noexcept { return dropped_.value(); }
  std::uint64_t bytes_delivered() const noexcept { return bytes_.value(); }
  std::size_t pending() const noexcept { return buffer_.size(); }

  /// Publish delivery counters under "<prefix>.batches", "<prefix>.samples",
  /// "<prefix>.bytes", "<prefix>.dropped".
  void register_metrics(metrics::registry& reg, const std::string& prefix);

  /// Attach the batch-event ring to a trace collector under "<prefix>".
  /// One batch_flush (samples, bytes) per non-empty delivery, so retained
  /// event counts match the batches counter while the ring is large enough.
  void register_trace(trace::collector& col, const std::string& prefix);

 private:
  void deliver();

  sim::simulation& sim_;
  kernelsim::crossspace_channel& netlink_;
  batch_collector_config config_;
  std::vector<train_sample> buffer_;
  consumer consumer_;
  bool running_ = false;
  metrics::counter batches_;
  metrics::counter samples_;
  metrics::counter dropped_;
  metrics::counter bytes_;
  trace::ring trace_{"collector"};
};

}  // namespace lf::core
