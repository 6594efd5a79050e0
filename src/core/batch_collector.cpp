#include "core/batch_collector.hpp"

#include <stdexcept>

namespace lf::core {

batch_collector::batch_collector(sim::simulation& sim,
                                 kernelsim::crossspace_channel& netlink,
                                 batch_collector_config config)
    : sim_{sim}, netlink_{netlink}, config_{config} {
  // !(x > 0) instead of (x <= 0): also rejects NaN, which would otherwise
  // slip through and schedule deliveries at a NaN interval forever.
  if (!(config_.interval > 0.0)) {
    throw std::invalid_argument{
        "batch_collector: interval T must be a positive number of seconds"};
  }
}

void batch_collector::collect(train_sample sample) {
  if (buffer_.size() >= k_max_pending_samples) {
    // Kernel buffer full: drop the oldest (ring semantics).
    buffer_.erase(buffer_.begin());
    dropped_.inc();
  }
  sample.collected_at = sim_.now();
  buffer_.push_back(std::move(sample));
}

void batch_collector::start() {
  if (running_) return;
  running_ = true;
  sim_.schedule(config_.interval, [this] { deliver(); });
}

void batch_collector::deliver() {
  if (!buffer_.empty()) {
    auto batch = std::move(buffer_);
    buffer_.clear();
    const std::size_t bytes = batch.size() * k_bytes_per_sample;
    batches_.inc();
    samples_.inc(batch.size());
    bytes_.inc(bytes);
    trace_.emit(sim_.now(), trace::event_type::batch_flush, batch.size(),
                bytes);
    netlink_.send_to_user(
        bytes, [this, batch = std::move(batch)]() mutable {
          if (consumer_) consumer_(std::move(batch));
        });
  }
  sim_.schedule(config_.interval, [this] { deliver(); });
}

void batch_collector::register_metrics(metrics::registry& reg,
                                       const std::string& prefix) {
  reg.register_counter(prefix + ".batches", batches_);
  reg.register_counter(prefix + ".samples", samples_);
  reg.register_counter(prefix + ".bytes", bytes_);
  reg.register_counter(prefix + ".dropped", dropped_);
}

void batch_collector::register_trace(trace::collector& col,
                                     const std::string& prefix) {
  col.attach(trace_, prefix);
}

}  // namespace lf::core
