// Discrete-event simulation core shared by the network simulator and the
// kernel CPU model.  Single-threaded, deterministic: events at equal times
// fire in scheduling order (FIFO tie-break via a sequence number).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace lf::sim {

using sim_time = double;  ///< seconds

class simulation {
 public:
  sim_time now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `t` (>= now).
  void schedule_at(sim_time t, std::function<void()> fn);

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  void schedule(sim_time delay, std::function<void()> fn);

  /// Run `fn` `first_delay` seconds from now, then every `period` seconds.
  /// The pending run owns `fn`, and each run schedules the next after `fn`
  /// returns, so what `fn` schedules for that instant runs first.
  void schedule_every(sim_time first_delay, sim_time period,
                      std::function<void()> fn);

  /// Run events until the queue drains or the clock would pass `t_end`;
  /// the clock is left at min(t_end, last event time).
  void run_until(sim_time t_end);

  /// Run until the queue is empty.
  void run();

  std::size_t pending_events() const noexcept { return queue_.size(); }
  std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  struct event {
    sim_time t;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct later {
    bool operator()(const event& a, const event& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void run_due(sim_time t_end);  ///< run events with t <= t_end

  sim_time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<event> queue_;  ///< heap: earliest (t, seq) in front
};

}  // namespace lf::sim
