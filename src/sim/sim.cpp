#include "sim/sim.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

namespace lf::sim {
namespace {

/// One run of a periodic callback, which schedules the next run after the
/// callback returns.  The pending run is the callback's only owner.
struct periodic_run {
  simulation* sim;
  sim_time period;
  std::shared_ptr<std::function<void()>> fn;

  void operator()() const {
    (*fn)();
    sim->schedule(period, *this);
  }
};

}  // namespace

void simulation::schedule_at(sim_time t, std::function<void()> fn) {
  if (t < now_) throw std::invalid_argument{"schedule_at: time in the past"};
  queue_.push_back(event{t, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), later{});
}

void simulation::schedule(sim_time delay, std::function<void()> fn) {
  if (delay < 0.0) throw std::invalid_argument{"schedule: negative delay"};
  schedule_at(now_ + delay, std::move(fn));
}

void simulation::schedule_every(sim_time first_delay, sim_time period,
                                std::function<void()> fn) {
  if (period <= 0.0) throw std::invalid_argument{"schedule_every: period"};
  schedule(first_delay,
           periodic_run{this, period, std::make_shared<std::function<void()>>(
                                          std::move(fn))});
}

void simulation::run_due(sim_time t_end) {
  while (!queue_.empty() && queue_.front().t <= t_end) {
    // Move the event out before running it: the handler may schedule.
    std::pop_heap(queue_.begin(), queue_.end(), later{});
    event e = std::move(queue_.back());
    queue_.pop_back();
    now_ = e.t;
    ++executed_;
    e.fn();
  }
}

void simulation::run_until(sim_time t_end) {
  run_due(t_end);
  if (now_ < t_end) now_ = t_end;
}

void simulation::run() { run_due(std::numeric_limits<sim_time>::infinity()); }

}  // namespace lf::sim
