#include "dtnsim/sim/engine.hpp"

#include <algorithm>
#include <limits>

#include "dtnsim/util/log.hpp"

namespace dtnsim::sim {

void Engine::schedule(Nanos delay, EventQueue::Callback fn) {
  schedule_at(now_ + std::max<Nanos>(delay, 0), std::move(fn));
}

void Engine::schedule_at(Nanos when, EventQueue::Callback fn) {
  queue_.push(std::max(when, now_), std::move(fn));
}

void Engine::every(Nanos period, Nanos until, EventQueue::Callback fn) {
  period = std::max<Nanos>(period, 1);
  if (until - now_ < period) return;
  queue_.push({now_ + period, std::move(fn), period, until});
}

void Engine::run() { drain(std::numeric_limits<Nanos>::max()); }

void Engine::run_until(Nanos until) {
  drain(until);
  now_ = std::max(now_, until);
}

void Engine::drain(Nanos until) {
  // Log lines emitted from event callbacks carry the simulated clock so
  // they line up with probe samples and trace timestamps.
  log::ScopedTimeSource clock([this] { return now_; });
  while (!queue_.empty() && queue_.next_time() <= until) {
    EventQueue::Event ev = queue_.pop();
    now_ = ev.time;
    ++executed_;
    ev.fn();
    if (ev.period > 0 && ev.until - ev.time >= ev.period) {
      ev.time += ev.period;
      queue_.push(std::move(ev));
    }
  }
}

}  // namespace dtnsim::sim
