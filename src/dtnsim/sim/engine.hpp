// Discrete-event simulation engine.
//
// A single-threaded virtual-time executor: callbacks scheduled at absolute or
// relative nanosecond times run in deterministic order. All dtnsim models
// (TCP rounds, qdisc pacing, NIC drains, mpstat sampling) are driven from one
// Engine per simulation run.
#pragma once

#include <cstddef>

#include "dtnsim/sim/event_queue.hpp"
#include "dtnsim/units/units.hpp"

namespace dtnsim::sim {

class Engine {
 public:
  Nanos now() const { return now_; }
  std::size_t events_executed() const { return executed_; }

  // Schedule `fn` to run `delay` from now (clamped to >= 0).
  void schedule(Nanos delay, EventQueue::Callback fn);
  // Schedule `fn` at absolute time `when` (clamped to >= now()).
  void schedule_at(Nanos when, EventQueue::Callback fn);

  // Periodic source: run `fn` at now()+period, now()+2*period, ... and stop
  // after the last firing <= until (period clamped to >= 1). Nothing fires
  // if period > until - now(). The engine moves the callback back into the
  // queue after each firing returns; this is the only periodic re-queue in
  // dtnsim (fluid round, FlowProbe, SsWatch, PerfWatch).
  //
  // Coincident order: a firing at t was queued when the firing at t - period
  // returned (or at arm time), so at equal time the source with the longer
  // period fires first, and equal periods fire in arm order. Both engines
  // arm round (fluid only), ss, perf, probe in that order. With the 200 us
  // LAN round and a 1 s probe, the probe sample at t therefore precedes the
  // round at t and reflects the round before it.
  void every(Nanos period, Nanos until, EventQueue::Callback fn);

  // Run until the queue is empty.
  void run();
  // Run events with time <= until; leaves now() == until even if the queue
  // drained earlier (so follow-up scheduling is relative to the horizon).
  void run_until(Nanos until);

 private:
  void drain(Nanos until);

  EventQueue queue_;
  Nanos now_ = 0;
  std::size_t executed_ = 0;
};

}  // namespace dtnsim::sim
