// Event queue for the discrete-event engine.
//
// Events fire in (time, sequence) order: equal-time events run in the order
// they were pushed, which keeps runs deterministic regardless of heap
// internals. Entries are moved in and out, never copied.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dtnsim/units/units.hpp"

namespace dtnsim::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  struct Event {
    Nanos time = 0;
    Callback fn;
    // Carried for Engine::every, which re-queues the event at time + period
    // while that is <= until. The queue itself never reads them.
    Nanos period = 0;
    Nanos until = 0;
  };

  void push(Event ev);
  void push(Nanos time, Callback fn) { push(Event{time, std::move(fn)}); }

  bool empty() const { return heap_.empty(); }

  // Time of the earliest event, or -1 if the queue is empty.
  Nanos next_time() const { return heap_.empty() ? -1 : heap_.front().ev.time; }

  // Remove and return the earliest event. The queue must not be empty.
  Event pop();
  // Pop the earliest event's callback. Returns an empty function if the
  // queue is exhausted.
  Callback pop(Nanos* time_out);

 private:
  struct Entry {
    Event ev;
    std::uint64_t seq;
  };

  std::vector<Entry> heap_;  // binary heap, earliest (time, seq) at front
  std::uint64_t next_seq_ = 0;
};

}  // namespace dtnsim::sim
