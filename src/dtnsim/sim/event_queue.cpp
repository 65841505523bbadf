#include "dtnsim/sim/event_queue.hpp"

#include <algorithm>

namespace dtnsim::sim {

namespace {

// Heap order: `a` ranks below `b` when it fires later.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.ev.time != b.ev.time) return a.ev.time > b.ev.time;
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::push(Event ev) {
  heap_.push_back(Entry{std::move(ev), next_seq_++});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Event EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back().ev);
  heap_.pop_back();
  return ev;
}

EventQueue::Callback EventQueue::pop(Nanos* time_out) {
  if (heap_.empty()) return {};
  Event ev = pop();
  if (time_out) *time_out = ev.time;
  return std::move(ev.fn);
}

}  // namespace dtnsim::sim
