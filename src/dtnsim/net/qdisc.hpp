// Queueing disciplines: fq (with per-flow pacing) and fq_codel.
//
// The paper's tuning replaces Ubuntu's default fq_codel with fq because fq
// implements per-flow pacing (`iperf3 --fq-rate`, SO_MAX_PACING_RATE). In the
// fluid engine the qdisc's job per tick is (a) cap a flow's bytes at its
// pacing rate and (b) mark the traffic "smooth" so the receiver NIC sees
// paced arrivals instead of line-rate trains. The packet-level API below is
// exact (departure timestamps) and is what the unit tests and micro-benches
// exercise.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dtnsim/units/units.hpp"

namespace dtnsim::net {

// Packet-level fq: per-flow token timing, earliest-departure-first.
class FqQdisc {
 public:
  explicit FqQdisc(double line_rate_bps) : line_rate_bps_(line_rate_bps) {}

  // `tc -s qdisc show dev ... fq`-style statistics. `throttled` counts
  // enqueues that pacing (not link serialization) pushed into the future —
  // fq's "throttled" flows stat; pacing_delay accumulates how far.
  struct Counters {
    double sent_bytes = 0.0;
    std::uint64_t throttled = 0;
    Nanos pacing_delay = 0;
  };

  // 0 disables pacing for the flow (line-rate bursts).
  void set_flow_rate(int flow, double rate_bps);
  double flow_rate(int flow) const;

  // Enqueue `bytes` for `flow` at time `now`; returns the departure time fq
  // schedules (never before now, spaced by the flow's pacing rate, and never
  // faster than the link).
  Nanos enqueue(int flow, double bytes, Nanos now);

  // Fluid helper: bytes the flow may emit during [now, now+dt) at its rate.
  double allowance_bytes(int flow, double dt_sec) const;

  std::uint64_t packets_scheduled() const { return packets_; }
  const Counters& counters() const { return counters_; }

 private:
  struct FlowState {
    double rate_bps = 0.0;
    Nanos next_departure = 0;
  };

  double line_rate_bps_;
  Nanos link_free_at_ = 0;
  std::unordered_map<int, FlowState> flows_;
  std::uint64_t packets_ = 0;
  Counters counters_;
};

// fq_codel: FIFO per flow with CoDel-style sojourn dropping. No pacing —
// this is the untuned baseline. Simplified: drops arrivals once queued
// sojourn exceeds the interval while above target.
class FqCodelQdisc {
 public:
  FqCodelQdisc(double line_rate_bps, Nanos target = units::millis(5),
               Nanos interval = units::millis(100));

  struct Verdict {
    bool dropped = false;
    Nanos departure = 0;
  };
  Verdict enqueue(double bytes, Nanos now);

  std::uint64_t drops() const { return drops_; }
  // `tc -s` counterpart of the fq stats block (no pacing here, so only
  // sent/dropped are meaningful).
  double sent_bytes() const { return sent_bytes_; }
  double dropped_bytes() const { return dropped_bytes_; }

 private:
  double line_rate_bps_;
  Nanos target_;
  Nanos interval_;
  Nanos backlog_clears_at_ = 0;
  Nanos above_target_since_ = -1;
  std::uint64_t drops_ = 0;
  double sent_bytes_ = 0.0;
  double dropped_bytes_ = 0.0;
};

}  // namespace dtnsim::net
