// Per-core cycle accounting over a simulation tick.
//
// Each tick, every core gets capacity = hz * dt cycles. Consumers (the TCP
// send path, IRQ handling, receive copies) draw down the budget; utilization
// is what mpstat reports. Budgets saturate: a consumer asking for more than
// the remainder gets only the remainder, which is exactly how a CPU-bound
// flow's achievable bytes are computed.
#pragma once

#include <vector>

#include "dtnsim/units/units.hpp"

namespace dtnsim::cpu {

class CoreBudget {
 public:
  void reset(units::Cycles capacity);

  double capacity() const { return capacity_.value(); }
  double used() const { return used_.value(); }
  double remaining() const {
    return capacity_ > used_ ? (capacity_ - used_).value() : 0.0;
  }
  // Fraction of capacity consumed, in [0, 1].
  double utilization() const {
    return capacity_.value() > 0 ? used_ / capacity_ : 0.0;
  }

  // Consume up to `cycles`; returns what was actually granted.
  double consume(units::Cycles cycles);
  // Consume assuming capacity was checked; clamps silently.
  void charge(units::Cycles cycles);

 private:
  units::Cycles capacity_{0.0};
  units::Cycles used_{0.0};
};

// A named group of cores drawing from a shared pool (e.g. the 8 IRQ cores).
class CorePool {
 public:
  CorePool() = default;
  CorePool(int cores, double hz) : cores_(cores), hz_(hz) {}

  void begin_tick(double dt_sec);

  int cores() const { return cores_; }
  double hz() const { return hz_; }
  double capacity() const { return budget_.capacity(); }
  double remaining() const { return budget_.remaining(); }
  double consume(units::Cycles cycles) { return budget_.consume(cycles); }
  // Average utilization across the pool's cores, [0, 1].
  double utilization() const { return budget_.utilization(); }

 private:
  int cores_ = 1;
  double hz_ = 3e9;
  CoreBudget budget_;
};

}  // namespace dtnsim::cpu
