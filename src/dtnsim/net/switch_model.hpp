// Shared-buffer switch model.
//
// Both testbeds run shallow-ish shared-buffer switches without 802.3x flow
// control (NoviFlow WB-5132D-E at AmLight; Edgecore AS9716-32D with 64 MB
// shared buffer at ESnet). For parallel streams the switch is where flows
// collide: when the aggregate offered load exceeds the egress for longer
// than the shared buffer absorbs, the tail of the burst is cut.
#pragma once

#include <string>

#include "dtnsim/units/units.hpp"

namespace dtnsim::net {

struct SwitchSpec {
  std::string model = "generic";
  double egress_bps = 100e9;
  double shared_buffer_bytes = 32.0 * 1024 * 1024;
};

SwitchSpec noviflow_wb5132();   // AmLight (Wedge 100BF-32X based)
SwitchSpec edgecore_as9716();   // ESnet (64 MB shared buffer, 200G ports)

class SwitchModel {
 public:
  explicit SwitchModel(const SwitchSpec& spec) : spec_(spec) {}

  struct Outcome {
    double accepted_bytes = 0.0;
    double dropped_bytes = 0.0;
    double buffer_peak_bytes = 0.0;
  };

  // One tick of aggregate offered load. `burst_fraction` is how much of the
  // offered bytes arrive in synchronized bursts (unpaced flows collide;
  // paced flows interleave smoothly).
  Outcome offer(units::Bytes offered, double dt_sec, double burst_fraction) const;

  // Aggregate rate above which synchronized (unpaced) arrivals overflow the
  // shared buffer within one RTT.
  double burst_tolerance_bps(double rtt_sec, double burst_fraction) const;

  const SwitchSpec& spec() const { return spec_; }

 private:
  SwitchSpec spec_;
};

}  // namespace dtnsim::net
