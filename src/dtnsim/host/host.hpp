// A Data Transfer Node: CPU + kernel + NIC + tuning.
//
// Host is an immutable description; per-run mutable state (core budgets,
// sockets, sampled placements) lives in the flow engine. Host answers the
// questions the engine asks: effective SKB caps, the cost model for a given
// placement, per-core clocks, and memory-bandwidth budgets.
#pragma once

#include <string>

#include "dtnsim/cpu/affinity.hpp"
#include "dtnsim/cpu/cost_model.hpp"
#include "dtnsim/cpu/spec.hpp"
#include "dtnsim/cpu/topology.hpp"
#include "dtnsim/host/tuning.hpp"
#include "dtnsim/kern/skb.hpp"
#include "dtnsim/kern/version.hpp"
#include "dtnsim/net/nic.hpp"
#include "dtnsim/util/rng.hpp"

namespace dtnsim::host {

struct HostConfig {
  std::string name = "dtn";
  cpu::CpuSpec cpu = cpu::intel_xeon_6346();
  kern::KernelProfile kernel = kern::kernel_profile(kern::KernelVersion::V6_8);
  net::NicSpec nic = net::connectx5_100g();
  TuningConfig tuning = TuningConfig::dtn_tuned();
  // > 1.0 inside a VM; use vm::virtualization_factor() to derive it.
  double virt_factor = 1.0;
};

class Host {
 public:
  explicit Host(HostConfig cfg);

  const HostConfig& config() const { return cfg_; }
  const std::string& name() const { return cfg_.name; }
  const cpu::Topology& topology() const { return topo_; }

  // Kernel-version efficiency factor for this host's CPU vendor.
  double stack_factor() const { return cfg_.kernel.stack_factor(cfg_.cpu.vendor); }

  // Effective per-core clock under the configured governor. SMT left on
  // costs ~7% effective single-thread throughput (shared front-end).
  double app_core_hz() const;
  int irq_core_count() const { return 8; }

  // SKB caps with this host's kernel + BIG TCP tuning applied.
  kern::SkbCaps skb_caps() const;

  // Whether requested features are actually active given kernel support.
  bool zerocopy_available() const { return cfg_.kernel.supports_msg_zerocopy; }
  bool big_tcp_active() const {
    return cfg_.tuning.big_tcp_enabled && cfg_.kernel.supports_big_tcp_ipv4;
  }
  bool hw_gro_active() const {
    return cfg_.tuning.hw_gro_enabled && cfg_.kernel.supports_hw_gro &&
           cfg_.nic.hw_gro_capable;
  }

  // Sample a placement for this run: deterministic tuned placement when
  // irqbalance is disabled, randomized otherwise.
  cpu::Placement sample_placement(int streams, Rng& rng) const;

  // Cost model for a given placement quality.
  cpu::CostModel make_cost_model(const cpu::PlacementQuality& quality) const;

  // Memory bandwidth the network stack may consume (bytes/s).
  double stack_mem_bw_bytes() const { return cfg_.cpu.stack_mem_bw_bytes; }

  // Host-wide DMA cap (iommu): bits/s. It depends on neither placement nor
  // virtualization, so any of this host's cost models reports the same cap;
  // the flow engine reads it from the models it already holds.
  double dma_cap_bps() const;

 private:
  HostConfig cfg_;
  cpu::Topology topo_;
};

}  // namespace dtnsim::host
