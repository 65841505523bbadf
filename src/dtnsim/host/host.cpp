#include "dtnsim/host/host.hpp"

namespace dtnsim::host {

Host::Host(HostConfig cfg) : cfg_(std::move(cfg)), topo_(cfg_.cpu) {}

double Host::app_core_hz() const {
  double hz = cfg_.cpu.core_hz(cfg_.tuning.performance_governor);
  if (!cfg_.tuning.smt_off) hz *= 0.93;  // sibling thread steals front-end
  return hz;
}

kern::SkbCaps Host::skb_caps() const {
  return kern::skb_caps(cfg_.kernel, big_tcp_active(), units::Bytes(cfg_.tuning.big_tcp_bytes));
}

cpu::Placement Host::sample_placement(int streams, Rng& rng) const {
  if (cfg_.tuning.irqbalance_disabled) {
    return cpu::tuned_placement(topo_, streams, /*nic_numa=*/0);
  }
  return cpu::irqbalance_placement(topo_, streams, /*nic_numa=*/0, rng);
}

cpu::CostModel Host::make_cost_model(const cpu::PlacementQuality& quality) const {
  cpu::CostModelOptions opts;
  opts.stack_factor = stack_factor();
  opts.iommu_passthrough = cfg_.tuning.iommu_passthrough;
  opts.placement = quality;
  opts.virt_factor = cfg_.virt_factor;
  return cpu::CostModel(cfg_.cpu, opts);
}

double Host::dma_cap_bps() const { return make_cost_model({}).dma_throughput_cap_bps(); }

}  // namespace dtnsim::host
