// Unit tests: host composition, tuning, VM overhead model.
#include <gtest/gtest.h>

#include <cmath>

#include "dtnsim/host/host.hpp"
#include "dtnsim/host/vm.hpp"

namespace dtnsim::host {
namespace {

TEST(Tuning, DtnTunedDefaults) {
  const auto t = TuningConfig::dtn_tuned();
  EXPECT_TRUE(t.irqbalance_disabled);
  EXPECT_TRUE(t.performance_governor);
  EXPECT_TRUE(t.smt_off);
  EXPECT_TRUE(t.iommu_passthrough);
  EXPECT_DOUBLE_EQ(t.mtu_bytes, 9000.0);
  EXPECT_EQ(t.sysctl.default_qdisc, kern::QdiscKind::Fq);
}

TEST(Tuning, StockIsUntuned) {
  const auto t = TuningConfig::stock();
  EXPECT_FALSE(t.irqbalance_disabled);
  EXPECT_FALSE(t.iommu_passthrough);
  EXPECT_DOUBLE_EQ(t.mtu_bytes, 1500.0);
  EXPECT_EQ(t.sysctl.default_qdisc, kern::QdiscKind::FqCodel);
}

TEST(Host, GovernorAffectsClock) {
  HostConfig cfg;
  Host tuned(cfg);
  cfg.tuning.performance_governor = false;
  Host untuned(cfg);
  EXPECT_GT(tuned.app_core_hz(), untuned.app_core_hz());
}

TEST(Host, SmtOnCostsFrontend) {
  HostConfig cfg;
  Host off(cfg);
  cfg.tuning.smt_off = false;
  Host on(cfg);
  EXPECT_LT(on.app_core_hz(), off.app_core_hz());
}

TEST(Host, BigTcpNeedsKernelSupport) {
  HostConfig cfg;
  cfg.tuning.big_tcp_enabled = true;
  cfg.kernel = kern::kernel_profile(kern::KernelVersion::V5_15);
  EXPECT_FALSE(Host(cfg).big_tcp_active());
  cfg.kernel = kern::kernel_profile(kern::KernelVersion::V6_8);
  EXPECT_TRUE(Host(cfg).big_tcp_active());
}

TEST(Host, HwGroNeedsKernelAndNic) {
  HostConfig cfg;
  cfg.tuning.hw_gro_enabled = true;
  cfg.nic = net::connectx7_200g();
  cfg.kernel = kern::kernel_profile(kern::KernelVersion::V6_8);
  EXPECT_FALSE(Host(cfg).hw_gro_active());  // needs 6.11
  cfg.kernel = kern::kernel_profile(kern::KernelVersion::V6_11);
  EXPECT_TRUE(Host(cfg).hw_gro_active());
  cfg.nic = net::connectx5_100g();  // CX-5 cannot
  EXPECT_FALSE(Host(cfg).hw_gro_active());
}

TEST(Host, PlacementDeterministicWhenTuned) {
  HostConfig cfg;
  Host h(cfg);
  Rng r1(1), r2(2);
  const auto p1 = h.sample_placement(1, r1);
  const auto p2 = h.sample_placement(1, r2);
  EXPECT_EQ(p1.irq_cores, p2.irq_cores);
  EXPECT_EQ(p1.app_cores, p2.app_cores);
}

TEST(Host, PlacementRandomWithIrqbalance) {
  HostConfig cfg;
  cfg.tuning.irqbalance_disabled = false;
  Host h(cfg);
  Rng rng(7);
  const auto p1 = h.sample_placement(1, rng);
  const auto p2 = h.sample_placement(1, rng);
  EXPECT_TRUE(p1.app_cores != p2.app_cores || p1.irq_cores != p2.irq_cores);
}

TEST(Host, StackFactorFollowsVendor) {
  HostConfig cfg;
  cfg.cpu = cpu::amd_epyc_73f3();
  cfg.kernel = kern::kernel_profile(kern::KernelVersion::V5_15);
  EXPECT_NEAR(Host(cfg).stack_factor(), 1.31, 1e-9);
  cfg.cpu = cpu::intel_xeon_6346();
  EXPECT_NEAR(Host(cfg).stack_factor(), 1.27, 1e-9);
}

TEST(Host, DmaCapInfiniteWithPassthrough) {
  HostConfig cfg;
  EXPECT_TRUE(std::isinf(Host(cfg).make_cost_model({}).dma_throughput_cap_bps()));
  cfg.tuning.iommu_passthrough = false;
  EXPECT_LT(Host(cfg).make_cost_model({}).dma_throughput_cap_bps(), 100e9);
}

TEST(Vm, TunedVmNearlyFree) {
  VmConfig vm;  // passthrough + pinned + iommu=pt
  EXPECT_NEAR(virtualization_factor(vm), 1.03, 1e-9);
}

TEST(Vm, UntunedVmExpensive) {
  VmConfig vm;
  vm.pci_passthrough = false;
  vm.vcpu_pinned = false;
  vm.host_iommu_pt = false;
  EXPECT_GT(virtualization_factor(vm), 2.0);
}

TEST(Vm, EachTuningMatters) {
  VmConfig base;
  const double tuned = virtualization_factor(base);
  VmConfig no_pt = base;
  no_pt.pci_passthrough = false;
  VmConfig no_pin = base;
  no_pin.vcpu_pinned = false;
  EXPECT_GT(virtualization_factor(no_pt), tuned);
  EXPECT_GT(virtualization_factor(no_pin), tuned);
}

}  // namespace
}  // namespace dtnsim::host
