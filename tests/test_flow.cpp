// Unit tests: the transfer engine itself (determinism, conservation,
// backpressure, interval accounting) on small, fast configurations.
#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <cstdint>
#include <limits>

#include "dtnsim/flow/transfer.hpp"
#include "dtnsim/harness/testbeds.hpp"

namespace dtnsim::flow {
namespace {

TransferConfig lan_config() {
  const auto tb = harness::esnet();
  TransferConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.duration = units::SimTime::from_seconds(5);
  cfg.seed = 42;
  return cfg;
}

TEST(Transfer, DeterministicGivenSeed) {
  const auto cfg = lan_config();
  const auto a = run_transfer(cfg);
  const auto b = run_transfer(cfg);
  EXPECT_DOUBLE_EQ(a.throughput_bps, b.throughput_bps);
  EXPECT_DOUBLE_EQ(a.retransmit_segments, b.retransmit_segments);
  ASSERT_EQ(a.interval_bps.size(), b.interval_bps.size());
  for (std::size_t i = 0; i < a.interval_bps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.interval_bps[i], b.interval_bps[i]);
  }
}

TEST(Transfer, SeedChangesOutcome) {
  auto cfg = lan_config();
  const auto a = run_transfer(cfg);
  cfg.seed = 43;
  const auto b = run_transfer(cfg);
  EXPECT_NE(a.throughput_bps, b.throughput_bps);
}

TEST(Transfer, IntervalSeriesCoversDuration) {
  const auto res = run_transfer(lan_config());
  EXPECT_EQ(res.interval_bps.size(), 5u);  // one per second
  EXPECT_DOUBLE_EQ(res.duration_sec, 5.0);
}

TEST(Transfer, PerFlowSumsToTotal) {
  auto cfg = lan_config();
  cfg.streams = 8;
  cfg.flow.fq_rate_bps = units::gbps(10);
  const auto res = run_transfer(cfg);
  double sum = 0;
  for (double f : res.per_flow_bps) sum += f;
  EXPECT_NEAR(sum, res.throughput_bps, res.throughput_bps * 1e-9);
  EXPECT_EQ(res.per_flow_bps.size(), 8u);
}

TEST(Transfer, PacingCapsThroughput) {
  auto cfg = lan_config();
  cfg.flow.fq_rate_bps = units::gbps(10);
  const auto res = run_transfer(cfg);
  EXPECT_LE(units::to_gbps(res.throughput_bps), 10.1);
  EXPECT_GT(units::to_gbps(res.throughput_bps), 9.0);
}

TEST(Transfer, PacingNeedsFqQdisc) {
  // fq_codel cannot pace: --fq-rate silently has no effect.
  auto cfg = lan_config();
  cfg.flow.fq_rate_bps = units::gbps(10);
  cfg.sender.tuning.sysctl.default_qdisc = kern::QdiscKind::FqCodel;
  const auto res = run_transfer(cfg);
  EXPECT_GT(units::to_gbps(res.throughput_bps), 20.0);  // ran unpaced
}

TEST(Transfer, SkipRxCopyRemovesReceiverBottleneck) {
  // Intel LAN is clearly receiver-bound (55 vs a ~64 G sender ceiling), so
  // --skip-rx-copy exposes the sender's true capability.
  const auto tb = harness::amlight();
  auto cfg = lan_config();
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  const auto with_copy = run_transfer(cfg);
  cfg.flow.skip_rx_copy = true;
  const auto no_copy = run_transfer(cfg);
  EXPECT_GT(no_copy.throughput_bps, with_copy.throughput_bps * 1.05);
  EXPECT_LT(no_copy.receiver_cpu.cores_pct, with_copy.receiver_cpu.cores_pct);
}

TEST(Transfer, UntunedWindowCripplesWan) {
  auto cfg = lan_config();
  cfg.path = harness::esnet_wan();
  cfg.sender.tuning.sysctl = kern::SysctlConfig::linux_defaults();
  cfg.sender.tuning.sysctl.default_qdisc = kern::QdiscKind::Fq;
  cfg.receiver.tuning.sysctl = kern::SysctlConfig::linux_defaults();
  const auto res = run_transfer(cfg);
  // 4 MB wmem / 6 MB rmem at 63 ms: a fraction of a Gbps.
  EXPECT_LT(units::to_gbps(res.throughput_bps), 1.0);
}

TEST(Transfer, ZerocopyReducesSenderCpu) {
  auto cfg = lan_config();
  cfg.flow.fq_rate_bps = units::gbps(35);
  const auto copy = run_transfer(cfg);
  cfg.flow.zerocopy = true;
  const auto zc = run_transfer(cfg);
  EXPECT_LT(zc.sender_cpu.cores_pct, copy.sender_cpu.cores_pct * 0.6);
  EXPECT_GT(zc.zc_bytes, 0.0);
}

TEST(Transfer, FlowControlSuppressesNicDrops) {
  auto cfg = lan_config();
  cfg.streams = 4;
  cfg.link_flow_control = true;
  const auto res = run_transfer(cfg);
  EXPECT_DOUBLE_EQ(res.dropped_bytes_nic, 0.0);
}

TEST(Transfer, CpuUtilizationBounded) {
  const auto res = run_transfer(lan_config());
  EXPECT_GE(res.sender_cpu.app_util, 0.0);
  EXPECT_LE(res.sender_cpu.app_util, 1.0 + 1e-9);
  EXPECT_GE(res.receiver_cpu.app_util, 0.0);
  EXPECT_LE(res.receiver_cpu.app_util, 1.0 + 1e-9);
  EXPECT_GE(res.receiver_cpu.cores_pct, res.receiver_cpu.app_util * 100.0 - 1e-6);
}

TEST(Transfer, ReceiverBoundOnLan) {
  // Paper Fig. 7: "with default settings on the LAN, throughput is limited
  // by the receiver host CPU". Clearest on the Intel hosts, where the
  // sender has ~15% of headroom over the receiver.
  const auto tb = harness::amlight();
  auto cfg = lan_config();
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  const auto res = run_transfer(cfg);
  EXPECT_GT(res.receiver_cpu.app_util, 0.9);
  EXPECT_LT(res.sender_cpu.app_util, res.receiver_cpu.app_util);
}

TEST(Transfer, SenderBoundOnWanDefault) {
  // Paper Fig. 7: "sender host limited on the WAN". Ramp/recovery phases
  // dilute the average a bit in a short run.
  auto cfg = lan_config();
  cfg.path = harness::esnet_wan();
  cfg.duration = units::SimTime::from_seconds(15);
  const auto res = run_transfer(cfg);
  EXPECT_GT(res.sender_cpu.app_util, 0.75);
  EXPECT_LT(res.receiver_cpu.app_util, res.sender_cpu.app_util * 0.8);
}

TEST(Transfer, MoreStreamsMoreThroughputUntilSaturation) {
  auto cfg = lan_config();
  cfg.flow.fq_rate_bps = units::gbps(15);
  cfg.streams = 1;
  const auto one = run_transfer(cfg);
  cfg.streams = 4;
  const auto four = run_transfer(cfg);
  EXPECT_GT(four.throughput_bps, one.throughput_bps * 3.0);
}

// A departed flow's sent-bytes EWMA decays through the subnormals to
// denorm_min and stays there; the step must equal the plain formula bit for
// bit all the way down and stop doing subnormal arithmetic once it settles.
TEST(SentBytesEwma, MatchesFormulaBitForBit) {
  double prev = 3.0e6, ref = 3.0e6;
  for (int i = 0; i < 3000; ++i) {
    const double sent = i < 200 ? 1.0e6 + i : 0.0;  // sending, then departed
    prev = sent_bytes_ewma(prev, sent);
    ref = 0.7 * ref + 0.3 * sent;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(prev), std::bit_cast<std::uint64_t>(ref)) << i;
  }
  EXPECT_EQ(prev, std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(sent_bytes_ewma(prev, 5.0), 0.7 * prev + 0.3 * 5.0);  // rejoining
  EXPECT_EQ(sent_bytes_ewma(0.0, 0.0), 0.0);
}

TEST(SentBytesEwma, SettledStepDoesNoSubnormalArithmetic) {
  double prev = 1.0e6;
  for (int i = 0; i < 3000; ++i) prev = sent_bytes_ewma(prev, 0.0);
  std::feclearexcept(FE_ALL_EXCEPT);
  for (int i = 0; i < 1000; ++i) prev = sent_bytes_ewma(prev, 0.0);
  EXPECT_FALSE(std::fetestexcept(FE_UNDERFLOW));
}

TEST(Transfer, ZeroDurationSafe) {
  auto cfg = lan_config();
  cfg.duration = units::SimTime();
  const auto res = run_transfer(cfg);
  EXPECT_DOUBLE_EQ(res.throughput_bps, 0.0);
}

}  // namespace
}  // namespace dtnsim::flow
