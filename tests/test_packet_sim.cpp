// Packet-level simulation tests: microscopic validation of the fluid
// model's assumptions (pacing spacing, ring overruns, GRO geometry).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/harness/testbeds.hpp"
#include "dtnsim/obs/telemetry.hpp"

namespace dtnsim::flow {
namespace {

PacketSimConfig base_cfg() {
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  PacketSimConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.duration = units::SimTime::from_millis(20);
  return cfg;
}

TEST(PacketSim, PacedDeparturesEvenlySpaced) {
  auto cfg = base_cfg();
  cfg.pacing_bps = units::gbps(10);
  cfg.window_bytes = 64e6;
  const auto r = run_packet_sim(cfg);
  // 64 KiB super-packets at 10 Gbps: one every 52.4 us, essentially exact.
  const double expected_gap = 65536.0 * 8.0 / 10e9 * 1e9;
  EXPECT_NEAR(r.interdeparture_mean_ns, expected_gap, expected_gap * 0.02);
  EXPECT_LT(r.interdeparture_stddev_ns, expected_gap * 0.05);
}

TEST(PacketSim, UnpacedDeparturesAreTrains) {
  auto cfg = base_cfg();
  cfg.window_bytes = 4e6;
  const auto r = run_packet_sim(cfg);
  // Without pacing, spacing is set by sender CPU prep (about 30 us/skb
  // for the copy path), far below a 10G pacing gap, and bursty.
  EXPECT_LT(r.interdeparture_mean_ns, 40e3);
  EXPECT_GT(r.superpackets_sent, 100u);
}

TEST(PacketSim, AchievedRateMatchesPacing) {
  for (const double pace : {5.0, 10.0, 20.0}) {
    auto cfg = base_cfg();
    cfg.pacing_bps = units::gbps(pace);
    cfg.window_bytes = 256e6;
    const auto r = run_packet_sim(cfg);
    EXPECT_NEAR(units::to_gbps(r.achieved_bps), pace, pace * 0.12) << pace;
  }
}

TEST(PacketSim, WindowLimitsThroughputOnWan) {
  auto cfg = base_cfg();
  cfg.path = harness::amlight_wan(25);
  cfg.window_bytes = 4e6;                // 4 MB over 25 ms ~= 1.28 Gbps
  cfg.duration = units::SimTime::from_millis(500);     // >> RTT so edge effects wash out
  const auto r = run_packet_sim(cfg);
  EXPECT_NEAR(units::to_gbps(r.achieved_bps), 1.28, 0.2);
}

TEST(PacketSim, SlowDrainOverrunsRingOnlyWhenUnpaced) {
  // Make the receiver artificially slow per segment (2 us each ~= 36 Gbps
  // of 9000 B segments) and offer a 50G window.
  auto paced = base_cfg();
  paced.zerocopy = true;  // keep the sender's prep time off the critical path
  paced.rx_segment_ns_override = 2000;
  paced.window_bytes = 64e6;
  paced.pacing_bps = units::gbps(30);  // below drain
  paced.receiver.tuning.ring_descriptors = 256;
  const auto ok = run_packet_sim(paced);
  EXPECT_EQ(ok.segments_dropped, 0u);

  auto unpaced = paced;
  unpaced.pacing_bps = 0.0;  // line-rate trains into the slow drain
  const auto bad = run_packet_sim(unpaced);
  EXPECT_GT(bad.segments_dropped, 0u);
  EXPECT_GE(bad.ring_peak, 256);
}

TEST(PacketSim, BiggerRingAbsorbsTrains) {
  auto cfg = base_cfg();
  cfg.zerocopy = true;
  cfg.rx_segment_ns_override = 2000;
  cfg.window_bytes = 8e6;
  cfg.receiver.tuning.ring_descriptors = 128;
  const auto small = run_packet_sim(cfg);
  cfg.receiver.tuning.ring_descriptors = 8192;
  const auto big = run_packet_sim(cfg);
  EXPECT_LT(big.segments_dropped, small.segments_dropped);
}

TEST(PacketSim, GroBuildsExpectedAggregates) {
  auto cfg = base_cfg();
  cfg.pacing_bps = units::gbps(10);
  cfg.window_bytes = 64e6;
  const auto r = run_packet_sim(cfg);
  ASSERT_GT(r.aggregates, 0u);
  // Aggregates near the 64 KiB GRO ceiling (8 x 8960 B segments).
  EXPECT_GT(r.mean_aggregate_bytes, 60e3);
  EXPECT_LT(r.mean_aggregate_bytes, 75e3);
}

TEST(PacketSim, BigTcpGrowsAggregates) {
  auto cfg = base_cfg();
  cfg.pacing_bps = units::gbps(10);
  cfg.window_bytes = 64e6;
  for (auto* h : {&cfg.sender, &cfg.receiver}) {
    h->tuning.big_tcp_enabled = true;
    h->tuning.big_tcp_bytes = 150.0 * 1024;
  }
  const auto r = run_packet_sim(cfg);
  EXPECT_GT(r.mean_aggregate_bytes, 120e3);
}

TEST(PacketSim, ZerocopyShrinksTxPrepTime) {
  // Remove the receiver from the critical path (near-free segment
  // processing) so the sender's per-skb preparation is the limit.
  auto copy_cfg = base_cfg();
  copy_cfg.window_bytes = 256e6;
  copy_cfg.rx_segment_ns_override = 10;
  const auto copy = run_packet_sim(copy_cfg);
  auto zc_cfg = copy_cfg;
  zc_cfg.zerocopy = true;
  const auto zc = run_packet_sim(zc_cfg);
  // Cheaper per-skb prep -> more super-packets emitted in the same horizon.
  EXPECT_GT(zc.superpackets_sent, copy.superpackets_sent * 1.5);
}

TEST(PacketSim, ConservationSegments) {
  auto cfg = base_cfg();
  cfg.pacing_bps = units::gbps(10);
  cfg.window_bytes = 16e6;
  const auto r = run_packet_sim(cfg);
  // Everything sent is delivered, dropped, or still in flight at the cut-off
  // (at most one window's worth plus the pending GRO aggregate).
  const double sent_bytes = static_cast<double>(r.superpackets_sent) * 65536.0;
  const double dropped_bytes = static_cast<double>(r.segments_dropped) * 8960.0;
  EXPECT_LE(r.delivered_bytes + dropped_bytes, sent_bytes + 1.0);
  EXPECT_GE(r.delivered_bytes + dropped_bytes,
            sent_bytes - cfg.window_bytes - 70e3);
}

// ---- bit-identity golden ---------------------------------------------------
// Every PacketSimResult field (doubles as %a, so a last-bit change shows),
// the scenario event log, and under telemetry the probe series and the final
// ss/perf reports, for the selfperf pkt_lan classes at short horizons, an
// AmLight run under a fault timeline, and a telemetry-on run. Speed-ups to
// the engine must leave this file unchanged, so events_executed, which
// counts the engine's own work, is left out. A deliberate model change
// regenerates the file from packet_sim_results.actual.txt, which a
// mismatching run writes into the test's working directory.

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void print_result(std::ostringstream& out, const std::string& name,
                  const PacketSimResult& r) {
  out << "case " << name << "\n"
      << "  superpackets_sent " << r.superpackets_sent << "\n"
      << "  segments_sent " << r.segments_sent << "\n"
      << "  segments_dropped " << r.segments_dropped << "\n"
      << "  segments_lost_path " << r.segments_lost_path << "\n"
      << "  aggregates " << r.aggregates << "\n"
      << "  delivered_bytes " << hex(r.delivered_bytes) << "\n"
      << "  achieved_bps " << hex(r.achieved_bps) << "\n"
      << "  mean_aggregate_bytes " << hex(r.mean_aggregate_bytes) << "\n"
      << "  interdeparture_mean_ns " << hex(r.interdeparture_mean_ns) << "\n"
      << "  interdeparture_stddev_ns " << hex(r.interdeparture_stddev_ns) << "\n"
      << "  ring_peak " << r.ring_peak << "\n";
  const auto& lg = r.scenario_log;
  out << "  scenario_log engine=" << lg.engine << " timeline=" << lg.timeline
      << " events=" << lg.events.size() << "\n";
  for (const auto& e : lg.events) {
    out << "    " << scenario::kind_name(e.kind) << " fire=" << hex(e.fire_sec)
        << " end=" << hex(e.end_sec) << " value=" << hex(e.value)
        << " applied=" << e.applied << " note=" << e.note << "\n";
  }
}

// The pkt_lan classes of selfperf on the ESnet LAN: window_bound is the
// engine's defaults (8 MB window, unpaced), the others start from it.
PacketSimConfig window_bound(double horizon_ms) {
  const auto tb = harness::esnet();
  PacketSimConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.duration = units::SimTime::from_millis(horizon_ms);
  return cfg;
}

PacketSimConfig sender_bound(double horizon_ms) {
  auto cfg = window_bound(horizon_ms);
  cfg.receiver.tuning.ring_descriptors = 256;
  cfg.rx_segment_ns_override = 600.0;
  return cfg;
}

scenario::Event event(double at_ms, scenario::EventKind kind, double value,
                      double duration_ms, double jitter_ms = 0.0) {
  scenario::Event e;
  e.at_sec = at_ms * 1e-3;
  e.kind = kind;
  e.value = value;
  e.duration_sec = duration_ms * 1e-3;
  e.jitter_sec = jitter_ms * 1e-3;
  e.note = std::string(scenario::kind_name(kind));
  return e;
}

std::string packet_golden_text() {
  std::ostringstream out;
  print_result(out, "window_bound_50ms", run_packet_sim(window_bound(50)));
  {
    auto cfg = window_bound(50);
    cfg.pacing_bps = 40e9;
    print_result(out, "paced_50ms", run_packet_sim(cfg));
  }
  {
    auto cfg = window_bound(50);
    cfg.receiver.tuning.ring_descriptors = 256;
    cfg.rx_segment_ns_override = 2000.0;
    print_result(out, "ring_overrun_50ms", run_packet_sim(cfg));
  }
  for (const double h : {10.0, 20.0}) {
    print_result(out, "sender_bound_" + std::to_string(static_cast<int>(h)) + "ms",
                 run_packet_sim(sender_bound(h)));
  }
  {
    // AmLight LAN under a fault timeline: every kind the packet engine
    // applies (loss burst, link flap, ring resize under a degraded drain,
    // pacing retune, reorder, added RTT), plus two it logs as unsupported.
    using K = scenario::EventKind;
    auto cfg = base_cfg();
    cfg.pacing_bps = units::gbps(20);
    cfg.window_bytes = 64e6;
    cfg.seed = 7;
    cfg.scenario.name = "golden_faults";
    cfg.scenario.events = {
        event(2, K::LossBurst, 0.02, 3, 0.5),
        event(6, K::LinkDown, 0, 0),
        event(7, K::LinkUp, 0, 0),
        event(9, K::NicRingResize, 256, 4),
        event(9, K::IrqDrainDegrade, 0.1, 4),
        event(12, K::QdiscPacingRate, 0, 4, 0.25),
        event(14, K::BgSurge, 5e9, 2),
        event(15, K::SysctlOptmem, 20480, 0),
        event(16, K::ReorderBurst, 0.05, 2),
        event(17, K::LinkAddRtt, 1e-3, 2),
    };
    print_result(out, "amlight_scenario_20ms", run_packet_sim(cfg));
  }
  {
    obs::TelemetryConfig tcfg;
    tcfg.enabled = true;
    tcfg.probe_interval = units::SimTime::from_micros(100).nanos();
    tcfg.ss_enabled = true;
    tcfg.ss_interval = tcfg.probe_interval;
    tcfg.perf_enabled = true;
    tcfg.perf_interval = tcfg.probe_interval;
    obs::Telemetry tel(tcfg);
    auto cfg = base_cfg();
    cfg.pacing_bps = units::gbps(20);
    cfg.window_bytes = 2e6;
    cfg.duration = units::SimTime::from_millis(2);
    cfg.telemetry = &tel;
    print_result(out, "amlight_telemetry_2ms", run_packet_sim(cfg));
    const auto& series = tel.series();
    out << "  probe";
    for (const auto& c : series.columns) out << " " << c;
    out << "\n";
    for (const auto& row : series.rows) {
      out << "   ";
      for (const double v : row) out << " " << hex(v);
      out << "\n";
    }
    out << "  ss_samples " << tel.ss().log().size() << " last "
        << obs::to_json(tel.ss().log().back()).dump() << "\n";
    out << "  perf_samples " << tel.perf().log().size() << " last "
        << obs::to_json(tel.perf().log().back()).dump() << "\n";
  }
  return out.str();
}

TEST(PacketSimGolden, OutputsMatchCheckedInGolden) {
  const std::string golden_path =
      std::string(DTNSIM_SOURCE_DIR) + "/tests/golden/packet_sim_results.txt";
  std::ifstream in(golden_path);
  std::stringstream golden;
  golden << in.rdbuf();
  const std::string actual = packet_golden_text();
  if (actual != golden.str()) {
    std::ofstream("packet_sim_results.actual.txt") << actual;
  }
  ASSERT_TRUE(in.is_open()) << golden_path;
  EXPECT_TRUE(actual == golden.str())
      << "packet engine output drifted from " << golden_path
      << "; the run's output is in packet_sim_results.actual.txt";
}

// ---- engine work ------------------------------------------------------------
// The sender keeps one pending wakeup, so a run's events grow linearly with
// its horizon and stay a few per super-packet: GSO send, wire arrival, NAPI
// poll and completion, ACK.

double events_per_superpacket(const PacketSimResult& r) {
  return static_cast<double>(r.events_executed) /
         static_cast<double>(r.superpackets_sent);
}

TEST(PacketSimWork, SenderBoundEventsStayLinearInHorizon) {
  for (const double h : {10.0, 20.0, 40.0}) {
    const auto r = run_packet_sim(sender_bound(h));
    ASSERT_GT(r.superpackets_sent, 0u) << h;
    EXPECT_LE(events_per_superpacket(r), 6.0) << h << " ms: " << r.events_executed;
  }
}

TEST(PacketSimWork, WindowBoundEventsPerSuperpacket) {
  const auto r = run_packet_sim(window_bound(50));
  ASSERT_GT(r.superpackets_sent, 0u);
  EXPECT_LE(events_per_superpacket(r), 4.0) << r.events_executed;
}

}  // namespace
}  // namespace dtnsim::flow
