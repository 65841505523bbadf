// Unit tests: test harness (repeat aggregation, testbeds, determinism).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "dtnsim/harness/runner.hpp"

namespace dtnsim::harness {
namespace {

TEST(Testbeds, AmLightShape) {
  const auto tb = amlight();
  EXPECT_EQ(tb.paths.size(), 4u);  // LAN + 25/54/104 ms
  EXPECT_EQ(tb.lan().name, "LAN");
  EXPECT_FALSE(tb.link_flow_control);
  EXPECT_EQ(tb.sender.cpu.vendor, cpu::Vendor::Intel);
  EXPECT_GT(tb.sender.virt_factor, 1.0);  // runs in the tuned VM
  EXPECT_NEAR(units::to_millis(tb.path_named("WAN 104ms").rtt), 104.0, 1e-9);
  EXPECT_DOUBLE_EQ(tb.path_named("WAN 25ms").capacity_bps, 80e9);
}

TEST(Testbeds, BaremetalHasNoVirtFactor) {
  const auto tb = amlight_baremetal();
  EXPECT_DOUBLE_EQ(tb.sender.virt_factor, 1.0);
  EXPECT_EQ(tb.sender.kernel.version, kern::KernelVersion::V5_10);
}

TEST(Testbeds, EsnetShape) {
  const auto tb = esnet();
  EXPECT_EQ(tb.sender.cpu.vendor, cpu::Vendor::Amd);
  EXPECT_DOUBLE_EQ(tb.sender.nic.line_rate_bps, 200e9);
  EXPECT_EQ(tb.sender.tuning.ring_descriptors, 8192);  // the AMD ring tuning
  EXPECT_FALSE(tb.link_flow_control);
}

TEST(Testbeds, ProductionHasFlowControl) {
  const auto tb = esnet_production();
  EXPECT_TRUE(tb.link_flow_control);
  EXPECT_TRUE(tb.paths[0].deep_buffers);
  EXPECT_DOUBLE_EQ(tb.sender.nic.line_rate_bps, 100e9);
}

TEST(Testbeds, UnknownPathThrows) {
  EXPECT_THROW(amlight().path_named("WAN 99ms"), std::out_of_range);
  EXPECT_THROW(amlight_wan(99), std::invalid_argument);
}

TEST(Runner, AggregatesRepeats) {
  auto spec = TestSpec::on(esnet(), "LAN", app::IperfOptions{});
  spec.repeats = 5;
  spec.iperf.duration_sec = 5;
  const auto r = run_test(spec);
  EXPECT_EQ(r.repeats, 5);
  EXPECT_EQ(r.samples_gbps.size(), 5u);
  EXPECT_GE(r.max_gbps, r.avg_gbps);
  EXPECT_LE(r.min_gbps, r.avg_gbps);
  EXPECT_GT(r.stdev_gbps, 0.0);  // per-run efficiency noise
}

TEST(Runner, DeterministicAcrossInvocations) {
  auto spec = TestSpec::on(esnet(), "LAN", app::IperfOptions{});
  spec.repeats = 3;
  spec.iperf.duration_sec = 3;
  const auto a = run_test(spec);
  const auto b = run_test(spec);
  EXPECT_DOUBLE_EQ(a.avg_gbps, b.avg_gbps);
  EXPECT_DOUBLE_EQ(a.stdev_gbps, b.stdev_gbps);
}

TEST(Runner, SeedChangesSamples) {
  auto spec = TestSpec::on(esnet(), "LAN", app::IperfOptions{});
  spec.repeats = 3;
  spec.iperf.duration_sec = 3;
  const auto a = run_test(spec);
  spec.base_seed = 999;
  const auto b = run_test(spec);
  EXPECT_NE(a.samples_gbps[0], b.samples_gbps[0]);
}

TEST(Runner, LabelAndDefaults) {
  const auto spec = TestSpec::on(esnet(), "WAN 63ms", app::IperfOptions{}, "custom");
  EXPECT_EQ(spec.name, "custom");
  const auto unnamed = TestSpec::on(esnet(), "WAN 63ms", app::IperfOptions{});
  EXPECT_NE(unnamed.name.find("WAN 63ms"), std::string::npos);
}

TEST(Runner, BatchRunsAll) {
  app::IperfOptions quick;
  quick.duration_sec = 2;
  std::vector<TestSpec> specs = {TestSpec::on(esnet(), "LAN", quick),
                                 TestSpec::on(esnet(), "WAN 63ms", quick)};
  for (auto& s : specs) s.repeats = 2;
  const auto results = run_tests(specs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].avg_gbps, results[1].avg_gbps);  // LAN beats WAN default
}

TEST(Runner, FlowRangeTracked) {
  auto spec = TestSpec::on(esnet_production(), "production 63ms", app::IperfOptions{});
  spec.iperf.parallel = 8;
  spec.iperf.duration_sec = 10;
  spec.repeats = 3;
  const auto r = run_test(spec);
  EXPECT_GT(r.flow_min_gbps, 0.0);
  EXPECT_GT(r.flow_max_gbps, r.flow_min_gbps);
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// run_test spreads a spec's repeats over the usable CPUs; on a pool worker
// (run_tests with 2 jobs) it runs them inline, one after another. Both must
// give the same result to the bit. With a single usable CPU both paths are
// inline and the test compares the serial loop with itself.
TEST(Runner, ConcurrentRepeatsMatchSerial) {
  app::IperfOptions opts;
  opts.parallel = 2;
  opts.duration_sec = 6;
  auto spec = TestSpec::on(esnet(), "WAN 63ms", opts, "concurrent-vs-serial");
  spec.repeats = 4;
  spec.record = true;
  spec.scenario.name = "loss";
  scenario::Event loss;
  loss.at_sec = 2.0;
  loss.kind = scenario::EventKind::LossBurst;
  loss.value = 0.05;
  loss.duration_sec = 1.0;
  spec.scenario.events.push_back(loss);

  const std::vector<TestResult> batch = run_tests({spec}, 2);
  ASSERT_EQ(batch.size(), 1u);
  const TestResult& b = batch[0];

  // The repeats finish in an order that changes from run to run; running
  // the concurrent side many times gives a fold that followed completion
  // order many chances to show.
  for (int run = 0; run < 20; ++run) {
    SCOPED_TRACE("concurrent run " + std::to_string(run));
    const TestResult a = run_test(spec);

    EXPECT_EQ(a.repeats, b.repeats);
    for (const auto& [name, x, y] : {
             std::tuple{"avg_gbps", a.avg_gbps, b.avg_gbps},
             std::tuple{"min_gbps", a.min_gbps, b.min_gbps},
             std::tuple{"max_gbps", a.max_gbps, b.max_gbps},
             std::tuple{"stdev_gbps", a.stdev_gbps, b.stdev_gbps},
             std::tuple{"avg_retransmits", a.avg_retransmits, b.avg_retransmits},
             std::tuple{"flow_min_gbps", a.flow_min_gbps, b.flow_min_gbps},
             std::tuple{"flow_max_gbps", a.flow_max_gbps, b.flow_max_gbps},
             std::tuple{"snd_cpu_pct", a.snd_cpu_pct, b.snd_cpu_pct},
             std::tuple{"rcv_cpu_pct", a.rcv_cpu_pct, b.rcv_cpu_pct},
             std::tuple{"zc_fallback_ratio", a.zc_fallback_ratio, b.zc_fallback_ratio},
         }) {
      EXPECT_EQ(bits(x), bits(y)) << name;
    }
    EXPECT_EQ(bits(a.samples_gbps), bits(b.samples_gbps));

    ASSERT_EQ(a.repeat_series.size(), 4u);
    ASSERT_EQ(b.repeat_series.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(a.repeat_series[r].columns, b.repeat_series[r].columns) << "repeat " << r;
      ASSERT_EQ(a.repeat_series[r].rows.size(), b.repeat_series[r].rows.size()) << "repeat " << r;
      for (std::size_t i = 0; i < a.repeat_series[r].rows.size(); ++i) {
        ASSERT_EQ(bits(a.repeat_series[r].rows[i]), bits(b.repeat_series[r].rows[i]))
            << "repeat " << r << " row " << i;
      }
    }

    ASSERT_NE(a.trace, nullptr);
    ASSERT_NE(b.trace, nullptr);
    EXPECT_EQ(a.trace->to_chrome_trace().dump(), b.trace->to_chrome_trace().dump());
    EXPECT_FALSE(a.ss_log.empty());
    EXPECT_EQ(obs::ss_log_to_json(a.ss_log).dump(), obs::ss_log_to_json(b.ss_log).dump());
    EXPECT_FALSE(a.perf_log.empty());
    EXPECT_EQ(obs::perf_log_to_json(a.perf_log).dump(),
              obs::perf_log_to_json(b.perf_log).dump());
    EXPECT_EQ(a.scenario_log.events.size(), 1u);
    EXPECT_EQ(to_json(a.scenario_log).dump(), to_json(b.scenario_log).dump());
    ASSERT_NE(a.record, nullptr);
    ASSERT_NE(b.record, nullptr);
    EXPECT_EQ(to_json(*a.record).dump(), to_json(*b.record).dump());
  }

  // A 1-repeat run is repeat 0 alone (same seed substream), so the trace and
  // logs both runs above kept must equal its own.
  TestSpec one = spec;
  one.repeats = 1;
  const TestResult c = run_test(one);
  ASSERT_EQ(c.samples_gbps.size(), 1u);
  EXPECT_EQ(bits(c.samples_gbps[0]), bits(b.samples_gbps[0]));
  ASSERT_NE(c.trace, nullptr);
  EXPECT_EQ(c.trace->to_chrome_trace().dump(), b.trace->to_chrome_trace().dump());
  EXPECT_EQ(obs::ss_log_to_json(c.ss_log).dump(), obs::ss_log_to_json(b.ss_log).dump());
  EXPECT_EQ(obs::perf_log_to_json(c.perf_log).dump(),
            obs::perf_log_to_json(b.perf_log).dump());
  EXPECT_EQ(to_json(c.scenario_log).dump(), to_json(b.scenario_log).dump());
}

}  // namespace
}  // namespace dtnsim::harness
