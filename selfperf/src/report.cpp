#include "report.hpp"

#include <sys/personality.h>

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace selfperf {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"pass_s", "s", "lower"},
      {"sim_s_per_wall_s", "sim-s/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"bench.trace_overhead_frac", "ratio", "lower"},
        // Workload-specific end-to-end rates, untraced, one pass each.
        {"e2e.cells_per_s", "cells/s", "higher"},
        {"e2e.pkt_segments_per_s", "segments/s", "higher"},
        {"e2e.cached_cells_per_s", "cells/s", "higher"},
        {"e2e.record_mb_per_s", "MB/s", "higher"},
        {"e2e.paper_err_pct", "%", "lower"},
        {"harness.run_test_ms.p50", "ms", "lower"},
        {"harness.run_test_ms.p90", "ms", "lower"},
        {"harness.run_test_ms.n", "count", "higher"},
        {"harness.testbed_build_us", "us", "lower"},
        {"flow.transfer_ms", "ms", "lower"},
        {"flow.rounds", "count", "lower"},
        {"flow.ns_per_round", "ns", "lower"},
        {"pkt.window_bound.run_ms", "ms", "lower"},
        {"pkt.window_bound.ns_per_segment", "ns", "lower"},
        {"pkt.paced.run_ms", "ms", "lower"},
        {"pkt.paced.ns_per_segment", "ns", "lower"},
        {"pkt.ring_overrun.run_ms", "ms", "lower"},
        {"pkt.ring_overrun.ns_per_segment", "ns", "lower"},
        {"pkt.sender_bound.run_ms", "ms", "lower"},
        {"pkt.sender_bound.ns_per_segment", "ns", "lower"},
        {"pkt.sender_bound.horizon_scaling", "ratio", "lower"},
        {"pkt.window_bound.startup_ms", "ms", "lower"},
        {"pkt.segments", "count", "higher"},
        {"pkt.napi_polls", "count", "lower"},
        {"pkt.gro_aggregates", "count", "lower"},
        {"pkt.ring_drops", "count", "lower"},
        {"sim.queue_ops_per_s.1k", "ops/s", "higher"},
        {"sim.queue_ops_per_s.64k", "ops/s", "higher"},
        {"sim.self_schedule_ns", "ns", "lower"},
        {"cpu.cost_model_build_ns", "ns", "lower"},
        {"cpu.tx_cyc_per_byte_ns", "ns", "lower"},
        {"cpu.rx_cyc_per_byte_ns", "ns", "lower"},
        {"host.dma_cap_ns", "ns", "lower"},
        {"host.make_cost_model_ns", "ns", "lower"},
        {"kern.gso_counts_ns", "ns", "lower"},
        {"kern.zc_round_ns", "ns", "lower"},
        {"kern.gro_add_segment_ns", "ns", "lower"},
        {"net.nic_rx_build_ns", "ns", "lower"},
        {"net.nic_rx_process_ns", "ns", "lower"},
        {"net.fq_enqueue_ns", "ns", "lower"},
        {"scenario.load_us", "us", "lower"},
        {"scenario.runtime_build_us", "us", "lower"},
        {"scenario.advance_ns", "ns", "lower"},
        {"obs.overhead_ratio", "ratio", "lower"},
        {"obs.samples", "count", "lower"},
        {"obs.ns_per_sample", "ns", "lower"},
        {"report.record_write_ms", "ms", "lower"},
        {"report.record_load_ms", "ms", "lower"},
        {"report.analyze_ms", "ms", "lower"},
        {"report.record_bytes", "bytes", "lower"},
        {"json.parse_mb_per_s", "MB/s", "higher"},
        {"json.dump_mb_per_s", "MB/s", "higher"},
        {"sweep.expand_ms", "ms", "lower"},
        {"sweep.sim_share", "ratio", "higher"},
        {"sweep.worker_occupancy", "ratio", "higher"},
        {"sweep.cache_load_us", "us", "lower"},
        {"sweep.cache_store_us", "us", "lower"},
        {"sweep.cache_bytes", "bytes", "lower"},
        {"sweep.cells_simulated", "count", "higher"},
        {"sweep.cells_cached", "count", "higher"},
    };
    // Self time per layer: span time minus the time its child spans cover.
    for (const char* layer : {"bench.self_ms", "harness.self_ms", "flow.self_ms",
                              "sim.self_ms", "cpu.self_ms", "host.self_ms", "kern.self_ms",
                              "net.self_ms", "scenario.self_ms", "obs.self_ms",
                              "report.self_ms", "util.self_ms", "sweep.self_ms"}) {
      d.push_back({layer, "ms", "lower"});
    }
    return d;
  }();
  return defs;
}

Provenance Provenance::current(std::string describe) {
  Provenance p;
  p.compiler = SELFPERF_COMPILER;
  p.build_type = SELFPERF_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  p.optimized = true;
#endif
  p.cores = std::thread::hardware_concurrency();
  p.describe = std::move(describe);
  const int persona = personality(0xffffffff);
  p.fixed_layout = persona != -1 && (persona & ADDR_NO_RANDOMIZE) != 0;
  return p;
}

dtnsim::Json Provenance::to_json() const {
  dtnsim::Json j = dtnsim::Json::object();
  j["compiler"] = compiler;
  j["build_type"] = build_type;
  j["optimized"] = optimized;
  j["cores"] = static_cast<int>(cores);
  j["describe"] = describe;
  j["fixed_layout"] = fixed_layout;
  return j;
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<MetricDef>& catalog, const MetricValues& values) {
  dtnsim::Json metrics = dtnsim::Json::object();
  for (const auto& def : catalog) {
    const auto it = values.find(def.name);
    if (it == values.end()) throw std::logic_error(std::string("metric not measured: ") + def.name);
    dtnsim::Json m = dtnsim::Json::object();
    m["value"] = it->second;
    m["unit"] = def.unit;
    metrics[def.name] = std::move(m);
  }
  if (values.size() != catalog.size()) throw std::logic_error("metric outside the catalog");
  dtnsim::Json out = dtnsim::Json::object();
  out["correct"] = correct;
  out["attempted"] = static_cast<std::uint64_t>(attempted);
  out["failed"] = static_cast<std::uint64_t>(failed);
  out["metrics"] = std::move(metrics);
  return out.dump();
}

DigestBook DigestBook::load(const std::string& path) {
  DigestBook book;
  std::ifstream in(path);
  if (!in) return book;
  std::stringstream ss;
  ss << in.rdbuf();
  auto doc = dtnsim::Json::parse(ss.str());
  if (!doc || !doc->is_object()) throw std::runtime_error("malformed digest book " + path);
  book.doc_ = std::move(*doc);
  return book;
}

std::string DigestBook::expected(unsigned long long seed, const std::string& workload) const {
  const dtnsim::Json* per_seed = doc_.find(std::to_string(seed));
  return per_seed ? per_seed->string_at(workload, "") : "";
}

void DigestBook::set(unsigned long long seed, const std::string& workload,
                     const std::string& hex) {
  dtnsim::Json& per_seed = doc_[std::to_string(seed)];
  if (!per_seed.is_object()) per_seed = dtnsim::Json::object();
  per_seed[workload] = hex;
}

bool DigestBook::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << doc_.dump(2) << "\n";
  return static_cast<bool>(out);
}

}  // namespace selfperf
