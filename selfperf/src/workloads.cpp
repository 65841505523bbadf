#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "digest.hpp"
#include "reference.hpp"
#include "dtnsim/harness/experiments.hpp"
#include "dtnsim/report/record.hpp"
#include "dtnsim/scenario/scenario.hpp"
#include "dtnsim/sweep/cache.hpp"

namespace selfperf {
namespace fs = std::filesystem;
using namespace dtnsim;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Runs one call that stands for `n` operations: counts them, applies the
// fault injection, and turns a throw into n failures. A reference sample
// runs just before the call, outside its time.
template <class F>
void run_ops(Context& ctx, PassStats& st, std::size_t n, F&& fn) {
  const long first = ctx.op_seq;
  st.ops += n;
  ctx.op_seq += static_cast<long>(n);
  st.op_ref_s.push_back(reference_sample_s());
  const double sim0 = st.sim_wall_s;
  const auto t0 = Clock::now();
  try {
    if (ctx.fail_at >= first && ctx.fail_at < ctx.op_seq) {
      throw std::runtime_error("injected failure");
    }
    fn();
  } catch (const std::exception& e) {
    st.failed += n;
    std::fprintf(stderr, "selfperf: operation %ld failed: %s\n", first, e.what());
  }
  st.op_wall_s.push_back(seconds_since(t0));
  st.op_sim_wall_s.push_back(st.sim_wall_s - sim0);
}

// Table I (ESnet LAN, 8 streams, kernel 5.15): unpaced, 25, 20 and 15 Gbps
// per stream, as the paper reports them.
constexpr double kPaperTable1Gbps[] = {166.0, 166.0, 147.0, 118.0};

// Last instant a timeline touches, jitter included.
double timeline_end_sec(const scenario::Timeline& tl) {
  double end = 0.0;
  for (const auto& ev : tl.events) {
    end = std::max(end, ev.at_sec + ev.jitter_sec + ev.duration_sec);
  }
  return end;
}

// The digest of a campaign's rows, in cell order.
std::string rows_digest(const sweep::CampaignReport& report) {
  Digest digest;
  for (const auto& cell : report.cells) {
    const std::string p = "cell" + std::to_string(cell.index);
    digest.add(p + ".key", cell.key_hex);
    for (const auto& [axis, value] : cell.coords) digest.add(p + "." + axis, value);
    digest.add(p, cell.result);
  }
  return digest.hex();
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag) {
  return sweep::mix64(seed ^ sweep::fnv1a64(tag));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fluid_lan", "wan_sweep", "pkt_lan",
                                                 "observed_run"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, Context& ctx) {
  if (name == "fluid_lan") return std::make_unique<FluidLan>(ctx);
  if (name == "wan_sweep") return std::make_unique<WanSweep>(ctx);
  if (name == "pkt_lan") return std::make_unique<PktLan>(ctx);
  if (name == "observed_run") return std::make_unique<ObservedRun>(ctx);
  return nullptr;
}

// ---- fluid_lan --------------------------------------------------------------

void FluidLan::setup(std::uint64_t seed) {
  specs_.clear();
  table1_.clear();
  for (const std::string id : {"fig5", "fig6", "table1", "fig12"}) {
    const harness::ExperimentDef* def = harness::find_experiment(id);
    if (def == nullptr) throw std::runtime_error("fluid_lan: no experiment " + id);
    for (auto& spec : def->specs()) {
      if (spec.path.name != "LAN") continue;
      spec.iperf.duration_sec = kDurationSec;
      spec.repeats = kRepeats;
      spec.base_seed = derive_seed(seed, id + "/" + spec.name);
      if (id == "table1") table1_.push_back(specs_.size());
      specs_.push_back(std::move(spec));
    }
  }
  if (table1_.size() != std::size(kPaperTable1Gbps)) {
    throw std::runtime_error("fluid_lan: expected 4 Table I LAN cells");
  }
}

PassStats FluidLan::pass(Tracer& tr) {
  PassStats st;
  Digest digest;
  const auto t0 = Clock::now();
  ScopedSpan root(tr, "bench.pass.fluid_lan");
  std::vector<double> gbps(specs_.size(), 0.0);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    run_ops(ctx_, st, 1, [&] {
      const auto c0 = Clock::now();
      harness::TestResult r;
      {
        ScopedSpan s(tr, "harness.run_test");
        r = harness::run_test(specs_[i]);
      }
      st.sim_wall_s += seconds_since(c0);
      st.sim_s += specs_[i].iperf.duration_sec * r.repeats;
      st.cells += 1;
      gbps[i] = r.avg_gbps;
      digest.add("spec" + std::to_string(i), r);
    });
  }
  double err = 0.0;
  for (std::size_t k = 0; k < table1_.size(); ++k) {
    err += std::fabs(gbps[table1_[k]] - kPaperTable1Gbps[k]) / kPaperTable1Gbps[k];
  }
  st.paper_err_pct = 100.0 * err / static_cast<double>(table1_.size());
  st.digest = digest.hex();
  st.wall_s = seconds_since(t0);
  return st;
}

// ---- wan_sweep --------------------------------------------------------------

void WanSweep::setup(std::uint64_t seed) {
  parts_.clear();
  for (const auto kernel : {kern::KernelVersion::V5_15, kern::KernelVersion::V6_5,
                            kern::KernelVersion::V6_8}) {
    for (const bool zerocopy : {false, true}) {
      Part part;
      sweep::GridSpec& g = part.grid;
      g.name = std::string("wan_sweep-") + kern::kernel_version_name(kernel) +
               (zerocopy ? "-zc" : "-copy");
      g.testbed = "esnet";
      g.paths = {"WAN 63ms"};
      g.kernels = {kernel};
      g.streams = {1, 2, 4, 8};
      g.pacing_gbps = {0.0, 10.0, 20.0};
      g.zerocopy = {zerocopy};
      g.optmem_max = {20480.0, 3405376.0};  // the paper's 20 KB default and 3.25 MB
      g.duration_sec = 60.0;
      g.repeats = 10;
      g.base_seed = derive_seed(seed, "wan_sweep");
      part.cells = sweep::expand(g);
      parts_.push_back(std::move(part));
    }
  }
  // Emptying the cache is the cold pass's job (pass() starts with it), so
  // the set-up time does not depend on what the previous pass left there.
  cache_dir_ = ctx_.work_dir + "/wan_cache";
  fs::create_directories(cache_dir_);
}

std::size_t WanSweep::cell_count() const {
  std::size_t n = 0;
  for (const auto& p : parts_) n += p.cells.size();
  return n;
}

PassStats WanSweep::pass(Tracer& tr) {
  fs::remove_all(cache_dir_);  // the cold campaigns start from an empty cache
  PassStats st;
  Digest digest;
  const auto t0 = Clock::now();
  ScopedSpan root(tr, "bench.pass.wan_sweep");
  sweep::CampaignOptions opts;
  opts.jobs = kJobs;
  opts.cache_dir = cache_dir_;

  for (std::size_t i = 0; i < parts_.size(); ++i) {
    Part& part = parts_[i];
    const std::size_t n = part.cells.size();
    opts.results_path = ctx_.work_dir + "/wan_cold" + std::to_string(i) + ".jsonl";
    part.cold = sweep::CampaignReport{};
    run_ops(ctx_, st, n, [&] {
      const auto c0 = Clock::now();
      {
        ScopedSpan s(tr, "sweep.run_campaign.cold");
        part.cold = sweep::run_campaign(part.grid, opts);
      }
      st.sim_wall_s += seconds_since(c0);
      for (const auto& cell : part.cold.cells) {
        if (!cell.done || cell.cached) ++st.failed;
      }
      st.cells += static_cast<double>(part.cold.simulated);
      st.sim_s += static_cast<double>(part.cold.simulated) * part.grid.duration_sec *
                  part.grid.repeats;
    });
    const std::string rows = rows_digest(part.cold);
    digest.add(part.grid.name, rows);

    opts.results_path = ctx_.work_dir + "/wan_warm" + std::to_string(i) + ".jsonl";
    run_ops(ctx_, st, n * kWarmPasses, [&] {
      for (int k = 0; k < kWarmPasses; ++k) {
        sweep::CampaignReport warm;
        {
          ScopedSpan s(tr, "sweep.run_campaign.warm");
          warm = sweep::run_campaign(part.grid, opts);
        }
        std::size_t bad = 0;
        for (const auto& cell : warm.cells) {
          if (!cell.done || !cell.cached) ++bad;
        }
        // Warm rows must be the cold rows, read back from the cache.
        if (rows_digest(warm) != rows) bad = n;
        st.failed += bad;
        st.cached_cells += static_cast<double>(warm.cached);
      }
    });
  }
  st.failed = std::min(st.failed, st.ops);
  st.digest = digest.hex();
  st.wall_s = seconds_since(t0);
  return st;
}

// ---- pkt_lan ----------------------------------------------------------------

void PktLan::setup(std::uint64_t seed) {
  const harness::Testbed tb = harness::esnet();
  auto make = [&](const std::string& cls, double horizon_ms) {
    Case c;
    c.cls = cls;
    c.cfg.sender = tb.sender;
    c.cfg.receiver = tb.receiver;
    c.cfg.path = tb.lan();
    c.cfg.duration = units::SimTime::from_millis(horizon_ms);
    c.cfg.seed = derive_seed(seed, "pkt_lan/" + cls + "/" + std::to_string(horizon_ms));
    return c;
  };
  cases_.clear();
  // window_bound: the engine's defaults (8 MB window, unpaced).
  cases_.push_back(make("window_bound", 1000.0));
  // paced: fq at the paper's ESnet 40 Gbps per-stream rate.
  cases_.push_back(make("paced", 1000.0));
  cases_.back().cfg.pacing_bps = 40e9;
  // ring_overrun: unpaced trains into a 256-slot ring drained at 2 us per
  // segment, so the ring overflows and drops.
  cases_.push_back(make("ring_overrun", 1000.0));
  cases_.back().cfg.receiver.tuning.ring_descriptors = 256;
  cases_.back().cfg.rx_segment_ns_override = 2000.0;
  // sender_bound: a fast receiver (600 ns per segment), so the sender core
  // is the bottleneck; at h and 2h to expose how wall time scales.
  for (const double h : {kSenderBoundMs, 2.0 * kSenderBoundMs}) {
    cases_.push_back(make("sender_bound", h));
    cases_.back().cfg.receiver.tuning.ring_descriptors = 256;
    cases_.back().cfg.rx_segment_ns_override = 600.0;
  }
}

PassStats PktLan::pass(Tracer& tr) {
  PassStats st;
  Digest digest;
  const auto t0 = Clock::now();
  ScopedSpan root(tr, "bench.pass.pkt_lan");
  last_.assign(cases_.size(), flow::PacketSimResult{});
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    run_ops(ctx_, st, 1, [&] {
      const auto c0 = Clock::now();
      {
        ScopedSpan s(tr, "flow.run_packet_sim");
        last_[i] = flow::run_packet_sim(cases_[i].cfg);
      }
      st.sim_wall_s += seconds_since(c0);
      st.sim_s += cases_[i].cfg.duration.seconds();
      st.cells += 1;
      st.segments += static_cast<double>(last_[i].segments_sent);
      digest.add("case" + std::to_string(i), last_[i]);
    });
  }
  st.digest = digest.hex();
  st.wall_s = seconds_since(t0);
  return st;
}

// ---- observed_run -----------------------------------------------------------

void ObservedRun::setup(std::uint64_t seed) {
  std::vector<fs::path> files;
  const fs::path dir = fs::path(ctx_.root) / "scenarios";
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) throw std::runtime_error("observed_run: no timelines in " + dir.string());

  std::vector<scenario::Timeline> timelines;
  for (const auto& f : files) timelines.push_back(scenario::load_timeline(f.string()));

  const harness::Testbed tb = harness::esnet();
  specs_.clear();
  for (const auto& tl : timelines) {
    for (const std::string path : {"LAN", "WAN 63ms"}) {
      app::IperfOptions io;
      io.parallel = 8;
      // Long enough for every event to fire and the flows to recover.
      io.duration_sec = std::ceil(timeline_end_sec(tl)) + 5.0;
      auto spec = harness::TestSpec::on(tb, path, io, tl.name + " " + path);
      spec.repeats = 1;
      spec.scenario = tl;
      spec.record = true;
      spec.base_seed = derive_seed(seed, "observed_run/" + spec.name);
      specs_.push_back(std::move(spec));
    }
  }
}

PassStats ObservedRun::pass(Tracer& tr) {
  PassStats st;
  Digest digest;
  const auto t0 = Clock::now();
  ScopedSpan root(tr, "bench.pass.observed_run");
  last_.assign(specs_.size(), Outcome{});
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    run_ops(ctx_, st, 1, [&] {
      Outcome& out = last_[i];
      auto c0 = Clock::now();
      {
        ScopedSpan s(tr, "harness.run_test.recorded");
        out.record = harness::run_test(specs_[i]).record;
      }
      const double run_wall_s = seconds_since(c0);
      if (!out.record) throw std::runtime_error("run_test returned no RunRecord");
      const report::RunRecord& rec = *out.record;

      const std::string path = ctx_.work_dir + "/record_" + std::to_string(i) + ".json";
      c0 = Clock::now();
      {
        ScopedSpan s(tr, "report.write_run_record");
        if (!report::write_run_record(path, rec)) throw std::runtime_error("cannot write " + path);
      }
      out.write_wall_s = seconds_since(c0);
      out.record_bytes = static_cast<double>(fs::file_size(path));

      c0 = Clock::now();
      report::RunRecord loaded;
      {
        ScopedSpan s(tr, "report.load_run_record");
        loaded = report::load_run_record(path);
      }
      out.load_wall_s = seconds_since(c0);

      c0 = Clock::now();
      report::RunAnalysis analysis;
      {
        ScopedSpan s(tr, "report.analyze_record");
        analysis = report::analyze_record(loaded);
      }
      out.analyze_wall_s = seconds_since(c0);

      // The record must survive the disk round-trip digit for digit.
      if (report::to_json(analysis).dump() != report::to_json(rec.analysis).dump() ||
          report::to_json(loaded.summary).dump() != report::to_json(rec.summary).dump()) {
        throw std::runtime_error("record round-trip changed " + path);
      }

      st.sim_wall_s += run_wall_s;
      st.sim_s += specs_[i].iperf.duration_sec * rec.meta.repeats;
      st.cells += 1;
      st.record_bytes += out.record_bytes;
      digest.add("record" + std::to_string(i), rec);
    });
  }
  st.digest = digest.hex();
  st.wall_s = seconds_since(t0);
  return st;
}

}  // namespace selfperf
