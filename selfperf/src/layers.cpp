#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "digest.hpp"
#include "measure.hpp"
#include "dtnsim/cpu/cost_model.hpp"
#include "dtnsim/flow/transfer.hpp"
#include "dtnsim/harness/testbeds.hpp"
#include "dtnsim/host/host.hpp"
#include "dtnsim/kern/gro.hpp"
#include "dtnsim/kern/gso.hpp"
#include "dtnsim/kern/zc_socket.hpp"
#include "dtnsim/net/nic.hpp"
#include "dtnsim/net/qdisc.hpp"
#include "dtnsim/obs/telemetry.hpp"
#include "dtnsim/report/record.hpp"
#include "dtnsim/scenario/scenario.hpp"
#include "dtnsim/sim/engine.hpp"
#include "dtnsim/sweep/cache.hpp"
#include "dtnsim/util/rng.hpp"
#include "stats.hpp"

namespace selfperf {
namespace fs = std::filesystem;
using namespace dtnsim;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Results of the timed loops flow here so the compiler cannot drop them.
volatile double g_sink = 0.0;

// Host nanoseconds per call of fn(i), over n calls, inside one span.
template <class F>
double ns_per_call(Tracer& tr, const char* span, long n, F&& fn) {
  ScopedSpan s(tr, span);
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (long i = 0; i < n; ++i) sink += fn(i);
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(n);
  g_sink = g_sink + sink;
  return ns;
}

// The TransferConfig harness::run_test builds for repeat 0 of `spec`.
flow::TransferConfig transfer_config(const harness::TestSpec& spec) {
  flow::TransferConfig cfg;
  cfg.sender = spec.sender;
  cfg.receiver = spec.receiver;
  cfg.path = spec.path;
  cfg.streams = std::max(spec.iperf.parallel, 1);
  cfg.flow.zerocopy = spec.iperf.zerocopy;
  cfg.flow.skip_rx_copy = spec.iperf.skip_rx_copy;
  cfg.flow.fq_rate_bps = spec.iperf.fq_rate_bps;
  cfg.flow.congestion = spec.iperf.congestion;
  cfg.link_flow_control = spec.link_flow_control;
  cfg.duration = units::SimTime::from_seconds(spec.iperf.duration_sec);
  cfg.scenario = spec.scenario;
  cfg.seed = Rng(spec.base_seed).substream(0).next();
  return cfg;
}

// Pushes then pops `n` events at random times, `rounds` times.
double queue_ops_per_s(Tracer& tr, const char* span, std::size_t n, int rounds) {
  ScopedSpan s(tr, span);
  Rng rng(n);
  double ops = 0.0;
  Nanos sink = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(static_cast<Nanos>(rng.uniform_int(0, 1000000000)), [] {});
    }
    while (!q.empty()) {
      Nanos t = 0;
      q.pop(&t);
      sink += t;
    }
    ops += 2.0 * static_cast<double>(n);
  }
  const double rate = ops / seconds_since(t0);
  g_sink = g_sink + static_cast<double>(sink);
  return rate;
}

struct Phase {
  Workload* wl = nullptr;
  std::vector<PassStats> untraced;  // two passes, after a warm-up
  std::vector<PassStats> traced;    // two passes, interleaved with them
};

// Per call, the fastest host seconds of its simulating part over `passes`.
std::vector<double> best_sim_wall(const std::vector<PassStats>& passes) {
  std::vector<double> best = passes.front().op_sim_wall_s;
  for (const auto& p : passes) {
    for (std::size_t k = 0; k < best.size(); ++k) best[k] = std::min(best[k], p.op_sim_wall_s[k]);
  }
  return best;
}

}  // namespace

TracedOutcome run_traced(Context& ctx, std::uint64_t seed, const DigestBook& book,
                         Tracer& tr) {
  TracedOutcome out;
  MetricValues& m = out.metrics;
  auto fail = [&](std::size_t n, const std::string& why) {
    out.failed += n;
    out.correct = false;
    std::fprintf(stderr, "selfperf: traced run: %s\n", why.c_str());
  };

  // ---- the four workloads, untraced then traced ----------------------------
  FluidLan fluid(ctx);
  WanSweep wan(ctx);
  PktLan pkt(ctx);
  ObservedRun observed(ctx);
  std::vector<Phase> phases;
  for (Workload* wl : std::initializer_list<Workload*>{&fluid, &wan, &pkt, &observed}) {
    phases.push_back(Phase{wl, {}, {}});
  }
  // Untraced and traced passes alternate so slow spells on a shared host
  // hit both sides; each side is read normalised, like the timed runs.
  Tracer off(false);
  double untraced_s = 0.0;
  double traced_s = 0.0;
  int run = 0;
  MetricValues fig;  // workload-specific end-to-end figures, untraced
  for (Phase& ph : phases) {
    ph.wl->setup(seed);
    const PassStats warm = ph.wl->pass(off);  // fills caches, lazy set-up
    for (int k = 0; k < 2; ++k) {
      ph.untraced.push_back(ph.wl->pass(off));
      tr.set_run(++run);
      ph.traced.push_back(ph.wl->pass(tr));
    }
    untraced_s += workload_figures(ph.untraced).at("pass_s");
    traced_s += workload_figures(ph.traced).at("pass_s");
    for (const auto& [k, v] : workload_figures(ph.untraced)) {
      fig[std::string(ph.wl->name()) + "." + k] = v;
    }

    std::size_t ops = warm.ops, failed = warm.failed;
    bool agree = true;
    for (const auto* side : {&ph.untraced, &ph.traced}) {
      for (const auto& p : *side) {
        ops += p.ops;
        failed += p.failed;
        agree = agree && p.digest == warm.digest;
      }
    }
    out.attempted += ops;
    out.digests[ph.wl->name()] = warm.digest;
    const std::string expected = book.expected(seed, ph.wl->name());
    if (!agree || (!expected.empty() && expected != warm.digest)) {
      fail(ops, std::string(ph.wl->name()) + ": output digest mismatch");
    } else if (failed) {
      fail(failed, std::string(ph.wl->name()) + ": failed operations");
    }
  }
  tr.set_run(++run);
  m["bench.trace_overhead_frac"] = traced_s / untraced_s - 1.0;
  m["e2e.cells_per_s"] = fig["wan_sweep.cells_per_s"];
  m["e2e.pkt_segments_per_s"] = fig["pkt_lan.pkt_segments_per_s"];
  m["e2e.cached_cells_per_s"] = fig["wan_sweep.cached_cells_per_s"];
  m["e2e.record_mb_per_s"] = fig["observed_run.record_mb_per_s"];
  m["e2e.paper_err_pct"] = fig["fluid_lan.paper_err_pct"];

  // ---- harness --------------------------------------------------------------
  const std::vector<double> run_test_ms = tr.durations_ms("harness.run_test");
  m["harness.run_test_ms.p50"] = percentile(run_test_ms, 0.5);
  m["harness.run_test_ms.p90"] = percentile(run_test_ms, 0.9);
  m["harness.run_test_ms.n"] = static_cast<double>(run_test_ms.size());
  m["harness.testbed_build_us"] =
      1e-3 * ns_per_call(tr, "harness.testbed_build", 400, [](long i) {
        const auto tb = (i & 1) ? harness::esnet() : harness::amlight();
        return tb.sender.virt_factor;
      });

  // ---- flow (fluid): direct transfers, then counted ones --------------------
  std::vector<double> transfer_ms;
  double rounds = 0.0;
  std::unique_ptr<obs::Telemetry> last_tel;
  for (const auto& spec : fluid.specs()) {
    flow::TransferConfig cfg = transfer_config(spec);
    const auto t0 = Clock::now();
    {
      ScopedSpan s(tr, "flow.run_transfer");
      g_sink = g_sink + flow::run_transfer(cfg).throughput_bps;
    }
    transfer_ms.push_back(seconds_since(t0) * 1e3);
    obs::TelemetryConfig tcfg;
    tcfg.enabled = true;
    last_tel = std::make_unique<obs::Telemetry>(tcfg);
    cfg.telemetry = last_tel.get();
    flow::run_transfer(cfg);
    for (int c = 0; c < 8; ++c) {
      rounds += last_tel->registry().value_of(
          std::string("limit.") + obs::round_limit_name(static_cast<obs::RoundLimit>(c)) +
          "_ticks");
    }
  }
  double transfer_total_ms = 0.0;
  for (const double t : transfer_ms) transfer_total_ms += t;
  m["flow.transfer_ms"] = median(transfer_ms);
  m["flow.rounds"] = rounds;
  m["flow.ns_per_round"] = transfer_total_ms * 1e6 / rounds;

  // ---- flow (packet) -------------------------------------------------------
  const auto& cases = pkt.cases();
  std::vector<PassStats> pkt_passes = phases[2].untraced;
  pkt_passes.insert(pkt_passes.end(), phases[2].traced.begin(), phases[2].traced.end());
  const std::vector<double> pkt_best = best_sim_wall(pkt_passes);
  const auto& outcomes = pkt.last();  // results repeat exactly across passes
  for (const std::string cls : {"window_bound", "paced", "ring_overrun", "sender_bound"}) {
    // The first case of each class (sender_bound's first is the h horizon).
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (cases[i].cls != cls) continue;
      m["pkt." + cls + ".run_ms"] = pkt_best[i] * 1e3;
      m["pkt." + cls + ".ns_per_segment"] =
          pkt_best[i] * 1e9 / static_cast<double>(outcomes[i].segments_sent);
      break;
    }
  }
  m["pkt.sender_bound.horizon_scaling"] =
      pkt_best[cases.size() - 1] / pkt_best[cases.size() - 2];
  double segs = 0.0, polls = 0.0, aggs = 0.0, drops = 0.0;
  for (const auto& c : cases) {
    obs::TelemetryConfig tcfg;
    tcfg.enabled = true;
    obs::Telemetry tel(tcfg);
    flow::PacketSimConfig cfg = c.cfg;
    cfg.telemetry = &tel;
    flow::run_packet_sim(cfg);
    segs += tel.registry().value_of("pkt.segments_sent");
    polls += tel.registry().value_of("pkt.napi_polls");
    aggs += tel.registry().value_of("pkt.gro_aggregates");
    drops += tel.registry().value_of("pkt.ring_drops");
  }
  m["pkt.segments"] = segs;
  m["pkt.napi_polls"] = polls;
  m["pkt.gro_aggregates"] = aggs;
  m["pkt.ring_drops"] = drops;
  {
    flow::PacketSimConfig cfg = cases.front().cfg;  // window_bound
    cfg.duration = units::SimTime::from_millis(10);
    std::vector<double> ms;
    for (int k = 0; k < 3; ++k) {
      const auto t0 = Clock::now();
      ScopedSpan s(tr, "flow.run_packet_sim.startup");
      g_sink = g_sink + flow::run_packet_sim(cfg).achieved_bps;
      ms.push_back(seconds_since(t0) * 1e3);
    }
    m["pkt.window_bound.startup_ms"] = median(ms);
  }

  // ---- sim ------------------------------------------------------------------
  m["sim.queue_ops_per_s.1k"] = queue_ops_per_s(tr, "sim.event_queue.1k", 1000, 200);
  m["sim.queue_ops_per_s.64k"] = queue_ops_per_s(tr, "sim.event_queue.64k", 65536, 4);
  {
    constexpr long kChain = 200000;
    ScopedSpan s(tr, "sim.self_schedule");
    sim::Engine engine;
    long remaining = kChain;
    std::function<void()> step = [&] {
      if (--remaining > 0) engine.schedule(1, step);
    };
    engine.schedule(0, step);
    const auto t0 = Clock::now();
    engine.run();
    m["sim.self_schedule_ns"] = seconds_since(t0) * 1e9 / kChain;
  }

  // ---- cpu / host -------------------------------------------------------------
  const harness::Testbed esnet = harness::esnet();
  const host::Host host(esnet.sender);
  {
    const cpu::CpuSpec spec = esnet.sender.cpu;
    m["cpu.cost_model_build_ns"] = ns_per_call(tr, "cpu.cost_model_build", 200000, [&](long i) {
      cpu::CostModelOptions opts;
      opts.stack_factor = 1.0 + static_cast<double>(i & 7) * 1e-3;
      return cpu::CostModel(spec, opts).copy_tx_cyc_per_byte();
    });
    const cpu::CostModel cm(spec, cpu::CostModelOptions{});
    m["cpu.tx_cyc_per_byte_ns"] = ns_per_call(tr, "cpu.tx_cyc_per_byte", 1000000, [&](long i) {
      cpu::TxPathConfig c;
      c.zc_fraction = static_cast<double>(i & 15) / 16.0;
      return cm.tx_app_cyc_per_byte(c);
    });
    m["cpu.rx_cyc_per_byte_ns"] = ns_per_call(tr, "cpu.rx_cyc_per_byte", 1000000, [&](long i) {
      cpu::RxPathConfig c;
      c.gro_bytes = 65536.0 - static_cast<double>(i & 15) * 1024.0;
      return cm.rx_app_cyc_per_byte(c);
    });
  }
  m["host.dma_cap_ns"] = ns_per_call(tr, "host.dma_cap", 200000,
                                     [&](long) { return host.dma_cap_bps(); });
  m["host.make_cost_model_ns"] = ns_per_call(tr, "host.make_cost_model", 200000, [&](long i) {
    cpu::PlacementQuality q;
    q.app_numa_local = (i & 1) != 0;
    return host.make_cost_model(q).copy_rx_cyc_per_byte();
  });

  // ---- kern -----------------------------------------------------------------
  {
    const kern::SkbCaps caps = host.skb_caps();
    const units::Bytes mtu(9000.0);
    m["kern.gso_counts_ns"] = ns_per_call(tr, "kern.gso_counts", 1000000, [&](long i) {
      return kern::gso_counts(units::Bytes(1e6 + static_cast<double>(i & 1023)), caps,
                              (i & 1) != 0, mtu)
          .superpackets;
    });
    kern::ZcTxSocket sock(units::Bytes(3405376.0));
    m["kern.zc_round_ns"] = ns_per_call(tr, "kern.zc_round", 1000000, [&](long) {
      const auto plan = sock.plan_send(units::Bytes(262144.0), units::Bytes(65536.0));
      sock.on_acked(units::Bytes(262144.0));
      return plan.zc_bytes;
    });
    kern::GroEngine gro(caps, mtu);
    m["kern.gro_add_segment_ns"] = ns_per_call(tr, "kern.gro_add_segment", 1000000, [&](long) {
      const auto agg = gro.add_segment(units::Bytes(8948.0));
      return agg ? agg->value() : 0.0;
    });
  }

  // ---- net ------------------------------------------------------------------
  {
    const net::NicSpec nic = esnet.receiver.nic;
    m["net.nic_rx_build_ns"] = ns_per_call(tr, "net.nic_rx_build", 1000000, [&](long i) {
      return net::NicRx(nic, 1024 + static_cast<int>(i & 7), 9000.0, false).ring_bytes();
    });
    net::NicRx rx(nic, 1024, 9000.0, false);
    m["net.nic_rx_process_ns"] = ns_per_call(tr, "net.nic_rx_process", 1000000, [&](long i) {
      net::RxArrival a;
      a.bytes = 1e6 + static_cast<double>(i & 1023);
      a.paced = (i & 1) != 0;
      a.train_bytes = 65536.0;
      return rx.process(a, 200e-6, 200e-6).accepted_bytes;
    });
    net::FqQdisc fq(nic.line_rate_bps);
    fq.set_flow_rate(1, 40e9);
    Nanos now = 0;
    m["net.fq_enqueue_ns"] = ns_per_call(tr, "net.fq_enqueue", 1000000, [&](long i) {
      now += 1000;
      return static_cast<double>(fq.enqueue(1 + static_cast<int>(i & 1), 65536.0, now));
    });
  }

  // ---- scenario ---------------------------------------------------------------
  {
    std::vector<std::string> files;
    for (const auto& e : fs::directory_iterator(fs::path(ctx.root) / "scenarios")) {
      if (e.path().extension() == ".json") files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    std::vector<scenario::Timeline> timelines;
    for (const auto& f : files) timelines.push_back(scenario::load_timeline(f));
    const long nfiles = static_cast<long>(files.size());
    m["scenario.load_us"] = 1e-3 * ns_per_call(tr, "scenario.load_timeline", 50 * nfiles,
                                               [&](long i) {
                                                 return static_cast<double>(
                                                     scenario::load_timeline(files[i % nfiles])
                                                         .events.size());
                                               });
    std::vector<scenario::EventKind> kinds;
    for (int k = 0; k < scenario::kEventKindCount; ++k) {
      kinds.push_back(static_cast<scenario::EventKind>(k));
    }
    m["scenario.runtime_build_us"] =
        1e-3 * ns_per_call(tr, "scenario.runtime_build", 100 * nfiles, [&](long i) {
          const scenario::Runtime rt(timelines[i % nfiles], static_cast<std::uint64_t>(i),
                                     "fluid", kinds);
          return rt.next_boundary_sec();
        });
    // One LAN transfer's worth of 200 us ticks per timeline.
    constexpr long kTicks = 300000;
    std::vector<scenario::Runtime> rts;
    for (const auto& tl : timelines) rts.emplace_back(tl, seed, "fluid", kinds);
    m["scenario.advance_ns"] = ns_per_call(tr, "scenario.advance", kTicks * nfiles, [&](long i) {
      return rts[static_cast<std::size_t>(i / kTicks)].advance(
                 static_cast<double>(i % kTicks) * 200e-6)
                 ? 1.0
                 : 0.0;
    });
  }

  // ---- obs ------------------------------------------------------------------
  {
    // Recorded: each spec's fastest recorded run_test over the four passes.
    // Plain: the same spec with recording off, best of two.
    std::vector<PassStats> obs_passes = phases[3].untraced;
    obs_passes.insert(obs_passes.end(), phases[3].traced.begin(), phases[3].traced.end());
    double recorded = 0.0, plain = 0.0, samples = 0.0;
    for (const double s : best_sim_wall(obs_passes)) recorded += s;
    const auto& specs = observed.specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      harness::TestSpec spec = specs[i];
      spec.record = false;
      double best = 0.0;
      for (int k = 0; k < 2; ++k) {
        const auto t0 = Clock::now();
        {
          ScopedSpan s(tr, "harness.run_test.plain");
          g_sink = g_sink + harness::run_test(spec).avg_gbps;
        }
        best = k == 0 ? seconds_since(t0) : std::min(best, seconds_since(t0));
      }
      plain += best;
      const report::RunRecord& rec = *observed.last()[i].record;
      samples += static_cast<double>(rec.series.rows.size() + rec.ss_log.size() +
                                     rec.perf_log.size());
    }
    m["obs.overhead_ratio"] = recorded / plain;
    m["obs.samples"] = samples;
    // A probe sample over a full fluid registry (the last counted transfer).
    Nanos now = 0;
    m["obs.ns_per_sample"] = ns_per_call(tr, "obs.probe_sample", 2000, [&](long) {
      now += 1000;
      last_tel->probe().sample(now);
      return static_cast<double>(last_tel->probe().samples_taken());
    });
  }

  // ---- report / util ----------------------------------------------------------
  {
    std::vector<double> wr, ld, an, bytes;
    std::vector<std::string> texts;
    for (const auto& o : observed.last()) {
      wr.push_back(o.write_wall_s * 1e3);
      ld.push_back(o.load_wall_s * 1e3);
      an.push_back(o.analyze_wall_s * 1e3);
      bytes.push_back(o.record_bytes);
      texts.push_back(report::to_json(*o.record).dump(2));
    }
    m["report.record_write_ms"] = median(wr);
    m["report.record_load_ms"] = median(ld);
    m["report.analyze_ms"] = median(an);
    m["report.record_bytes"] = median(bytes);
    for (const auto& part : wan.parts()) {
      for (const auto& cell : part.cold.cells) {
        texts.push_back(sweep::result_to_json(cell.result).dump(2));
      }
    }
    double total = 0.0;
    for (const auto& t : texts) total += static_cast<double>(t.size());
    constexpr int kRounds = 5;
    std::vector<Json> parsed;
    auto t0 = Clock::now();
    {
      ScopedSpan s(tr, "util.json_parse");
      for (int r = 0; r < kRounds; ++r) {
        parsed.clear();
        for (const auto& t : texts) parsed.push_back(Json::parse(t).value_or(Json()));
      }
    }
    m["json.parse_mb_per_s"] = total * kRounds / seconds_since(t0) / 1e6;
    double dumped = 0.0;
    t0 = Clock::now();
    {
      ScopedSpan s(tr, "util.json_dump");
      for (int r = 0; r < kRounds; ++r) {
        for (const auto& j : parsed) dumped += static_cast<double>(j.dump(2).size());
      }
    }
    m["json.dump_mb_per_s"] = dumped / seconds_since(t0) / 1e6;
    // Each document must come back byte for byte (checked outside the timing).
    std::size_t changed = 0;
    for (std::size_t i = 0; i < texts.size(); ++i) {
      if (parsed[i].dump(2) != texts[i]) ++changed;
    }
    if (changed > 0) {
      fail(changed, "Json dump(parse(x)) != x for " + std::to_string(changed) + " documents");
    }
    out.attempted += texts.size();
  }

  // ---- sweep ----------------------------------------------------------------
  {
    std::vector<double> expand_ms;
    for (int k = 0; k < 20; ++k) {
      const auto t0 = Clock::now();
      ScopedSpan s(tr, "sweep.expand");
      for (const auto& part : wan.parts()) {
        g_sink = g_sink + static_cast<double>(sweep::expand(part.grid).size());
      }
      expand_ms.push_back(seconds_since(t0) * 1e3);
    }
    m["sweep.expand_ms"] = median(expand_ms);

    // The jobs = 1 pass: every cell through run_test on this thread; its
    // rows must equal the 2-worker campaigns' rows.
    double sim = 0.0, occupancy = 0.0;
    std::size_t mismatched = 0;
    for (const auto& part : wan.parts()) {
      occupancy += part.cold.worker_occupancy / static_cast<double>(wan.parts().size());
      for (const auto& cell : part.cells) {
        const auto t0 = Clock::now();
        harness::TestResult r;
        {
          ScopedSpan s(tr, "harness.run_test.cell");
          r = harness::run_test(cell.spec);
        }
        sim += seconds_since(t0);
        Digest a, b;
        a.add("cell", r);
        b.add("cell", part.cold.cells[cell.index].result);
        if (a.value() != b.value()) ++mismatched;
      }
    }
    const std::size_t ncells = wan.cell_count();
    out.attempted += ncells;
    if (mismatched) fail(mismatched, "wan_sweep: jobs=1 rows differ from jobs=2 rows");
    // The cold campaigns of the last traced pass.
    const std::vector<double> cold_ms = tr.durations_ms("sweep.run_campaign.cold");
    double cold_s = 0.0;
    for (std::size_t k = cold_ms.size() - wan.parts().size(); k < cold_ms.size(); ++k) {
      cold_s += cold_ms[k] * 1e-3;
    }
    m["sweep.sim_share"] = sim / (cold_s * WanSweep::kJobs);
    m["sweep.worker_occupancy"] = occupancy;
    m["sweep.cells_simulated"] = phases[1].traced.back().cells;
    m["sweep.cells_cached"] = phases[1].traced.back().cached_cells;

    const std::string dir = ctx.work_dir + "/probe_cache";
    fs::remove_all(dir);
    const sweep::ResultCache cache(dir);
    std::vector<double> store_us, load_us;
    std::size_t bad = 0;
    for (const auto& part : wan.parts()) {
      for (const auto& cell : part.cells) {
        const harness::TestResult& cold = part.cold.cells[cell.index].result;
        auto t0 = Clock::now();
        {
          ScopedSpan s(tr, "sweep.cache_store");
          if (!cache.store(cell.spec, cold)) ++bad;
        }
        store_us.push_back(seconds_since(t0) * 1e6);
        harness::TestResult loaded;
        t0 = Clock::now();
        {
          ScopedSpan s(tr, "sweep.cache_load");
          if (!cache.load(cell.spec, &loaded)) ++bad;
        }
        load_us.push_back(seconds_since(t0) * 1e6);
        Digest a, b;
        a.add("cell", loaded);
        b.add("cell", cold);
        if (a.value() != b.value()) ++bad;
      }
    }
    out.attempted += ncells;
    if (bad) fail(std::min(bad, ncells), "sweep cache store/load round-trip");
    double cache_bytes = 0.0;
    for (const auto& e : fs::directory_iterator(dir)) {
      cache_bytes += static_cast<double>(e.file_size());
    }
    fs::remove_all(dir);
    m["sweep.cache_load_us"] = median(load_us);
    m["sweep.cache_store_us"] = median(store_us);
    m["sweep.cache_bytes"] = cache_bytes;
  }

  // ---- self time per layer ------------------------------------------------------
  const auto self = tr.self_ms_by_layer();
  for (const char* layer : {"bench", "harness", "flow", "sim", "cpu", "host", "kern", "net",
                            "scenario", "obs", "report", "util", "sweep"}) {
    const auto it = self.find(layer);
    m[std::string(layer) + ".self_ms"] = it == self.end() ? 0.0 : it->second;
  }
  out.failed = std::min(out.failed, out.attempted);
  return out;
}

}  // namespace selfperf
