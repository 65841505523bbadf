// The benchmark's own tests. Run them with `python3 selfperf/run.py
// --selftest` from the root of a checkout; exit code 0 when all pass.
//
//   - metric names follow BENCHMARK.json's grammar, and BENCHMARK.json lists
//     exactly the catalog the binary prints, with the same units;
//   - percentile and quartile helpers match hand-computed fixtures (the
//     quartiles are Python's statistics.quantiles(n=4) values);
//   - span self time subtracts child spans, and the trace file parses;
//   - a workload's output digest is stable across two passes, and any
//     change to one statistic changes it;
//   - an injected failing operation raises failed_frac and clears correct;
//   - reset_peak_rss() drops the peak left by memory already freed;
//   - workload_figures() takes each call at the median over the passes of
//     its time divided by the reference sample next to it.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "digest.hpp"
#include "measure.hpp"
#include "reference.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace selfperf;

namespace {

int g_failures = 0;

// BENCHMARK.json's metric-name grammar: `[A-Za-z0-9_.-]+`, starting with a
// letter or digit, at most 64 characters.
bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void check_near(double got, double want, const std::string& what) {
  check(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
        what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

dtnsim::Json read_json(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  auto j = dtnsim::Json::parse(ss.str());
  if (!j) throw std::runtime_error("cannot parse " + path);
  return *j;
}

void test_metric_names(const std::string& benchmark_json) {
  std::set<std::string> seen;
  for (const auto* catalog : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& d : *catalog) {
      check(valid_metric_name(d.name), std::string("metric name grammar: ") + d.name);
      check(seen.insert(d.name).second, std::string("metric name used twice: ") + d.name);
    }
  }
  check(!valid_metric_name(""), "empty name rejected");
  check(!valid_metric_name("_x"), "leading underscore rejected");
  check(!valid_metric_name("a b"), "space rejected");
  check(!valid_metric_name(std::string(65, 'a')), "65-char name rejected");
  check(valid_metric_name("sim.queue_ops_per_s.64k"), "dotted name accepted");

  // BENCHMARK.json lists exactly the catalog, with the catalog's units.
  const dtnsim::Json bench = read_json(benchmark_json);
  auto same = [&](const char* key, const std::vector<MetricDef>& catalog) {
    const dtnsim::Json* list = bench.find(key);
    check(list && list->size() == catalog.size(), std::string(key) + ": entry count");
    if (!list) return;
    for (std::size_t i = 0; i < list->size(); ++i) {
      const std::string name = list->at(i)->string_at("name", "");
      bool found = false;
      for (const auto& d : catalog) {
        if (name != d.name) continue;
        found = true;
        check(list->at(i)->string_at("unit", "") == d.unit, key + (": unit of " + name));
        check(list->at(i)->string_at("better", "") == d.better, key + (": better of " + name));
      }
      check(found, std::string(key) + ": not in the catalog: " + name);
      if (const dtnsim::Json* b = list->at(i)->find("bound")) {
        check(b->number_or(1.0) > 0.0 && b->number_or(1.0) <= 0.25, "bound in (0, 0.25]: " + name);
      }
    }
  };
  same("end_to_end", end_to_end_metrics());
  same("per_layer", per_layer_metrics());
  const dtnsim::Json* wls = bench.find("workloads");
  check(wls && wls->size() == workload_names().size(), "workload count");
  for (std::size_t i = 0; wls && i < wls->size(); ++i) {
    check(wls->at(i)->string_at("name", "") == workload_names()[i], "workload order/name");
  }
}

void test_order_statistics() {
  check_near(median({3.0, 1.0, 2.0}), 2.0, "median odd");
  check_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median even");
  check_near(percentile({10.0, 20.0, 30.0, 40.0, 50.0}, 0.9), 46.0, "p90 linear");
  check_near(percentile({10.0, 20.0, 30.0, 40.0, 50.0}, 0.0), 10.0, "p0");
  check_near(percentile({10.0, 20.0, 30.0, 40.0, 50.0}, 1.0), 50.0, "p100");
  check_near(percentile({}, 0.5), 0.0, "percentile of nothing");
  // statistics.quantiles(data, n=4) fixtures.
  struct Fixture {
    std::vector<double> data;
    double q1, q2, q3;
  };
  const Fixture fixtures[] = {
      {{1, 2}, 0.75, 1.5, 2.25},
      {{1, 2, 3}, 1.0, 2.0, 3.0},
      {{3, 1, 2, 4}, 1.25, 2.5, 3.75},
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{2.5, 0.5, 9, 4, 4}, 1.5, 4.0, 6.5},
  };
  for (const auto& f : fixtures) {
    const Quartiles q = quartiles(f.data);
    const std::string n = "quartiles of " + std::to_string(f.data.size()) + " values";
    check_near(q.q1, f.q1, n + " q1");
    check_near(q.q2, f.q2, n + " q2");
    check_near(q.q3, f.q3, n + " q3");
  }
  check_near(quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread(), (8.25 - 2.75) / 5.5,
             "spread");
}

void test_spans(const std::string& work_dir) {
  Tracer tr(true);
  const int a = tr.begin("harness.outer");
  const int b = tr.begin("flow.inner");
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  tr.end(b);
  tr.end(a);
  const auto& s = tr.spans();
  check(s.size() == 2 && s[1].parent == a && s[0].parent == -1, "span parent links");
  const auto self = tr.self_ms_by_layer();
  check_near(self.at("harness"), s[0].ms() - s[1].ms(), "parent self time excludes child");
  check_near(self.at("flow"), s[1].ms(), "leaf self time is its duration");

  Tracer off(false);
  check(off.begin("x.y") == -1 && off.spans().empty(), "disabled tracer records nothing");

  const std::string path = work_dir + "/selftest-trace.json";
  check(tr.write_chrome_trace(path), "trace written");
  const dtnsim::Json doc = read_json(path);
  const dtnsim::Json* events = doc.find("traceEvents");
  std::size_t be = 0;
  for (std::size_t i = 0; events && i < events->size(); ++i) {
    const std::string ph = events->at(i)->string_at("ph", "");
    if (ph == "B" || ph == "E") ++be;
  }
  check(be == 4, "trace holds one B/E pair per span");
  fs::remove(path);
}

void test_digest_and_failures(Context& ctx) {
  Digest d1, d2;
  d1.add("x", 0.1);
  d2.add("x", std::nextafter(0.1, 1.0));
  check(d1.hex() != d2.hex(), "one-ulp change moves the digest");
  check(d1.hex().size() == 16, "digest is 16 hex digits");

  // Stable across two passes of a real workload.
  PktLan pkt(ctx);
  pkt.setup(1);
  Tracer off(false);
  const PassStats p1 = pkt.pass(off);
  const PassStats p2 = pkt.pass(off);
  check(p1.failed == 0 && p2.failed == 0, "clean passes fail nothing");
  check(!p1.digest.empty() && p1.digest == p2.digest, "digest stable across passes");

  // A clean measured run reports failed_frac 0 ...
  const DigestBook none;
  WorkloadRun clean = run_workload(ctx, "pkt_lan", 1, 0.1, none);
  check(clean.correct && clean.info.at("failed_frac") == 0.0, "clean run: failed_frac 0");
  // ... and one injected failure raises it and clears correct (the failed
  // operation drops out of its pass's digest, so the whole run is suspect).
  ctx.fail_at = ctx.op_seq + 7;  // inside the first timed pass
  WorkloadRun bad = run_workload(ctx, "pkt_lan", 1, 0.1, none);
  ctx.fail_at = -1;
  check(!bad.correct && bad.failed > 0 && bad.info.at("failed_frac") > 0.0,
        "injected failure raises failed_frac");
  // A recorded digest that disagrees fails the run too.
  DigestBook wrong;
  wrong.set(1, "pkt_lan", "0000000000000000");
  WorkloadRun mismatched = run_workload(ctx, "pkt_lan", 1, 0.1, wrong);
  check(!mismatched.correct && mismatched.info.at("failed_frac") == 1.0,
        "recorded-digest mismatch fails every operation");
}

void test_peak_rss() {
  constexpr std::size_t kBytes = 64u << 20;
  {
    const std::unique_ptr<char[]> block(new char[kBytes]);
    std::memset(block.get(), 1, kBytes);  // touch every page
    asm volatile("" : : "r"(block.get()) : "memory");  // keep the stores
  }
  const double before = peak_rss_mb();
  reset_peak_rss();
  const double after = peak_rss_mb();
  check(before - after > 32.0, "reset_peak_rss forgets a freed 64 MB block");
}

void test_normalised_figures() {
  // Two calls over three passes; the host runs at nominal speed, then at
  // half speed (every time doubles, the reference too), then nominal with
  // a slow outlier on call 0. Call 0 simulates for its whole time; call 1
  // simulates for half of it.
  auto pass = [](double scale, double outlier) {
    PassStats p;
    p.sim_s = 30.0;
    p.cells = 2.0;
    p.op_wall_s = {0.10 * scale * outlier, 0.20 * scale};
    p.op_sim_wall_s = {0.10 * scale * outlier, 0.10 * scale};
    p.op_ref_s = {kReferenceS * scale, kReferenceS * scale};
    return p;
  };
  const MetricValues f = workload_figures({pass(1.0, 1.0), pass(2.0, 1.0), pass(1.0, 3.0)});
  check_near(f.at("pass_s"), 0.30, "normalised pass_s: median per call, slow host divided out");
  check_near(f.at("sim_s_per_wall_s"), 30.0 / 0.20, "normalised sim_s_per_wall_s");
  check_near(f.at("cells_per_s"), 2.0 / 0.20, "normalised cells_per_s");
  check_near(normalised(0.5, 2.0 * kReferenceS), 0.25, "normalised() divides out the reference");
  check(reference_sample_s() > 0.0, "reference kernel takes time");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".", work_dir, benchmark_json = "BENCHMARK.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--root") root = argv[i + 1];
    else if (flag == "--work-dir") work_dir = argv[i + 1];
    else if (flag == "--benchmark-json") benchmark_json = argv[i + 1];
  }
  if (work_dir.empty()) {
    std::fprintf(stderr, "selfperf_selftest: --work-dir is required\n");
    return 2;
  }
  Context ctx;
  ctx.root = root;
  ctx.work_dir = (fs::path(work_dir) / "selftest").string();
  fs::create_directories(ctx.work_dir);
  try {
    test_metric_names(benchmark_json);
    test_order_statistics();
    test_spans(ctx.work_dir);
    test_digest_and_failures(ctx);
    test_peak_rss();
    test_normalised_figures();
  } catch (const std::exception& e) {
    ++g_failures;
    std::printf("FAIL unexpected exception: %s\n", e.what());
  }
  fs::remove_all(ctx.work_dir);
  std::printf("selfperf selftest: %s (%d failure%s)\n", g_failures ? "FAILED" : "passed",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures ? 1 : 0;
}
