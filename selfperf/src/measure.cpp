#include "measure.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "reference.hpp"
#include "stats.hpp"

namespace selfperf {
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

// VmHWM rather than getrusage: ru_maxrss survives execve, so a benchmark
// launched from Python would report Python's pages at fork time.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// Writing 5 to clear_refs sets VmHWM back to the current resident set.
// Heap pages an earlier workload freed are handed back first, so they do
// not count against the next one.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM through /proc/self/clear_refs");
}

MetricValues workload_figures(const std::vector<PassStats>& passes) {
  MetricValues f;
  const PassStats& first = passes.front();
  // Per call, the median over the passes of its normalised time.
  auto per_call = [&](std::size_t k, auto&& host_s) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(normalised(host_s(p, k), p.op_ref_s[k]));
    return median(std::move(v));
  };
  double wall = 0.0, sim_wall = 0.0, other_wall = 0.0;
  for (std::size_t k = 0; k < first.op_wall_s.size(); ++k) {
    wall += per_call(k, [](const PassStats& p, std::size_t i) { return p.op_wall_s[i]; });
    sim_wall += per_call(k, [](const PassStats& p, std::size_t i) { return p.op_sim_wall_s[i]; });
    other_wall += per_call(k, [](const PassStats& p, std::size_t i) {
      return p.op_wall_s[i] - p.op_sim_wall_s[i];
    });
  }
  f["pass_s"] = wall;
  f["sim_s_per_wall_s"] = first.sim_s / sim_wall;
  f["cells_per_s"] = first.cells / sim_wall;
  if (first.segments > 0) f["pkt_segments_per_s"] = first.segments / sim_wall;
  if (first.cached_cells > 0) f["cached_cells_per_s"] = first.cached_cells / other_wall;
  if (first.record_bytes > 0) f["record_mb_per_s"] = first.record_bytes / other_wall / 1e6;
  if (first.paper_err_pct > 0) f["paper_err_pct"] = first.paper_err_pct;
  return f;
}

WorkloadRun run_workload(Context& ctx, const std::string& name, unsigned long long seed,
                         double seconds, const DigestBook& book) {
  WorkloadRun out;
  auto wl = make_workload(name, ctx);
  if (!wl) throw std::invalid_argument("unknown workload " + name);
  reset_peak_rss();  // peak_rss_mb is this workload's, not an earlier one's

  // A set-up sample is one reference sample followed by setup() repeated
  // back to back, at least kSetupsPerSample times and for at least
  // kSetupSampleSec; it keeps the mean set-up time, normalised by the
  // reference time, like a pass's calls.
  std::vector<double> setups;
  auto timed_setup = [&] {
    const double ref = reference_sample_s();
    int n = 0;
    const auto t0 = Clock::now();
    while (n < kSetupsPerSample || seconds_since(t0) < kSetupSampleSec) {
      wl->setup(seed);
      ++n;
    }
    setups.push_back(normalised(seconds_since(t0) / n, ref));
  };
  for (int k = 0; k < kSetups; ++k) timed_setup();

  Tracer off(false);
  const PassStats warm = wl->pass(off);
  out.digest = warm.digest;
  std::vector<PassStats> passes;
  const auto t0 = Clock::now();
  double peak_mb = 0.0;
  while (passes.empty() || seconds_since(t0) < seconds) {
    timed_setup();  // spreads set-up samples across the run, like the calls
    passes.push_back(wl->pass(off));
    // Heap fragmentation lets the high-water mark creep up with every pass
    // the run has time for, so it is read after a fixed amount of work:
    // the set-ups, the warm-up and the first timed pass.
    if (passes.size() == 1) peak_mb = peak_rss_mb();
  }
  out.passes = passes.size();

  bool digests_agree = warm.failed == 0;
  for (const auto& p : passes) {
    out.attempted += p.ops;
    out.failed += p.failed;
    digests_agree = digests_agree && p.digest == warm.digest;
  }
  const std::string expected = book.expected(seed, name);
  if (!expected.empty() && expected != warm.digest) {
    std::fprintf(stderr, "selfperf: %s seed %llu: digest %s, recorded %s\n", name.c_str(),
                 seed, warm.digest.c_str(), expected.c_str());
    digests_agree = false;
  }
  if (!digests_agree) out.failed = out.attempted;  // every output is suspect
  out.correct = out.failed == 0;

  MetricValues f = workload_figures(passes);
  out.metrics["setup_s"] = median(setups);
  out.metrics["pass_s"] = f["pass_s"];
  out.metrics["sim_s_per_wall_s"] = f["sim_s_per_wall_s"];
  out.metrics["peak_rss_mb"] = peak_mb;
  f.erase("pass_s");
  f.erase("sim_s_per_wall_s");
  out.info = std::move(f);
  out.info["failed_frac"] = static_cast<double>(out.failed) /
                            static_cast<double>(std::max<std::size_t>(out.attempted, 1));

  std::vector<double> pass_wall, refs;
  for (const auto& p : passes) {
    pass_wall.push_back(p.wall_s);
    refs.insert(refs.end(), p.op_ref_s.begin(), p.op_ref_s.end());
  }
  const Quartiles q = quartiles(pass_wall);
  const Quartiles r = quartiles(refs);
  std::printf("selfperf workload=%s seed=%llu passes=%zu ops=%zu failed=%zu digest=%s%s\n",
              name.c_str(), seed, passes.size(), out.attempted, out.failed,
              warm.digest.c_str(),
              expected.empty() ? " (no recorded digest for this seed)"
              : digests_agree  ? " (matches recorded)"
                               : " (MISMATCH)");
  std::printf("  whole-pass wall time over %zu passes: q1 %.6g  median %.6g  q3 %.6g s\n",
              passes.size(), q.q1, q.q2, q.q3);
  std::printf("  reference kernel over %zu samples: q1 %.6g  median %.6g  q3 %.6g s"
              " (nominal %.6g s)\n",
              refs.size(), r.q1, r.q2, r.q3, kReferenceS);
  return out;
}

}  // namespace selfperf
