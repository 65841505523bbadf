// dtnsim self-performance benchmark.
//
//   selfperf --workload NAME --seed N --seconds S --trace 0|1
//            --root DIR --work-dir DIR [--describe TEXT] [--digests FILE]
//            [--record-digests]
//
// NAME is fluid_lan | wan_sweep | pkt_lan | observed_run, or `all` to run
// the four in one process. With --trace 0 the run sets the workload up
// several times (setup_s is the median), makes one untimed warm-up pass,
// then runs closed-loop passes for S seconds and prints the end-to-end
// metrics. With --trace 1 it runs the traced suite (layers.hpp), prints the
// per-layer metrics and writes the spans to WORK-DIR/trace-seed<N>.json.
// Either way the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Every pass's output digest must equal the warm-up pass's, and the digest
// recorded in --digests for this seed when there is one; a mismatch fails
// every operation of the workload and the exit code is 1.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "layers.hpp"
#include "measure.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace selfperf;
using Clock = std::chrono::steady_clock;

namespace {

struct Args {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string root = ".";
  std::string work_dir;
  std::string describe = "unknown";
  std::string digests;
  bool record_digests = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "selfperf: %s\n"
               "usage: selfperf --workload fluid_lan|wan_sweep|pkt_lan|observed_run|all\n"
               "                --seed N --seconds S --trace 0|1 --root DIR --work-dir DIR\n"
               "                [--describe TEXT] [--digests FILE] [--record-digests]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") a.workload = value();
      else if (flag == "--seed") a.seed = std::stoull(value());
      else if (flag == "--seconds") a.seconds = std::stod(value());
      else if (flag == "--trace") a.trace = std::stoi(value());
      else if (flag == "--root") a.root = value();
      else if (flag == "--work-dir") a.work_dir = value();
      else if (flag == "--describe") a.describe = value();
      else if (flag == "--digests") a.digests = value();
      else if (flag == "--record-digests") a.record_digests = true;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.work_dir.empty()) usage("--work-dir is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

const char* unit_of(const std::string& name) {
  for (const auto& d : end_to_end_metrics()) {
    if (name == d.name) return d.unit;
  }
  for (const auto& d : per_layer_metrics()) {
    if (name == d.name) return d.unit;
  }
  if (name == "cells_per_s" || name == "cached_cells_per_s") return "cells/s";
  if (name == "pkt_segments_per_s") return "segments/s";
  if (name == "record_mb_per_s") return "MB/s";
  if (name == "failed_frac") return "ratio";
  if (name == "paper_err_pct") return "%";
  return "";
}

void print_values(const std::string& prefix, const MetricValues& values) {
  for (const auto& [name, value] : values) {
    std::printf("  %-36s %.9g %s\n", (prefix + name).c_str(), value, unit_of(name));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Provenance prov = Provenance::current(args.describe);
  if (!prov.optimized) {
    std::fprintf(stderr,
                 "selfperf: refusing to time a non-optimised build (%s); rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 prov.build_type.c_str());
    return 3;
  }

  Context ctx;
  ctx.root = args.root;
  ctx.work_dir = (fs::path(args.work_dir) / ("run-" + std::to_string(getpid()))).string();
  int code = 0;
  try {
    if (!fs::is_directory(fs::path(ctx.root) / "scenarios")) {
      throw std::runtime_error("no scenarios/ under --root " + ctx.root);
    }
    fs::create_directories(ctx.work_dir);
    DigestBook book = args.digests.empty() ? DigestBook{} : DigestBook::load(args.digests);
    std::printf("provenance %s\n", prov.to_json().dump().c_str());

    std::string line;
    bool correct = true;
    if (args.trace == 1) {
      Tracer tr(true);
      const TracedOutcome t = run_traced(ctx, args.seed, book, tr);
      std::printf("selfperf traced run seed=%llu spans=%zu ops=%zu failed=%zu\n", args.seed,
                  tr.spans().size(), t.attempted, t.failed);
      print_values("", t.metrics);
      const std::string trace_out =
          (fs::path(args.work_dir) / ("trace-seed" + std::to_string(args.seed) + ".json"))
              .string();
      if (!tr.write_chrome_trace(trace_out)) throw std::runtime_error("cannot write " + trace_out);
      std::printf("trace written to %s\n", trace_out.c_str());
      if (args.record_digests) {
        for (const auto& [wl, hex] : t.digests) book.set(args.seed, wl, hex);
      }
      correct = t.correct;
      line = result_line(t.correct, t.attempted, t.failed, per_layer_metrics(), t.metrics);
    } else {
      const std::vector<std::string> names =
          args.workload == "all" ? workload_names() : std::vector<std::string>{args.workload};
      std::vector<MetricDef> catalog;
      std::vector<std::string> keep;  // backing storage for combined names
      MetricValues combined;
      std::size_t attempted = 0, failed = 0;
      for (const auto& name : names) {
        const WorkloadRun r = run_workload(ctx, name, args.seed, args.seconds, book);
        print_values(names.size() > 1 ? name + "." : "", r.metrics);
        print_values(names.size() > 1 ? name + "." : "", r.info);
        if (args.record_digests) book.set(args.seed, name, r.digest);
        attempted += r.attempted;
        failed += r.failed;
        correct = correct && r.correct;
        for (const auto& [k, v] : r.metrics) combined[names.size() > 1 ? name + "." + k : k] = v;
      }
      if (names.size() > 1) {
        keep.reserve(combined.size());
        for (const auto& [k, v] : combined) {
          keep.push_back(k);
          catalog.push_back({keep.back().c_str(), unit_of(k.substr(k.find('.') + 1)), ""});
        }
      } else {
        catalog = end_to_end_metrics();
      }
      line = result_line(correct, attempted, failed, catalog, combined);
    }
    if (args.record_digests) {
      if (!correct) throw std::runtime_error("refusing to record digests from a failed run");
      if (args.digests.empty() || !book.save(args.digests)) {
        throw std::runtime_error("cannot record digests (need a writable --digests FILE)");
      }
    }
    std::printf("%s\n", line.c_str());
    code = correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selfperf: %s\n", e.what());
    code = 2;
  }
  std::error_code ec;
  fs::remove_all(ctx.work_dir, ec);
  return code;
}
