// The traced run (--trace 1): per-layer metrics.
//
// Whatever workload is named, the traced run measures every layer, because
// the per-layer catalog is one list: it runs each of the four workloads
// once untraced and once traced (the pair gives bench.trace_overhead_frac),
// then makes extra calls that the timed passes never make —
//   - each layer's public functions timed in tight loops (sim, cpu, host,
//     kern, net, scenario, util, sweep cache),
//   - one Telemetry-attached call per fluid spec and packet case, which
//     yields the deterministic work counts (rounds, segments, NAPI polls),
//   - a serial (jobs = 1) run of every wan_sweep cell, whose rows must equal
//     the 2-worker campaign's rows,
//   - the observed_run specs with recording off (obs.overhead_ratio).
// Every span lands in the Tracer, and per-layer self time comes from it.
#pragma once

#include <cstdint>

#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace selfperf {

struct TracedOutcome {
  MetricValues metrics;  // every per_layer_metrics() name
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Per workload: reference digest of the untraced pass, and whether the
  // traced pass (and the recorded digest, when one exists) agreed.
  std::map<std::string, std::string> digests;
  bool correct = true;
};

TracedOutcome run_traced(Context& ctx, std::uint64_t seed, const DigestBook& book,
                         Tracer& tr);

}  // namespace selfperf
