// One untraced workload run (--trace 0): set-ups, warm-up, timed passes
// and the output-digest check that decides correctness.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace selfperf {

// Set-up samples before the warm-up pass; one more precedes every timed
// pass. Each sample runs setup() at least kSetupsPerSample times and for at
// least kSetupSampleSec, right after a reference sample, and keeps the mean
// set-up time normalised by the reference time (reference.hpp).
inline constexpr int kSetups = 5;
inline constexpr int kSetupsPerSample = 5;
inline constexpr double kSetupSampleSec = 0.02;

struct WorkloadRun {
  MetricValues metrics;  // the end-to-end catalog
  MetricValues info;     // workload-specific figures, printed only
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::size_t passes = 0;
  std::string digest;    // the warm-up pass's output digest
};

// The figures a workload's passes support, each call taken at the median
// over the passes of its normalised time, its host time divided by the
// reference sample run just before it (see README.md, "Reading the
// numbers"): pass_s,
// sim_s_per_wall_s and cells_per_s always; pkt_segments_per_s,
// cached_cells_per_s, record_mb_per_s and paper_err_pct where the workload
// produces them. All passes must have made the same calls.
MetricValues workload_figures(const std::vector<PassStats>& passes);

// Takes kSetups set-up samples, makes one untimed warm-up pass, then runs
// passes until `seconds` have elapsed (always at least one), each after one
// more set-up sample. setup_s is the median of the samples; peak_rss_mb
// is read after the first timed pass; the other end-to-end metrics come
// from workload_figures(). Every pass's
// digest must equal the warm-up's, and the digest recorded in `book` for
// `seed` when there is one; otherwise every operation counts as failed.
// Prints a summary line to stdout. Throws std::invalid_argument for an
// unknown workload.
WorkloadRun run_workload(Context& ctx, const std::string& name, unsigned long long seed,
                         double seconds, const DigestBook& book);

// Peak resident set of this process image, in MB, since the last
// reset_peak_rss(). run_workload() resets it first, so in `--workload all`
// each workload reports its own peak.
double peak_rss_mb();
// Throws std::runtime_error when the kernel refuses the reset.
void reset_peak_rss();

}  // namespace selfperf
