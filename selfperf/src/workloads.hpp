// The benchmark's four workloads.
//
// Each workload builds its inputs from the benchmark seed in setup() and
// then runs closed-loop passes over them: every call starts when the
// previous one returns, on the calling thread, except the wan_sweep
// campaign, which runs on dtnsim's own 2-worker pool. The simulator only
// ever sees the generated specs; the seed reaches it as each spec's (or
// grid's) base_seed.
//
//   fluid_lan     the fluid round loop (flow/sim/cpu/host/net per tick)
//   wan_sweep     per-cell campaign overhead, cold cache then warm cache
//   pkt_lan       the packet engine's per-segment event path
//   observed_run  recorded runs under every shipped scenario timeline
//
// README.md in this directory records why each was chosen and what each
// layer metric should move.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/harness/runner.hpp"
#include "dtnsim/sweep/campaign.hpp"
#include "spans.hpp"

namespace selfperf {

// Shared by every workload of one benchmark process.
struct Context {
  std::string root;      // checkout root: scenarios/*.json live here
  std::string work_dir;  // scratch space for caches and records
  // Fault injection for the self-tests: the operation with this sequence
  // number (counted across the process, from 0) throws. -1 = never.
  long fail_at = -1;
  long op_seq = 0;
};

// What one pass did. Times are host (wall) seconds unless named sim_.
struct PassStats {
  double wall_s = 0.0;      // the whole pass, as the user waits for it
  double sim_s = 0.0;       // simulated seconds produced
  double sim_wall_s = 0.0;  // host seconds inside the simulating calls
  double cells = 0.0;       // specs / grid cells / packet configs simulated
  std::size_t ops = 0;      // operations attempted
  std::size_t failed = 0;   // operations that threw or mis-answered
  std::string digest;       // hex digest of every simulated statistic
  // Per call, in pass order: host seconds of the whole call, of the
  // simulating part of it (0 for a call that simulates nothing), and of the
  // reference kernel run just before it (reference.hpp).
  std::vector<double> op_wall_s;
  std::vector<double> op_sim_wall_s;
  std::vector<double> op_ref_s;

  // Workload-specific figures (0 where a workload has none).
  // The calls' non-simulating time is the warm passes (wan_sweep) and the
  // record write + load + analyze (observed_run).
  double segments = 0.0;       // pkt_lan: wire segments simulated
  double cached_cells = 0.0;   // wan_sweep: cells served from the cache
  double record_bytes = 0.0;   // observed_run: RunRecord bytes written
  double paper_err_pct = 0.0;  // fluid_lan: Table I error vs the paper
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  // Build the inputs from `seed`. May run more than once (setup_s is the
  // median of several set-ups); each call replaces the previous inputs.
  virtual void setup(std::uint64_t seed) = 0;
  // One closed-loop pass over the inputs. Spans go to `tr` when enabled.
  virtual PassStats pass(Tracer& tr) = 0;
};

// ---- the four workloads ---------------------------------------------------
// Declared here (not hidden behind make_workload) because the traced run
// re-reads their inputs and last results to make its extra, counted calls.

class FluidLan : public Workload {
 public:
  explicit FluidLan(Context& ctx) : ctx_(ctx) {}

  static constexpr double kDurationSec = 10.0;
  static constexpr int kRepeats = 2;

  const char* name() const override { return "fluid_lan"; }
  void setup(std::uint64_t seed) override;
  PassStats pass(Tracer& tr) override;

  const std::vector<dtnsim::harness::TestSpec>& specs() const { return specs_; }

 private:
  Context& ctx_;
  std::vector<dtnsim::harness::TestSpec> specs_;
  std::vector<std::size_t> table1_;  // indices of the Table I cells
};

class WanSweep : public Workload {
 public:
  explicit WanSweep(Context& ctx) : ctx_(ctx) {}

  static constexpr int kJobs = 2;
  // Warm passes per cold pass: a warm campaign takes ~1/20 of a cold one,
  // so five of them give the cache-read path a fifth of the pass. The five
  // make one call, long enough to time next to a reference sample.
  static constexpr int kWarmPasses = 5;

  // The 144-cell grid runs as one campaign per (kernel, zerocopy) pair, 24
  // cells each, the way a figure's campaign is re-run per kernel image.
  // Smaller calls sit closer in time to the reference sample that
  // normalises them (README.md).
  struct Part {
    dtnsim::sweep::GridSpec grid;
    std::vector<dtnsim::sweep::Cell> cells;
    dtnsim::sweep::CampaignReport cold;  // from the latest pass
  };

  const char* name() const override { return "wan_sweep"; }
  void setup(std::uint64_t seed) override;
  PassStats pass(Tracer& tr) override;

  const std::vector<Part>& parts() const { return parts_; }
  std::size_t cell_count() const;

 private:
  Context& ctx_;
  std::vector<Part> parts_;
  std::string cache_dir_;
};

class PktLan : public Workload {
 public:
  explicit PktLan(Context& ctx) : ctx_(ctx) {}

  struct Case {
    std::string cls;  // window_bound | paced | ring_overrun | sender_bound
    dtnsim::flow::PacketSimConfig cfg;
  };
  // sender_bound runs at kSenderBoundMs and at twice that; wall time on
  // the seed grows ~4x between them (the try_send chain storm, see
  // README.md), so the other classes' horizons are sized to keep it near
  // half of the pass.
  static constexpr double kSenderBoundMs = 10.0;

  const char* name() const override { return "pkt_lan"; }
  void setup(std::uint64_t seed) override;
  PassStats pass(Tracer& tr) override;

  const std::vector<Case>& cases() const { return cases_; }
  // Results of the latest pass, one per case.
  const std::vector<dtnsim::flow::PacketSimResult>& last() const { return last_; }

 private:
  Context& ctx_;
  std::vector<Case> cases_;
  std::vector<dtnsim::flow::PacketSimResult> last_;
};

class ObservedRun : public Workload {
 public:
  explicit ObservedRun(Context& ctx) : ctx_(ctx) {}

  struct Outcome {
    double write_wall_s = 0.0;
    double load_wall_s = 0.0;
    double analyze_wall_s = 0.0;
    double record_bytes = 0.0;
    // Only the record is kept: a TestResult would also pin the run's
    // trace ring, whose size varies with the seed and would make
    // peak_rss_mb track the seed instead of the simulator.
    std::shared_ptr<const dtnsim::report::RunRecord> record;
  };

  const char* name() const override { return "observed_run"; }
  void setup(std::uint64_t seed) override;
  PassStats pass(Tracer& tr) override;

  const std::vector<dtnsim::harness::TestSpec>& specs() const { return specs_; }
  // The latest pass, one per spec.
  const std::vector<Outcome>& last() const { return last_; }

 private:
  Context& ctx_;
  std::vector<dtnsim::harness::TestSpec> specs_;
  std::vector<Outcome> last_;
};

const std::vector<std::string>& workload_names();

// nullptr for an unknown name. `ctx` must outlive the workload.
std::unique_ptr<Workload> make_workload(const std::string& name, Context& ctx);

// A well-mixed 64-bit seed for one named input, derived from the
// benchmark seed (splitmix64 over the seed and the name's FNV-1a hash).
std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag);

}  // namespace selfperf
