// Wall-clock spans around the benchmark's calls into dtnsim's layers.
//
// The simulator itself carries no host-time hooks (its determinism lint
// bans wall clocks in library code), so the traced run records spans here,
// in the benchmark's own code, around each call it makes into a layer's
// public functions. A span's layer is the first dotted component of its
// name ("harness.run_test" -> harness, "bench.pass.fluid_lan" -> bench).
//
// Spans stay in memory while the run lasts and are written once, at exit,
// as a Chrome trace_event document through obs::TraceSink — the writer
// behind every --trace-out file, so the same viewers open it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace selfperf {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the Tracer was built
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;            // -1 for a root span
  int run = 0;                // groups the spans of one traced pass

  std::string layer() const { return name.substr(0, name.find('.')); }
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  // A disabled tracer records nothing; begin() returns -1 and end(-1) is a
  // no-op, so untraced passes pay one branch per call.
  explicit Tracer(bool enabled);

  void set_run(int run) { run_ = run; }

  // Opens a span whose parent is the innermost span still open.
  int begin(std::string name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (ms) of every closed span with this exact name, in order.
  std::vector<double> durations_ms(const std::string& name) const;
  // Sum over a layer's spans of (duration - time covered by direct child
  // spans), in ms. Children never outlive their parent (begin/end nest).
  std::map<std::string, double> self_ms_by_layer() const;

  // Chrome trace_event JSON; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  int run_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
};

// RAII span: begins in the constructor, ends in the destructor (also on
// the exception path, so a failed call still closes its span).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace selfperf
