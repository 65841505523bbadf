#include "spans.hpp"

#include "dtnsim/obs/trace.hpp"

namespace selfperf {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
                   .count();
  s.end_ns = s.start_ns;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
  // Spans close innermost-first; anything opened after `id` and still open
  // (an exception skipped its end) closes with it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
    spans_[static_cast<std::size_t>(top)].end_ns =
        spans_[static_cast<std::size_t>(id)].end_ns;
  }
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const auto& s : spans_) {
    const std::int64_t self =
        (s.end_ns - s.start_ns) - child_ns[static_cast<std::size_t>(s.id)];
    out[s.layer()] += static_cast<double>(self) * 1e-6;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  // Two events per span (B/E), and a ring large enough to keep them all.
  dtnsim::obs::TraceSink sink(2 * spans_.size() + 1);
  // B/E pairs must nest per track; emit in time order by walking begins
  // and ends as a merged sequence (spans are stored in begin order).
  std::vector<const Span*> open;
  auto close_until = [&](std::int64_t t) {
    while (!open.empty() && open.back()->end_ns <= t) {
      const Span* s = open.back();
      sink.end(s->name, s->layer(), s->end_ns, s->run);
      open.pop_back();
    }
  };
  for (const auto& s : spans_) {
    close_until(s.start_ns);
    while (!open.empty() && open.back()->id != s.parent) {
      sink.end(open.back()->name, open.back()->layer(), open.back()->end_ns,
               open.back()->run);
      open.pop_back();
    }
    sink.begin(s.name, s.layer(), s.start_ns, s.run,
               {{"span", s.id}, {"parent", s.parent}, {"run", s.run}});
    open.push_back(&s);
  }
  close_until(INT64_MAX);
  return sink.write_file(path, "dtnsim-selfperf");
}

}  // namespace selfperf
