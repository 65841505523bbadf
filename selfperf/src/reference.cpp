#include "reference.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <queue>
#include <vector>

namespace selfperf {
namespace {

using Clock = std::chrono::steady_clock;

volatile double g_reference_sink = 0.0;

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

// A 5,000-entry std::map (about 240 KB of nodes), then 12,000 rounds of
// erase-the-successor-of-a-random-key and insert-another.
double map_churn() {
  std::map<std::uint64_t, std::uint64_t> m;
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < 5000; ++i) m[lcg(x) >> 40] = i;
  for (std::uint64_t i = 0; i < 12000; ++i) {
    auto it = m.lower_bound(lcg(x) >> 40);
    if (it != m.end()) m.erase(it);
    m[(x * 3) >> 40] = i;
  }
  return static_cast<double>(m.size());
}

// 100,000 events over 64 "flows" on a binary heap: each pops the earliest,
// updates the flow's window and rate, and schedules the flow's next event.
double event_loop() {
  struct Event {
    double at;
    int flow;
    bool operator<(const Event& o) const { return at > o.at; }
  };
  constexpr int kFlows = 64;
  std::priority_queue<Event> q;
  std::vector<double> cwnd(kFlows, 10.0), rate(kFlows, 1.0);
  for (int f = 0; f < kFlows; ++f) q.push({f * 1e-3, f});
  double acc = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const Event e = q.top();
    q.pop();
    const int f = e.flow;
    const double r = cwnd[f] / (1e-3 + 1e-4 * f);
    rate[f] = 0.9 * rate[f] + 0.1 * r;
    cwnd[f] = cwnd[f] < 1e4 ? cwnd[f] + 8.0 / cwnd[f] : cwnd[f] * 0.7;
    acc += std::sqrt(rate[f]);
    const std::vector<double> scratch(4 + (i & 7), r);
    acc += scratch.back();
    q.push({e.at + 1e-3 / (1.0 + rate[f]), f});
  }
  return acc;
}

}  // namespace

double reference_sample_s() {
  const auto t0 = Clock::now();
  const double a = map_churn();
  const double b = event_loop();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  g_reference_sink = g_reference_sink + a + b;
  return s;
}

}  // namespace selfperf
