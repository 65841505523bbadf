#include "stats.hpp"

#include <algorithm>

#include "dtnsim/report/analysis.hpp"

namespace selfperf {

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  return dtnsim::report::percentile(std::move(values), q);
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  if (n == 1) {
    out.q1 = out.q2 = out.q3 = values[0];
    return out;
  }
  // CPython: m = n + 1; for i in 1..3: j = i*m // 4 clamped into
  // [1, n-1], delta = i*m - j*4 (negative or > 4 past the clamp, which
  // extrapolates), then interpolate data[j-1] and data[j].
  const long m = n + 1;
  double q[3] = {};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) / 4.0;
  }
  out.q1 = q[0];
  out.q2 = q[1];
  out.q3 = q[2];
  return out;
}

}  // namespace selfperf
