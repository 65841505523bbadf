// Order statistics for the benchmark's reports.
//
// percentile() is report::percentile (linear interpolation between order
// statistics); quartiles() follows Python's statistics.quantiles(n=4)
// default ("exclusive") method, which is what spread.py uses and what the
// bounds in BENCHMARK.json are set against, so a spread printed by the
// binary and one computed from its JSON lines agree digit for digit.
#pragma once

#include <vector>

namespace selfperf {

double median(std::vector<double> values);

// Linear-interpolated percentile at q in [0, 1]; 0 on empty input.
double percentile(std::vector<double> values, double q);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  // (q3 - q1) / q2, the spread BENCHMARK.json bounds; 0 when q2 == 0.
  double spread() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

// statistics.quantiles(values, n=4) with the default exclusive method.
// Needs at least two values; one value yields q1 == q2 == q3 == that value.
Quartiles quartiles(std::vector<double> values);

}  // namespace selfperf
