#include "dtnsim/tcp/rtt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dtnsim::tcp {

void RttEstimator::add_sample(double rtt_sec) {
  if (rtt_sec <= 0) return;
  min_rtt_ = std::min(min_rtt_, rtt_sec);
  if (!has_sample_) {
    srtt_ = rtt_sec;
    rttvar_ = rtt_sec / 2.0;
    has_sample_ = true;
    return;
  }
  // Fixed point of a constant RTT: srtt_ reproduces itself and rttvar_ has
  // decayed to 0, denorm_min or 2*denorm_min, which x0.75 rounds back to
  // themselves. The update below is then an exact no-op; skipping it avoids
  // subnormal arithmetic, which the CPU runs on a slow microcode path.
  constexpr double kRttvarFloor = 2.0 * std::numeric_limits<double>::denorm_min();
  if (rtt_sec == srtt_ && rttvar_ <= kRttvarFloor &&
      0.875 * srtt_ + 0.125 * rtt_sec == srtt_) {
    return;
  }
  const double err = std::fabs(srtt_ - rtt_sec);
  rttvar_ = 0.75 * rttvar_ + 0.25 * err;
  srtt_ = 0.875 * srtt_ + 0.125 * rtt_sec;
}

double RttEstimator::rto_sec() const {
  if (!has_sample_) return 1.0;
  return std::max(srtt_ + 4.0 * rttvar_, 0.2);
}

}  // namespace dtnsim::tcp
