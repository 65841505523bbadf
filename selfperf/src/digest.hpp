// Output digest: a 64-bit FNV-1a hash over every simulated statistic a
// workload produced, written as "key=value" lines with values printed to
// full (%.17g) precision. Two runs agree on the digest exactly when they
// agree on every digit of every statistic, so the benchmark can prove that
// a speed-up left the simulated outputs untouched.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/harness/runner.hpp"
#include "dtnsim/report/record.hpp"

namespace selfperf {

class Digest {
 public:
  void add(std::string_view key, double value);
  void add(std::string_view key, std::uint64_t value);
  void add(std::string_view key, std::string_view value);

  // TestResult scalars and per-repeat samples.
  void add(std::string_view prefix, const dtnsim::harness::TestResult& r);
  // Every PacketSimResult field, the scenario log excluded (never attached).
  void add(std::string_view prefix, const dtnsim::flow::PacketSimResult& r);
  // A RunRecord's summary and derived analysis blocks.
  void add(std::string_view prefix, const dtnsim::report::RunRecord& rec);

  std::uint64_t value() const { return hash_; }
  std::string hex() const;  // 16 lowercase hex digits

 private:
  void feed(std::string_view text);
  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
};

}  // namespace selfperf
