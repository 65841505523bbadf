#include "digest.hpp"

#include <cinttypes>
#include <cstdio>

namespace selfperf {

void Digest::feed(std::string_view text) {
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;  // FNV-1a 64-bit prime
  }
}

void Digest::add(std::string_view key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  add(key, std::string_view(buf));
}

void Digest::add(std::string_view key, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  add(key, std::string_view(buf));
}

void Digest::add(std::string_view key, std::string_view value) {
  feed(key);
  feed("=");
  feed(value);
  feed("\n");
}

void Digest::add(std::string_view prefix, const dtnsim::harness::TestResult& r) {
  const std::string p(prefix);
  add(p + ".repeats", static_cast<std::uint64_t>(r.repeats));
  add(p + ".avg_gbps", r.avg_gbps);
  add(p + ".min_gbps", r.min_gbps);
  add(p + ".max_gbps", r.max_gbps);
  add(p + ".stdev_gbps", r.stdev_gbps);
  add(p + ".avg_retransmits", r.avg_retransmits);
  add(p + ".flow_min_gbps", r.flow_min_gbps);
  add(p + ".flow_max_gbps", r.flow_max_gbps);
  add(p + ".snd_cpu_pct", r.snd_cpu_pct);
  add(p + ".rcv_cpu_pct", r.rcv_cpu_pct);
  add(p + ".zc_fallback_ratio", r.zc_fallback_ratio);
  for (std::size_t i = 0; i < r.samples_gbps.size(); ++i) {
    add(p + ".sample" + std::to_string(i), r.samples_gbps[i]);
  }
}

void Digest::add(std::string_view prefix, const dtnsim::flow::PacketSimResult& r) {
  const std::string p(prefix);
  add(p + ".superpackets_sent", r.superpackets_sent);
  add(p + ".segments_sent", r.segments_sent);
  add(p + ".segments_dropped", r.segments_dropped);
  add(p + ".segments_lost_path", r.segments_lost_path);
  add(p + ".aggregates", r.aggregates);
  add(p + ".delivered_bytes", r.delivered_bytes);
  add(p + ".achieved_bps", r.achieved_bps);
  add(p + ".mean_aggregate_bytes", r.mean_aggregate_bytes);
  add(p + ".interdeparture_mean_ns", r.interdeparture_mean_ns);
  add(p + ".interdeparture_stddev_ns", r.interdeparture_stddev_ns);
  add(p + ".ring_peak", static_cast<std::uint64_t>(r.ring_peak));
}

void Digest::add(std::string_view prefix, const dtnsim::report::RunRecord& rec) {
  const std::string p(prefix);
  // The JSON emitters are bit-exact (parse == dump), so their text is a
  // full-precision canonical form of both blocks.
  add(p + ".summary", dtnsim::report::to_json(rec.summary).dump());
  add(p + ".analysis", dtnsim::report::to_json(rec.analysis).dump());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
  return buf;
}

}  // namespace selfperf
