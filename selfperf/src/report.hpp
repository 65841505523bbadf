// Metric catalog, provenance and the result line.
//
// The catalog is the single list of metric names and units the binary
// emits; BENCHMARK.json at the repository root must list the same names
// with the same units (selftest checks both directions).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "dtnsim/util/json.hpp"

namespace selfperf {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "higher" | "lower"
};

// Printed, with tracing off, by every workload run.
const std::vector<MetricDef>& end_to_end_metrics();
// Printed by the traced run (--trace 1), whatever the workload.
const std::vector<MetricDef>& per_layer_metrics();

// Name -> value, filled by the run; units come from the catalog.
using MetricValues = std::map<std::string, double>;

struct Provenance {
  std::string compiler;
  std::string build_type;
  bool optimized = false;  // __OPTIMIZE__ and NDEBUG both set
  unsigned cores = 0;
  std::string describe;    // `git describe`, or a source-tree hash
  bool fixed_layout = false;  // address-space randomisation is off

  static Provenance current(std::string describe);
  dtnsim::Json to_json() const;
};

// The last line of standard output: exactly the keys correct, attempted,
// failed and metrics, where metrics maps each catalog name to
// {"value": v, "unit": u}. Throws std::logic_error when `values` misses a
// catalog metric or names one outside it.
std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<MetricDef>& catalog, const MetricValues& values);

// Recorded output digests: {"<seed>": {"<workload>": "<hex>"}}.
class DigestBook {
 public:
  // A missing file is an empty book; a malformed one throws.
  static DigestBook load(const std::string& path);
  // "" when no digest was recorded for this seed and workload.
  std::string expected(unsigned long long seed, const std::string& workload) const;
  void set(unsigned long long seed, const std::string& workload, const std::string& hex);
  bool save(const std::string& path) const;

 private:
  dtnsim::Json doc_ = dtnsim::Json::object();
};

}  // namespace selfperf
