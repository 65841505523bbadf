#include "dtnsim/obs/probe.hpp"

#include <algorithm>
#include <fstream>

#include "dtnsim/util/csv.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::obs {

std::size_t SeriesTable::column_index(const std::string& name) const {
  const auto it = std::find(columns.begin(), columns.end(), name);
  return it == columns.end() ? static_cast<std::size_t>(-1)
                             : static_cast<std::size_t>(it - columns.begin());
}

std::vector<double> SeriesTable::column(const std::string& name) const {
  std::vector<double> out;
  const std::size_t idx = column_index(name);
  if (idx == static_cast<std::size_t>(-1)) return out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(row[idx]);
  return out;
}

double SeriesTable::max_of(const std::string& name) const {
  double best = 0.0;
  for (double v : column(name)) best = std::max(best, v);
  return best;
}

std::string SeriesTable::to_csv() const {
  CsvWriter csv(columns);
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (double v : row) cells.push_back(strfmt("%.6g", v));
    csv.add_row(cells);
  }
  return csv.str();
}

std::string SeriesTable::to_jsonl() const {
  std::string out;
  for (const auto& row : rows) {
    out += "{";
    for (std::size_t c = 0; c < columns.size() && c < row.size(); ++c) {
      if (c) out += ",";
      out += strfmt("\"%s\":%.6g", columns[c].c_str(), row[c]);
    }
    out += "}\n";
  }
  return out;
}

bool SeriesTable::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_csv();
  return static_cast<bool>(out);
}

std::string merged_series_csv(const std::vector<LabeledSeries>& series) {
  std::vector<std::string> headers{"test", "repeat"};
  for (const auto& s : series) {
    if (s.series && !s.series->columns.empty()) {
      headers.insert(headers.end(), s.series->columns.begin(), s.series->columns.end());
      break;
    }
  }
  CsvWriter csv(headers);
  for (const auto& s : series) {
    if (!s.series) continue;
    for (const auto& row : s.series->rows) {
      std::vector<std::string> cells{s.test, strfmt("%d", s.repeat)};
      for (double v : row) cells.push_back(strfmt("%.6g", v));
      csv.add_row(cells);
    }
  }
  return csv.str();
}

bool write_merged_series_csv(const std::string& path,
                             const std::vector<LabeledSeries>& series) {
  std::ofstream out(path);
  if (!out) return false;
  out << merged_series_csv(series);
  return static_cast<bool>(out);
}

FlowProbe::FlowProbe(Registry* registry, Nanos interval, TraceSink* trace)
    : registry_(registry), trace_(trace), interval_(std::max<Nanos>(interval, 1)) {}

void FlowProbe::sample(Nanos now) {
  if (pre_sample_) pre_sample_(now);
  if (table_.columns.empty()) {
    table_.columns.push_back("time_s");
    const auto names = registry_->column_names();
    table_.columns.insert(table_.columns.end(), names.begin(), names.end());
  } else if (registry_->column_names().size() + 1 > table_.columns.size()) {
    // The registry grew since the first sample (e.g. a second engine
    // registered its metrics into a shared Telemetry). Registration order is
    // append-only, so the existing columns are a prefix: extend the header
    // and zero-pad earlier rows to keep the table rectangular.
    const auto names = registry_->column_names();
    table_.columns.assign(names.begin(), names.end());
    table_.columns.insert(table_.columns.begin(), "time_s");
    for (auto& r : table_.rows) r.resize(table_.columns.size(), 0.0);
  }
  std::vector<double> row;
  row.reserve(table_.columns.size());
  row.push_back(units::to_seconds(now));
  const auto values = registry_->row();
  row.insert(row.end(), values.begin(), values.end());
  table_.rows.push_back(std::move(row));

  if (trace_) {
    const auto samples = registry_->snapshot();
    for (const auto& s : samples) {
      trace_->counter(s.desc->name, now, s.value);
    }
  }
  if (cross_check_) cross_check_(now);
}

void FlowProbe::arm(sim::Engine& engine, Nanos horizon,
                    std::function<void(Nanos)> pre_sample) {
  pre_sample_ = std::move(pre_sample);
  // Where a sample lands among coincident model events: see Engine::every.
  engine.every(interval_, horizon, [this, &engine] { sample(engine.now()); });
}

}  // namespace dtnsim::obs
