// bench_report.h — machine-readable timing reports.
//
// Benches print human-readable tables to stdout; CI wants numbers it can
// diff against a checked-in baseline without parsing those tables. A
// producer (a bench driver, or a replay run's timing log) appends
// scenarios (name + median/p95 ms + counters) to a BenchReport and writes
// one flat JSON file (BENCH_render.json, BENCH_query.json, ...) that
// scripts/perf_smoke.py consumes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace svq::util {

/// Median of a sample set (copies; sample counts are small).
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

/// p95 by nearest-rank (matches what a human reads off a sorted column).
inline double p95(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank =
      (samples.size() * 95 + 99) / 100;  // ceil(n * 0.95)
  return samples[rank == 0 ? 0 : rank - 1];
}

struct BenchScenario {
  std::string name;
  double medianMs = 0.0;
  double p95Ms = 0.0;
  /// Free-form numeric facts: metrics counters, byte totals, ratios.
  std::map<std::string, double> counters;
};

class BenchReport {
 public:
  /// Scenario from raw per-iteration timings.
  BenchScenario& add(const std::string& name,
                     const std::vector<double>& samplesMs) {
    BenchScenario s;
    s.name = name;
    s.medianMs = median(samplesMs);
    s.p95Ms = p95(samplesMs);
    scenarios_.push_back(std::move(s));
    return scenarios_.back();
  }

  /// Counter-only scenario (byte totals, ratios — no timing).
  BenchScenario& add(const std::string& name) {
    BenchScenario s;
    s.name = name;
    scenarios_.push_back(std::move(s));
    return scenarios_.back();
  }

  /// Writes the report as JSON. Returns false (and says so on stderr)
  /// when the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"scenarios\": [\n");
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      const BenchScenario& s = scenarios_[i];
      std::fprintf(f,
                   "    {\n      \"name\": \"%s\",\n"
                   "      \"median_ms\": %.6f,\n"
                   "      \"p95_ms\": %.6f,\n"
                   "      \"counters\": {",
                   s.name.c_str(), s.medianMs, s.p95Ms);
      std::size_t k = 0;
      for (const auto& [key, value] : s.counters) {
        std::fprintf(f, "%s\n        \"%s\": %.6f", k++ ? "," : "",
                     key.c_str(), value);
      }
      std::fprintf(f, "%s}\n    }%s\n", s.counters.empty() ? "" : "\n      ",
                   i + 1 < scenarios_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

  const std::vector<BenchScenario>& scenarios() const { return scenarios_; }

 private:
  std::vector<BenchScenario> scenarios_;
};

}  // namespace svq::util
