// bench_common.h — shared fixtures for the experiment benchmarks.
//
// Every bench binary regenerates one paper artifact (see DESIGN.md's
// experiment index). Datasets are built once per binary and cached;
// all randomness is seeded so runs are reproducible.
#pragma once

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "traj/synth.h"
#include "util/bench_report.h"
#include "util/metrics.h"
#include "wall/wall.h"

namespace svq::bench {

/// The plain drivers' shared CLI surface: --smoke and --out=PATH.
/// Drivers with a downstream parser (bench_fig5_query hands leftover
/// args to benchmark::Initialize) collect them in `passthrough`.
struct BenchCliOptions {
  bool smoke = false;
  std::string out;
  std::vector<char*> passthrough;  ///< argv[0] + unrecognized args
};

/// Parses the shared flags; `defaultOut` seeds `out`. Without
/// `allowPassthrough`, an unknown argument prints usage and returns
/// nullopt (drivers exit 2).
inline std::optional<BenchCliOptions> parseBenchCli(
    int argc, char** argv, const std::string& defaultOut,
    bool allowPassthrough = false) {
  BenchCliOptions opt;
  opt.out = defaultOut;
  opt.passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      opt.out = argv[i] + 6;
    } else if (allowPassthrough) {
      opt.passthrough.push_back(argv[i]);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return std::nullopt;
    }
  }
  return opt;
}

/// Writes the JSON report and prints its path; returns false on write
/// failure (drivers fold it into their exit status).
inline bool writeReport(const util::BenchReport& report,
                        const std::string& path) {
  const bool ok = report.write(path);
  std::printf("report: %s\n", path.c_str());
  return ok;
}

/// Copies every global metric under `prefix` into a scenario's counters
/// (the perf_smoke.py-visible channel).
inline void attachCounters(util::BenchScenario& s, const std::string& prefix) {
  for (const auto& [name, value] :
       MetricsRegistry::global().snapshot(prefix)) {
    s.counters[name] = static_cast<double>(value);
  }
}

/// Cached synthetic dataset (one per (count, maxDuration) per binary).
inline const traj::TrajectoryDataset& dataset(std::size_t count,
                                              float maxDurationS = 180.0f) {
  static std::map<std::pair<std::size_t, int>, traj::TrajectoryDataset>
      cache;
  const auto key = std::make_pair(count, static_cast<int>(maxDurationS));
  auto it = cache.find(key);
  if (it == cache.end()) {
    traj::AntBehaviorParams params;
    params.maxDurationS = maxDurationS;
    traj::AntSimulator sim(params, 0x5C2012ULL + count);
    traj::DatasetSpec spec;
    spec.count = count;
    it = cache.emplace(key, sim.generate(spec)).first;
  }
  return it->second;
}

/// The paper's 6x2 wall region at full resolution (8196x1536).
inline wall::WallSpec paperWall() { return wall::cyberCommonsUsedRegion(); }

/// Same tile structure at reduced resolution, for per-iteration benches
/// where full-resolution rasterization would dominate the run time.
inline wall::WallSpec reducedWall(int tilePxW = 320, int tilePxH = 180) {
  wall::TileSpec tile;
  tile.pxW = tilePxW;
  tile.pxH = tilePxH;
  tile.activeWmm = 1150.0f;
  tile.activeHmm = 647.0f;
  return wall::WallSpec(tile, 6, 2);
}

}  // namespace svq::bench
