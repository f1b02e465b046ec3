// frame_bench.cpp — input-to-wall-frame benchmark over the public API.
//
// One frame is one input handled end to end, in this order:
//   1. SessionService::apply (or SessionService::refine for refine steps),
//   2. SessionService::buildScene,
//   3. cluster::SceneDeltaEncoder::encode,
//   4. cluster::SceneReceiver::apply (full resync when a delta is refused),
//   5. render::CellRenderPipeline::render of the *receiver's* scene into
//      the tenant's persistent framebuffer, left eye, stereo parallax on.
// This is the path replay::Runner takes in delta mode, without faults.
//
// Clients run closed-loop: a tenant's next input is sent only after its
// previous frame completed. Inputs come from scripts generated from
// --seed before timing starts. Four workloads:
//
//   dab_432       one analyst, 36x12 cells on the 8196x1536 wall region,
//                 localized brush dabs at sparse arena spots + clears;
//   scrub_432     the same world driven by time-window drags, depth and
//                 time-scale sliders and occasional layout switches;
//   tenants_64    64 tenants in 16 behaviour variants on one service and
//                 one shared cell cache, 1920x360 wall, 4 client threads;
//   refine_store  a progressive session over a SOM-clustered shard store:
//                 brush, first anytime frame, refine steps to convergence.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: every public call is wrapped in a span
// (trace.h), per-layer metrics are derived from the spans and from the
// layers' own counters, and the spans are written as Chrome trace JSON.
//
// Correctness checks run outside the timed region on a fixed sample of
// frames and on every tenant's last frame; any mismatch is a failed input
// and the process exits non-zero. --self-check shows that every check
// fails against a deliberately wrong reference.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cluster/scene_serde.h"
#include "core/clusterquery.h"
#include "core/progressive.h"
#include "core/query.h"
#include "core/sessionservice.h"
#include "render/pipeline.h"
#include "render/sharedcache.h"
#include "trace.h"
#include "traj/shardstore.h"
#include "traj/synth.h"
#include "util/metrics.h"
#include "util/simd.h"
#include "util/threadpool.h"
#include "wall/wall.h"

#ifndef SVQ_BENCH_COMPILER
#define SVQ_BENCH_COMPILER "unknown"
#endif
#ifndef SVQ_BENCH_BUILD_TYPE
#define SVQ_BENCH_BUILD_TYPE "unknown"
#endif

namespace pb {
namespace {

using namespace svq;

// --- small utilities ---------------------------------------------------------

/// splitmix64: platform-independent, so a seed means the same script
/// everywhere (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  float range(double lo, double hi) {
    return static_cast<float>(lo + (hi - lo) * uniform());
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile (q in (0,1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double seconds(Ns ns) { return static_cast<double>(ns) / 1e9; }

/// Peak resident set (VmHWM) of this process in MB.
double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// (steal, total) jiffies of all CPUs from /proc/stat. Steal is time the
/// hypervisor ran something else on this VM's virtual CPUs; a run with a
/// high steal share measured a slower machine.
std::pair<double, double> cpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int i = 0; i < 8 && in; ++i) {
    double v = 0.0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

// --- workloads -----------------------------------------------------------------

enum class Workload { kDab432, kScrub432, kTenants64, kRefineStore };

struct WorkloadInfo {
  Workload id;
  const char* name;
};
constexpr WorkloadInfo kWorkloads[] = {
    {Workload::kDab432, "dab_432"},
    {Workload::kScrub432, "scrub_432"},
    {Workload::kTenants64, "tenants_64"},
    {Workload::kRefineStore, "refine_store"},
};

/// The world every workload's dataset is generated from (fixed: --seed
/// drives the input scripts, not the world).
constexpr std::uint64_t kDatasetSeed = 0x5C2012ULL;
/// Layout preset of the paper's 36x12 = 432-cell grid.
constexpr std::size_t kPreset432 = 2;
/// Per-pipeline cell cache: holds every cell of a 432-cell wall.
constexpr std::size_t kPipelineCacheBytes = 256ull << 20;
/// Uncertain shards one refine step resolves.
constexpr std::size_t kRefineShards = 4;

/// Everything a workload's size depends on. Fixed per workload (and per
/// --tiny, the self-check size); never derived from the machine.
struct Plan {
  Workload workload = Workload::kDab432;
  std::size_t trajectories = 500;
  wall::WallSpec wall;
  std::size_t tenants = 1;
  std::size_t variants = 1;
  unsigned clientThreads = 1;
  /// Worker threads of the render pool (the calling thread rasterizes
  /// too); 0 = serial pipelines. Also trains the SOM during set-up.
  unsigned renderWorkers = 3;
  std::size_t sharedCacheBytes = 64ull << 20;   ///< per context
  int setupReps = 3;
  /// Script inputs per tenant that form the deterministic counter prefix
  /// of the traced phase.
  std::size_t prefixInputs = 200;
  /// A correctness check runs on every checkEvery-th frame of a tenant
  /// (at most maxChecks per tenant per phase) and on its last frame.
  std::size_t checkEvery = 150;
  std::size_t maxChecks = 8;
  // Brush geometry.
  float dabRadiusCm = 3.0f;
  int maxDabHits = 16;  ///< displayed trajectories a dab spot may touch
  // refine_store.
  bool progressive = false;
  std::uint32_t shardCapacity = 64;
  std::size_t somDim = 6;
  std::size_t storeCacheBytes = 4ull << 20;
  std::size_t checkCycleEvery = 32;  ///< converged-estimates check cadence
};

wall::WallSpec reducedWall(int tilePxW, int tilePxH) {
  wall::TileSpec tile;
  tile.pxW = tilePxW;
  tile.pxH = tilePxH;
  tile.activeWmm = 1150.0f;
  tile.activeHmm = 647.0f;
  return wall::WallSpec(tile, 6, 2);
}

Plan makePlan(Workload w, bool tiny) {
  Plan p;
  p.workload = w;
  p.wall = tiny ? reducedWall(160, 90) : wall::cyberCommonsUsedRegion();
  switch (w) {
    case Workload::kDab432:
      // Room for the cold frame's cells plus every cell the counter
      // prefix rasterizes: no eviction there, whose order would depend on
      // which pool thread published a cell first.
      p.sharedCacheBytes = 256ull << 20;
      break;
    case Workload::kScrub432:
      p.prefixInputs = 24;
      p.checkEvery = 16;
      break;
    case Workload::kTenants64:
      p.wall = tiny ? reducedWall(160, 90) : reducedWall(320, 180);
      p.tenants = 64;
      p.variants = 16;
      p.clientThreads = 4;
      p.renderWorkers = 0;
      p.prefixInputs = 12;
      p.checkEvery = 64;
      p.maxChecks = 2;
      break;
    case Workload::kRefineStore:
      p.wall = tiny ? reducedWall(160, 90) : reducedWall(320, 180);
      p.progressive = true;
      p.trajectories = 4000;
      p.dabRadiusCm = 4.0f;
      p.prefixInputs = 16;
      p.checkEvery = 64;
      break;
  }
  if (tiny) {
    p.trajectories = p.progressive ? 300 : 120;
    p.shardCapacity = 32;
    p.somDim = 4;
    p.storeCacheBytes = 256u << 10;
    p.setupReps = 1;
    p.prefixInputs = std::min<std::size_t>(p.prefixInputs, 6);
    p.checkEvery = 8;
    p.maxChecks = 2;
    p.checkCycleEvery = 2;
    p.maxDabHits = 40;
    if (p.tenants > 1) {
      p.tenants = 8;
      p.variants = 4;
      p.clientThreads = 2;
    }
  }
  return p;
}

// --- input scripts ---------------------------------------------------------------

enum class InputKind : std::uint8_t {
  kDab,
  kClear,
  kWindow,
  kDepth,
  kScale,
  kLayout,
  kRefine,
  kSetup,
};

struct Input {
  InputKind kind = InputKind::kDab;
  ui::Event event;
  /// Starts a new visual query (brush dab or time window): its frame is a
  /// first-frame sample, and its convergence an exact-frame sample.
  bool startsQuery() const {
    return kind == InputKind::kDab || kind == InputKind::kWindow;
  }
};

Input dab(Vec2 at, std::uint8_t brush, float radiusCm) {
  return {InputKind::kDab, ui::BrushStrokeEvent{brush, at, radiusCm}};
}
Input clearBrush(std::uint8_t brush) {
  return {InputKind::kClear, ui::BrushClearEvent{brush}};
}
Input clearAll() { return clearBrush(255); }
Input window(float t0, float t1) {
  return {InputKind::kWindow, ui::TimeWindowEvent{t0, t1}};
}
Input depth(float cm) { return {InputKind::kDepth, ui::DepthOffsetEvent{cm}}; }
Input timeScale(float cmPerS) {
  return {InputKind::kScale, ui::TimeScaleEvent{cmPerS}};
}
Input layout(std::size_t preset) {
  return {InputKind::kLayout,
          ui::LayoutSwitchEvent{static_cast<std::uint8_t>(preset)}};
}

/// Arena spots where a dab of `radiusCm` touches between 1 and `maxHits`
/// of the `displayed` trajectories (sparse spots: a dab there damages at
/// most maxHits of the displayed cells). Probed on a 48x48 lattice with
/// the reach widened by two brush texels, so the count is conservative.
std::vector<Vec2> sparseSpots(const traj::TrajectoryDataset& ds,
                              const std::vector<std::uint32_t>& displayed,
                              float radiusCm, int maxHits) {
  constexpr int kGrid = 48;
  const float r = ds.arena().radiusCm;
  const float step = 2.0f * r / kGrid;
  const float reach = radiusCm + 2.0f * (2.0f * r / 256.0f);
  std::vector<int> hits(kGrid * kGrid, 0);
  std::vector<std::int64_t> stamp(kGrid * kGrid, -1);
  for (std::size_t k = 0; k < displayed.size(); ++k) {
    const traj::PointsView v = ds[displayed[k]].view();
    for (std::size_t i = 0; i < v.size(); ++i) {
      const int x0 = std::max(0, static_cast<int>((v.x[i] - reach + r) / step));
      const int x1 =
          std::min(kGrid - 1, static_cast<int>((v.x[i] + reach + r) / step));
      const int y0 = std::max(0, static_cast<int>((v.y[i] - reach + r) / step));
      const int y1 =
          std::min(kGrid - 1, static_cast<int>((v.y[i] + reach + r) / step));
      for (int gy = y0; gy <= y1; ++gy) {
        for (int gx = x0; gx <= x1; ++gx) {
          const std::size_t n = static_cast<std::size_t>(gy * kGrid + gx);
          if (stamp[n] == static_cast<std::int64_t>(k)) continue;
          const float cx = -r + (static_cast<float>(gx) + 0.5f) * step;
          const float cy = -r + (static_cast<float>(gy) + 0.5f) * step;
          const float dx = v.x[i] - cx;
          const float dy = v.y[i] - cy;
          if (dx * dx + dy * dy > reach * reach) continue;
          stamp[n] = static_cast<std::int64_t>(k);
          ++hits[n];
        }
      }
    }
  }
  std::vector<Vec2> spots;
  for (int gy = 0; gy < kGrid; ++gy) {
    for (int gx = 0; gx < kGrid; ++gx) {
      const int h = hits[static_cast<std::size_t>(gy * kGrid + gx)];
      const Vec2 c{-r + (static_cast<float>(gx) + 0.5f) * step,
                   -r + (static_cast<float>(gy) + 0.5f) * step};
      if (h >= 1 && h <= maxHits && c.norm() <= r - radiusCm) {
        spots.push_back(c);
      }
    }
  }
  return spots;
}

/// `count` distinct spots drawn from `spots`.
std::vector<Vec2> freshSpots(Rng& rng, const std::vector<Vec2>& spots,
                             std::size_t count) {
  std::vector<Vec2> out;
  std::vector<std::size_t> used;
  while (out.size() < count) {
    const std::size_t i = rng.below(spots.size());
    if (std::find(used.begin(), used.end(), i) != used.end() &&
        used.size() < spots.size()) {
      continue;
    }
    used.push_back(i);
    out.push_back(spots[i]);
  }
  return out;
}

/// Brush of the standing stroke the 432-cell and tenant worlds start
/// with; scripts dab and clear only brushes below it.
constexpr std::uint8_t kStandingBrush = 3;

/// dab_432: 8 dabs of one brush at fresh sparse spots, then a clear of
/// that brush — stationary. The standing stroke keeps the canvas
/// non-empty, so a clear damages only the cells the cycle's dabs lit.
std::vector<Input> dabScript(Rng& rng, const std::vector<Vec2>& spots,
                             float radiusCm, std::size_t length) {
  std::vector<Input> s;
  while (s.size() < length) {
    const auto brush = static_cast<std::uint8_t>(rng.below(kStandingBrush));
    for (const Vec2& at : freshSpots(rng, spots, 8)) {
      s.push_back(dab(at, brush, radiusCm));
    }
    s.push_back(clearBrush(brush));
  }
  return s;
}

/// scrub_432: a 12-input cycle of window drags, depth and time-scale
/// slider moves; every third cycle a layout switch and back.
std::vector<Input> scrubScript(Rng& rng, float maxT, std::size_t length) {
  std::vector<Input> s;
  std::size_t cycle = 0;
  while (s.size() < length) {
    const float width = rng.range(0.2, 0.5) * maxT;
    float t0 = rng.range(0.0, 0.4) * maxT;
    const float stepT = rng.range(0.01, 0.03) * maxT;
    const auto drag = [&] {
      t0 += stepT;
      s.push_back(window(t0, t0 + width));
    };
    drag();
    drag();
    s.push_back(depth(rng.range(-6.0, 6.0)));
    drag();
    s.push_back(timeScale(rng.range(0.15, 0.35)));
    drag();
    drag();
    s.push_back(depth(rng.range(-6.0, 6.0)));
    drag();
    s.push_back(timeScale(rng.range(0.15, 0.35)));
    if (cycle % 3 == 2) {
      s.push_back(layout(rng.below(2)));
      s.push_back(layout(kPreset432));
    } else {
      drag();
      drag();
    }
    ++cycle;
  }
  return s;
}

/// tenants_64 variant: dabs of one brush, window drags and a clear of
/// that brush; every second cycle a layout switch to another preset.
std::vector<Input> tenantScript(Rng& rng, const std::vector<Vec2>& spots,
                                float radiusCm, float maxT,
                                std::size_t length) {
  std::vector<Input> s;
  std::size_t preset = kPreset432;
  std::size_t cycle = 0;
  while (s.size() < length) {
    const std::vector<Vec2> at = freshSpots(rng, spots, 5);
    const auto brush = static_cast<std::uint8_t>(rng.below(kStandingBrush));
    const float width = rng.range(0.3, 0.6) * maxT;
    const float t0 = rng.range(0.0, 0.4) * maxT;
    s.push_back(dab(at[0], brush, radiusCm));
    s.push_back(dab(at[1], brush, radiusCm));
    s.push_back(window(t0, t0 + width));
    s.push_back(dab(at[2], brush, radiusCm));
    s.push_back(dab(at[3], brush, radiusCm));
    s.push_back(window(t0 + 0.05f * maxT, t0 + 0.05f * maxT + width));
    s.push_back(dab(at[4], brush, radiusCm));
    s.push_back(clearBrush(brush));
    if (cycle % 2 == 1) {
      preset = (preset + 1 + rng.below(2)) % 3;
      s.push_back(layout(preset));
    }
    ++cycle;
  }
  return s;
}

/// refine_store: clear, then one brush stroke at a fresh spot, which the
/// client refines to convergence. Spot distances from the arena centre
/// cycle through four bands (angles are random), so every run sees the
/// same mix of central strokes (no shard prunable) and outer ones.
std::vector<Input> refineScript(Rng& rng, float arenaRadiusCm, float radiusCm,
                                std::size_t length) {
  constexpr float kBands[] = {0.05f, 0.3f, 0.55f, 0.75f, 0.95f};
  std::vector<Input> s;
  for (std::size_t cycle = 0; s.size() < length; ++cycle) {
    const std::size_t band = cycle % 4;
    const float a = rng.range(0.0, 2.0 * std::numbers::pi);
    const float d = rng.range(kBands[band], kBands[band + 1]) *
                    (arenaRadiusCm - radiusCm);
    s.push_back(clearAll());
    s.push_back(dab({d * std::cos(a), d * std::sin(a)},
                    static_cast<std::uint8_t>(rng.below(3)), radiusCm));
  }
  return s;
}

// --- the world -------------------------------------------------------------------

struct SetupTimes {
  double datasetS = 0.0;
  double storeWriteS = 0.0;
  double somTrainS = 0.0;
  double contextS = 0.0;
  double coldFrameS = 0.0;
  double totalS = 0.0;
};

struct TenantState {
  core::SessionId id = 0;
  std::uint32_t index = 0;
  std::uint32_t variant = 0;
  render::Framebuffer fb;
  std::unique_ptr<render::CellRenderPipeline> pipeline;
  cluster::SceneDeltaEncoder encoder;
  cluster::SceneReceiver receiver;
  render::SceneModel master;  ///< last scene the service built
  const std::vector<Input>* script = nullptr;
  std::size_t cursor = 0;  ///< next script input
  std::size_t frames = 0;  ///< frames in the current phase
  std::size_t checks = 0;  ///< sampled checks in the current phase
};

/// The workload's world. Members are destroyed in reverse order: tenants
/// before the service, the service before the context, the context and
/// explorer before the store, the store before its file, and the dataset
/// (borrowed by the context) last.
struct World {
  traj::TrajectoryDataset dataset;
  wall::WallSpec wall;
  std::string storePath;
  std::shared_ptr<traj::ShardStore> store;
  std::shared_ptr<const core::ShardSomExplorer> explorer;
  std::shared_ptr<const core::SharedContext> context;
  std::unique_ptr<core::SessionService> service;
  std::vector<TenantState> tenants;
  std::vector<std::vector<Input>> scripts;  ///< one per variant
  SetupTimes times;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World() {
    tenants.clear();
    service.reset();
    context.reset();
    explorer.reset();
    store.reset();
    if (!storePath.empty()) {
      std::error_code ec;
      std::filesystem::remove(storePath, ec);
    }
  }
};

/// The store is written in exit-heading order so each shard holds ants
/// that left the arena on one side: shard summaries are then spatially
/// selective and the anytime pre-pass can prune.
traj::TrajectoryDataset headingOrdered(traj::TrajectoryDataset ds) {
  std::vector<std::pair<float, std::size_t>> order;
  order.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const traj::PointsView v = ds[i].view();
    const float heading =
        v.empty() ? 0.0f
                  : std::atan2(v.y[v.size() - 1], v.x[v.size() - 1]);
    order.emplace_back(heading, i);
  }
  std::sort(order.begin(), order.end());
  traj::TrajectoryDataset out(ds.arena());
  out.reserve(ds.size());
  for (const auto& [heading, i] : order) out.add(std::move(ds[i]));
  return out;
}

/// Cumulative layer counters the benchmark reads between frames: the
/// session's query-engine counters and the shard store's cache counters.
struct LayerCounters {
  std::uint64_t rowsReclassified = 0;
  std::uint64_t rowsReused = 0;
  std::uint64_t passes = 0;
  std::uint64_t temporalOnlyPasses = 0;
  std::uint64_t abandonedPasses = 0;
  std::uint64_t storeHits = 0;
  std::uint64_t storeMisses = 0;

  LayerCounters operator-(const LayerCounters& o) const {
    return {rowsReclassified - o.rowsReclassified, rowsReused - o.rowsReused,
            passes - o.passes, temporalOnlyPasses - o.temporalOnlyPasses,
            abandonedPasses - o.abandonedPasses, storeHits - o.storeHits,
            storeMisses - o.storeMisses};
  }
};

struct FrameRecord {
  InputKind kind = InputKind::kDab;
  bool ok = true;
  bool inPrefix = false;
  double ms = 0.0;
  std::size_t cells = 0;  ///< visible cells (scene cells minus culled)
  render::PipelineStats render;
  std::size_t wireBytes = 0;
  bool deltaPacket = false;
  bool resync = false;
  /// Traced phase only: what the frame added to the layer counters.
  LayerCounters counters;
};

std::string workPath(const std::string& dir, const char* stem) {
  return (std::filesystem::path(dir) /
          (std::string(stem) + "-" + std::to_string(::getpid()) + ".svqs"))
      .string();
}

core::Status applyInput(core::SessionService& service, core::SessionId id,
                        const Input& in) {
  if (in.kind == InputKind::kSetup) return core::Status::ok();
  if (in.kind == InputKind::kRefine) return service.refine(id, kRefineShards);
  return service.apply(id, in.event);
}

/// Runs one frame end to end. Returns the record; `tb` (nullable) gets
/// one "frame" span with one child span per public call.
FrameRecord runFrame(World& w, TenantState& t, const Input& in,
                     TraceBuffer* tb, std::uint32_t frameId) {
  FrameRecord rec;
  rec.kind = in.kind;
  const Ns start = nowNs();
  {
    ScopedSpan frame(tb, "frame", frameId, t.index);
    core::Status status;
    {
      ScopedSpan s(tb,
                   in.kind == InputKind::kRefine ? "service.refine"
                                                 : "service.apply",
                   frameId, t.index);
      status = applyInput(*w.service, t.id, in);
    }
    rec.ok = status.isOk();
    {
      ScopedSpan s(tb, "service.buildScene", frameId, t.index);
      status = w.service->buildScene(t.id, t.master);
    }
    rec.ok = rec.ok && status.isOk();
    net::MessageBuffer packet;
    {
      ScopedSpan s(tb, "wire.encode", frameId, t.index);
      rec.deltaPacket =
          t.encoder.encode(packet, t.master) == cluster::ScenePacketKind::kDelta;
    }
    rec.wireBytes = packet.size();
    bool applied = false;
    {
      ScopedSpan s(tb, "wire.decode", frameId, t.index);
      applied = t.receiver.apply(packet);
    }
    if (!applied) {
      ScopedSpan s(tb, "wire.resync", frameId, t.index);
      net::MessageBuffer resync;
      t.encoder.encodeResync(resync, t.master);
      rec.wireBytes += resync.size();
      rec.resync = true;
      rec.ok = t.receiver.apply(resync) && rec.ok;
    }
    const traj::TrajectoryDataset* renderDataset = &w.dataset;
    if (w.explorer != nullptr) {
      // Progressive scenes index the session's cluster averages. The
      // pointer stays valid until this tenant's next buildScene, and only
      // this client drives this tenant.
      ScopedSpan s(tb, "service.sceneDataset", frameId, t.index);
      rec.ok = w.service
                   ->withSession(t.id,
                                 [&](core::Session& session) {
                                   renderDataset = &session.sceneDataset();
                                 })
                   .isOk() &&
               rec.ok;
    }
    {
      ScopedSpan s(tb, "render.pipeline", frameId, t.index);
      rec.render = t.pipeline->render(t.receiver.scene(), *renderDataset,
                                      render::Canvas::whole(t.fb),
                                      render::Eye::kLeft);
    }
  }
  rec.ms = static_cast<double>(nowNs() - start) / 1e6;
  rec.cells = t.receiver.scene().cells.size() - rec.render.cellsCulled;
  return rec;
}

std::unique_ptr<World> buildWorld(const Plan& plan, std::uint64_t seed,
                                  double runSeconds, ThreadPool* pool,
                                  const std::string& workDir) {
  auto w = std::make_unique<World>();
  const Ns t0 = nowNs();
  {
    traj::AntBehaviorParams params;
    params.maxDurationS = 180.0f;
    traj::AntSimulator sim(params, kDatasetSeed);
    traj::DatasetSpec spec;
    spec.count = plan.trajectories;
    w->dataset = sim.generate(spec);
    if (plan.progressive) w->dataset = headingOrdered(std::move(w->dataset));
  }
  w->wall = plan.wall;
  const Ns t1 = nowNs();
  Ns t2 = t1;
  Ns t3 = t1;
  if (plan.progressive) {
    w->storePath = workPath(workDir, "refine_store");
    if (!traj::writeShardStore(w->dataset, w->storePath, plan.shardCapacity)) {
      throw std::runtime_error("cannot write shard store " + w->storePath);
    }
    traj::ShardStoreOptions so;
    so.cacheBudgetBytes = plan.storeCacheBytes;
    so.metricsPrefix = "perfbench.store";
    so.retry = io::RetryPolicy{};
    so.faultInjector = nullptr;
    auto opened = traj::ShardStore::open(w->storePath, so);
    if (!opened) throw std::runtime_error("cannot open shard store");
    w->store = std::make_shared<traj::ShardStore>(std::move(*opened));
    t2 = nowNs();
    traj::SomParams sp;
    sp.rows = plan.somDim;
    sp.cols = plan.somDim;
    sp.epochs = 10;
    traj::FeatureParams fp;
    fp.arenaRadiusCm = w->dataset.arena().radiusCm;
    w->explorer =
        std::make_shared<core::ShardSomExplorer>(*w->store, sp, fp, pool);
    t3 = nowNs();
  }
  {
    core::SharedContext::Options co;
    co.renderCacheBytes = plan.sharedCacheBytes;
    co.shardStore = w->store;
    co.som = nullptr;
    co.shardExplorer = w->explorer;
    w->context = core::SharedContext::create(w->dataset, w->wall, co);
    core::SessionService::Options so;
    so.maxSessions = std::max<std::size_t>(plan.tenants, 1);
    so.eventQueueDepth = 128;
    so.applyDeadlineUs = 0;
    so.shedP99Us = 0;
    so.shedQueueDepth = 0;
    so.healthWindow = 64;
    so.degradedDeadlineDiv = 4;
    so.retryAfterMs = 25;
    so.clock = nullptr;
    w->service = std::make_unique<core::SessionService>(w->context, so);
    w->tenants.resize(plan.tenants);
    for (std::size_t i = 0; i < plan.tenants; ++i) {
      TenantState& t = w->tenants[i];
      const auto admission = w->service->admit();
      if (!admission) throw std::runtime_error("tenant admission refused");
      t.id = admission.id;
      t.index = static_cast<std::uint32_t>(i);
      t.variant = static_cast<std::uint32_t>(i % plan.variants);
      t.fb = render::Framebuffer(w->wall.totalPxW(), w->wall.totalPxH());
      render::PipelineOptions po;
      po.pool = plan.renderWorkers > 0 ? pool : nullptr;
      po.cacheBudgetBytes = kPipelineCacheBytes;
      po.sharedCache = &w->context->renderCache();
      t.pipeline = std::make_unique<render::CellRenderPipeline>(po);
    }
  }
  const Ns t4 = nowNs();
  // Each tenant's start state, then its cold first frame. Variants get a
  // distinct depth offset so two variants never produce the same cell
  // (cross-tenant cache hits then come only from tenants of one variant,
  // which one client thread drives in a fixed order).
  for (TenantState& t : w->tenants) {
    std::vector<Input> start;
    if (!plan.progressive) start.push_back(layout(kPreset432));
    if (plan.variants > 1) {
      start.push_back(depth(0.25f * static_cast<float>(t.variant)));
    }
    if (plan.workload == Workload::kScrub432) {
      // Standing strokes, so window drags re-mask a live query.
      Rng rng(0xB5C0B5ULL);
      const float r = w->dataset.arena().radiusCm;
      for (int i = 0; i < 3; ++i) {
        const float a = rng.range(0.0, 2.0 * std::numbers::pi);
        start.push_back(dab({0.5f * r * std::cos(a), 0.5f * r * std::sin(a)},
                            static_cast<std::uint8_t>(i), 8.0f));
      }
    } else if (!plan.progressive) {
      // One standing stroke near the rim, never cleared by the scripts.
      const float r = w->dataset.arena().radiusCm;
      start.push_back(dab({0.0f, -0.8f * r}, kStandingBrush, plan.dabRadiusCm));
    }
    for (const Input& in : start) {
      if (!w->service->apply(t.id, in.event).isOk()) {
        throw std::runtime_error("set-up input refused");
      }
    }
    const FrameRecord cold = runFrame(
        *w, t, Input{InputKind::kSetup, ui::DepthOffsetEvent{}}, nullptr, 0);
    if (!cold.ok) throw std::runtime_error("cold first frame failed");
  }
  const Ns t5 = nowNs();
  w->times.datasetS = seconds(t1 - t0);
  w->times.storeWriteS = seconds(t2 - t1);
  w->times.somTrainS = seconds(t3 - t2);
  w->times.contextS = seconds(t4 - t3);
  w->times.coldFrameS = seconds(t5 - t4);
  w->times.totalS = seconds(t5 - t0);

  // Scripts: generated from the seed before any timed input.
  const float maxT = std::max(1.0f, w->dataset.maxDuration());
  std::vector<std::uint32_t> displayed;
  for (const auto& cell :
       w->context->defaultAssignment(kPreset432)->cells) {
    if (cell.trajectoryIndex) displayed.push_back(*cell.trajectoryIndex);
  }
  // Long enough that no tenant wraps around within a run: an input rate
  // per tenant well above what any machine reaches on these frames.
  const double maxInputsPerS =
      plan.workload == Workload::kDab432 ? 5000.0
      : plan.workload == Workload::kScrub432 ? 1000.0
                                             : 500.0;
  const std::size_t length =
      plan.prefixInputs +
      static_cast<std::size_t>(std::ceil(runSeconds * maxInputsPerS)) + 64;
  const std::vector<Vec2> spots =
      plan.progressive || plan.workload == Workload::kScrub432
          ? std::vector<Vec2>{}
          : sparseSpots(w->dataset, displayed, plan.dabRadiusCm,
                        plan.maxDabHits);
  if (!plan.progressive && plan.workload != Workload::kScrub432 &&
      spots.size() < 16) {
    throw std::runtime_error("too few sparse dab spots");
  }
  w->scripts.resize(plan.variants);
  for (std::size_t v = 0; v < plan.variants; ++v) {
    Rng rng(seed * 0x100000001B3ULL + v * 0x9E3779B9ULL + 1);
    switch (plan.workload) {
      case Workload::kDab432:
        w->scripts[v] = dabScript(rng, spots, plan.dabRadiusCm, length);
        break;
      case Workload::kScrub432:
        w->scripts[v] = scrubScript(rng, maxT, length);
        break;
      case Workload::kTenants64:
        w->scripts[v] =
            tenantScript(rng, spots, plan.dabRadiusCm, maxT, length);
        break;
      case Workload::kRefineStore:
        w->scripts[v] = refineScript(rng, w->dataset.arena().radiusCm,
                                     plan.dabRadiusCm, length);
        break;
    }
  }
  for (TenantState& t : w->tenants) t.script = &w->scripts[t.variant];
  return w;
}

// --- correctness checks ------------------------------------------------------------

bool sameSummary(const core::HighlightSummary& a,
                 const core::HighlightSummary& b) {
  return a.trajectoryIndex == b.trajectoryIndex &&
         a.segmentsPerBrush == b.segmentsPerBrush &&
         a.durationPerBrush == b.durationPerBrush &&
         a.firstHitTime == b.firstHitTime &&
         a.lastSegmentBrush == b.lastSegmentBrush;
}

bool sameQueryResult(const core::QueryResult& a, const core::QueryResult& b) {
  if (a.segmentHighlights != b.segmentHighlights ||
      a.summaries.size() != b.summaries.size() ||
      a.trajectoriesEvaluated != b.trajectoriesEvaluated ||
      a.trajectoriesHighlighted != b.trajectoriesHighlighted ||
      a.totalSegmentsEvaluated != b.totalSegmentsEvaluated ||
      a.totalSegmentsHighlighted != b.totalSegmentsHighlighted) {
    return false;
  }
  for (std::size_t i = 0; i < a.summaries.size(); ++i) {
    if (!sameSummary(a.summaries[i], b.summaries[i])) return false;
  }
  return true;
}

/// Scene-wide state hash followed by every cell's content hash.
std::vector<std::uint64_t> sceneFingerprint(const render::SceneModel& s) {
  std::vector<std::uint64_t> h = render::sceneCellHashes(s);
  h.push_back(render::sceneStateHash(s));
  return h;
}

/// A cold render of `scene` through a fresh pipeline (no cache state).
render::Framebuffer coldRender(const render::SceneModel& scene,
                               const traj::TrajectoryDataset& ds,
                               const wall::WallSpec& wall, ThreadPool* pool) {
  render::PipelineOptions po;
  po.pool = pool;
  po.cacheBudgetBytes = 0;
  po.sharedCache = nullptr;
  render::CellRenderPipeline fresh(po);
  render::Framebuffer fb(wall.totalPxW(), wall.totalPxH());
  (void)fresh.render(scene, ds, render::Canvas::whole(fb), render::Eye::kLeft);
  return fb;
}

core::QueryParams sessionParams(const core::Session& s) {
  core::QueryParams params;
  params.timeWindow = {s.timeWindow().lo(), s.timeWindow().hi()};
  return params;
}

/// From-scratch evaluation of what the session's last scene displays:
/// the displayed trajectories (or, in progressive mode, the cluster
/// averages) against the session's brush and window.
core::QueryResult scratchQuery(const core::Session& s) {
  if (s.brush().empty() && !s.progressiveMode()) return core::QueryResult{};
  const core::QueryParams params = sessionParams(s);
  if (s.progressiveMode()) {
    const auto averages = s.progressiveQuery()->explorer().clusterAverages();
    return core::evaluate(core::makeRefs(averages), s.brush().grid(), params);
  }
  std::vector<std::uint32_t> displayed;
  for (const auto& cell : s.assignment().cells) {
    if (cell.trajectoryIndex) displayed.push_back(*cell.trajectoryIndex);
  }
  return core::evaluate(core::makeRefs(s.dataset(), displayed),
                        s.brush().grid(), params);
}

/// Which references a check round deliberately corrupts (self-check).
struct Corrupt {
  bool wire = false;
  bool render = false;
  bool query = false;
};

struct CheckTally {
  std::size_t run = 0;
  std::vector<std::string> failures;  ///< the first few, for the log
  void fail(const std::string& what) {
    if (failures.size() < 16) failures.push_back(what);
  }
};

/// The per-frame checks on tenant `t`'s current frame: receiver scene ==
/// master scene, incremental framebuffer == cold render, and the session's
/// last query result == a from-scratch core::evaluate. Returns the number
/// of checks that failed.
std::size_t checkFrame(World& w, TenantState& t, ThreadPool* pool,
                       CheckTally& tally, const Corrupt& corrupt = {}) {
  std::size_t failed = 0;
  const auto fail = [&](const std::string& what) {
    ++failed;
    tally.fail("tenant " + std::to_string(t.index) + " frame " +
               std::to_string(t.frames) + ": " + what);
  };
  ++tally.run;
  std::vector<std::uint64_t> expected = sceneFingerprint(t.master);
  if (corrupt.wire && !expected.empty()) expected.front() ^= 1;
  if (sceneFingerprint(t.receiver.scene()) != expected) {
    fail("receiver scene differs from the master's");
  }

  const traj::TrajectoryDataset* ds = &w.dataset;
  core::QueryResult scratch;
  core::QueryResult last;
  const core::Status st =
      w.service->withSession(t.id, [&](core::Session& s) {
        ds = &s.sceneDataset();
        scratch = scratchQuery(s);
        last = s.lastQueryResult();
      });
  if (!st.isOk()) fail("withSession refused");
  if (corrupt.query) {
    if (!scratch.segmentHighlights.empty() &&
        !scratch.segmentHighlights.front().empty()) {
      scratch.segmentHighlights.front().front() ^= 1;
    } else {
      scratch.trajectoriesEvaluated += 1;
    }
  }
  if (!sameQueryResult(last, scratch)) {
    fail("lastQueryResult differs from a from-scratch evaluate");
  }

  render::Framebuffer cold =
      coldRender(t.receiver.scene(), *ds, w.wall, pool);
  if (corrupt.render && !cold.empty()) {
    render::Color& c = cold.at(0, 0);
    c.r = static_cast<std::uint8_t>(c.r ^ 1);
  }
  if (cold.pixels() != t.fb.pixels()) {
    fail("incremental framebuffer differs from a cold render");
  }
  return failed;
}

/// refine_store: the converged estimates equal exactReference.
std::size_t checkConverged(World& w, TenantState& t, CheckTally& tally,
                           bool corrupt = false) {
  ++tally.run;
  bool converged = false;
  bool same = false;
  const core::Status st =
      w.service->withSession(t.id, [&](core::Session& s) {
        const core::ProgressiveClusterQuery* q = s.progressiveQuery();
        if (q == nullptr) return;
        converged = s.progressiveConverged();
        std::vector<core::ClusterEstimate> exact =
            core::ProgressiveClusterQuery::exactReference(
                q->explorer(), s.brush().grid(), sessionParams(s));
        if (corrupt && !exact.empty()) exact.front().exactHits += 1;
        same = q->estimates() == exact;
      });
  if (st.isOk() && converged && same) return 0;
  tally.fail("tenant " + std::to_string(t.index) +
             ": converged estimates differ from exactReference");
  return 1;
}

// --- running a phase -----------------------------------------------------------

/// One client thread's view of a phase.
struct ClientLog {
  std::vector<FrameRecord> frames;
  std::vector<double> firstMs;  ///< query input -> first frame
  std::vector<double> exactMs;  ///< query input -> converged frame
  std::size_t refineFrames = 0;  ///< refine steps of query cycles
  std::size_t queryCycles = 0;   ///< completed refine cycles (progressive)
  std::uint64_t prunedShards = 0;  ///< over prefix cycles
  std::uint64_t prefixShards = 0;  ///< shardCount * prefix cycles
  Ns timedNs = 0;  ///< wall time of the phase minus correctness checks
  std::size_t attempted = 0;
  std::size_t failedInputs = 0;
  std::size_t refused = 0;
  std::size_t sharedCacheBytesPeak = 0;
  CheckTally checks;
  std::unique_ptr<TraceBuffer> trace;
};

struct PhaseSpec {
  double seconds = 1.0;
  bool traced = false;
  /// Script inputs every tenant sends however long it takes: the
  /// deterministic counter prefix of the traced phase.
  std::size_t minInputs = 0;
};

/// The tenant's layer counters now (traced phase bookkeeping, read
/// outside the frame span).
LayerCounters readCounters(World& w, TenantState& t) {
  LayerCounters c;
  (void)w.service->withSession(t.id, [&](core::Session& s) {
    const core::QueryEngineMetrics& m = s.queryMetrics();
    c.rowsReclassified = m.trajectoriesInvalidated;
    c.rowsReused = m.trajectoriesReused;
    c.passes = m.passes;
    c.temporalOnlyPasses = m.temporalOnlyPasses;
    c.abandonedPasses = m.abandonedPasses;
  });
  if (w.store) {
    const traj::ShardCacheStats st = w.store->cacheStats();
    c.storeHits = st.hits;
    c.storeMisses = st.misses;
  }
  return c;
}

/// Drives `tenants` (all owned by this client) round-robin, one script
/// input per tenant per round, until the phase's time is up and every
/// tenant sent at least minInputs inputs.
void runClient(World& w, const Plan& plan, const PhaseSpec& phase,
               const std::vector<TenantState*>& tenants, ThreadPool* pool,
               ClientLog& log) {
  TraceBuffer* tb = log.trace.get();
  ThreadPool* checkPool = plan.renderWorkers > 0 ? pool : nullptr;
  std::uint32_t frameId = 0;
  Ns checkNs = 0;
  const std::size_t shardCount = w.store ? w.store->shardCount() : 0;
  // Counter reads bracket every frame; a check may touch the counters
  // (a shard read), so the tenant's reading is refreshed after it.
  std::map<std::uint32_t, LayerCounters> last;
  const auto refresh = [&](TenantState& t) {
    if (phase.traced) last[t.index] = readCounters(w, t);
  };
  for (TenantState* t : tenants) refresh(*t);

  const auto timedCheck = [&](TenantState& t,
                              const std::function<std::size_t()>& check) {
    const Ns c0 = nowNs();
    log.failedInputs += check() > 0 ? 1 : 0;
    checkNs += nowNs() - c0;
    refresh(t);
  };
  /// Runs one frame; returns its latency.
  const auto frame = [&](TenantState& t, const Input& in,
                         bool inPrefix) -> double {
    FrameRecord rec = runFrame(w, t, in, tb, frameId++);
    rec.inPrefix = inPrefix;
    ++log.attempted;
    if (!rec.ok) {
      ++log.refused;
      ++log.failedInputs;
    }
    ++t.frames;
    if (phase.traced) {
      const LayerCounters now = readCounters(w, t);
      rec.counters = now - last[t.index];
      last[t.index] = now;
      log.sharedCacheBytesPeak = std::max(log.sharedCacheBytesPeak,
                                          w.context->renderCache().bytes());
    }
    log.frames.push_back(rec);
    if (t.frames % plan.checkEvery == 0 && t.checks < plan.maxChecks) {
      ++t.checks;
      timedCheck(t, [&] { return checkFrame(w, t, checkPool, log.checks); });
    }
    return rec.ms;
  };

  const Ns start = nowNs();
  const Ns budget = static_cast<Ns>(phase.seconds * 1e9);
  for (std::size_t round = 0;; ++round) {
    if (nowNs() - start - checkNs >= budget && round >= phase.minInputs) {
      break;
    }
    const bool inPrefix = round < phase.minInputs;
    for (TenantState* tp : tenants) {
      TenantState& t = *tp;
      const Input& in = (*t.script)[t.cursor % t.script->size()];
      ++t.cursor;
      const double firstMs = frame(t, in, inPrefix);
      if (!plan.progressive) {
        if (in.startsQuery()) {
          log.firstMs.push_back(firstMs);
          log.exactMs.push_back(firstMs);
        }
        continue;
      }
      // Progressive: refine in fixed-size steps, re-rendering after each,
      // until the anytime query converged.
      const Input refine{InputKind::kRefine, ui::BrushClearEvent{}};
      double exactMs = firstMs;
      std::size_t pruned = 0;
      bool converged = false;
      const auto poll = [&] {
        (void)w.service->withSession(t.id, [&](core::Session& s) {
          converged = s.progressiveConverged();
          if (s.progressiveQuery() != nullptr) {
            pruned = s.progressiveQuery()->prunedShards();
          }
        });
      };
      poll();
      std::size_t steps = 0;
      while (!converged && steps <= shardCount) {
        exactMs += frame(t, refine, inPrefix);
        ++steps;
        poll();
      }
      if (!converged) {
        ++log.failedInputs;
        log.checks.fail("tenant " + std::to_string(t.index) +
                        ": refine did not converge");
      }
      if (!in.startsQuery()) continue;
      log.firstMs.push_back(firstMs);
      log.exactMs.push_back(exactMs);
      log.refineFrames += steps;
      ++log.queryCycles;
      if (inPrefix) {
        log.prunedShards += pruned;
        log.prefixShards += shardCount;
      }
      if (log.queryCycles % plan.checkCycleEvery == 0) {
        timedCheck(t, [&] { return checkConverged(w, t, log.checks); });
      }
    }
  }
  // Every tenant's last frame is checked; refine_store also re-checks the
  // converged estimates of its last query.
  for (TenantState* tp : tenants) {
    timedCheck(*tp, [&] { return checkFrame(w, *tp, checkPool, log.checks); });
    if (plan.progressive) {
      timedCheck(*tp, [&] { return checkConverged(w, *tp, log.checks); });
    }
  }
  log.timedNs = nowNs() - start - checkNs;
}

/// Runs one phase over every tenant with plan.clientThreads clients.
/// Tenants with the same variant always share a client.
std::vector<ClientLog> runPhase(World& w, const Plan& plan,
                                const PhaseSpec& phase, ThreadPool* pool) {
  std::vector<ClientLog> logs(plan.clientThreads);
  std::vector<std::vector<TenantState*>> owned(plan.clientThreads);
  for (TenantState& t : w.tenants) {
    t.frames = 0;
    t.checks = 0;
    owned[t.variant % plan.clientThreads].push_back(&t);
  }
  // Set-up leaves a schedule-dependent set of shards cached (the SOM
  // trains on the pool); every phase starts from a cold store cache.
  if (w.store) w.store->clearCache();
  for (unsigned c = 0; c < plan.clientThreads; ++c) {
    logs[c].trace = std::make_unique<TraceBuffer>(phase.traced, c);
  }
  if (plan.clientThreads == 1) {
    runClient(w, plan, phase, owned[0], pool, logs[0]);
    return logs;
  }
  std::vector<std::string> errors(plan.clientThreads);
  {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < plan.clientThreads; ++c) {
      clients.emplace_back([&, c] {
        try {
          runClient(w, plan, phase, owned[c], pool, logs[c]);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::thread& th : clients) th.join();
  }
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("client thread: " + e);
  }
  return logs;
}

// --- metrics ---------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

struct PhaseSummary {
  std::vector<double> frameMs;
  std::vector<double> firstMs;
  std::vector<double> exactMs;
  double framesPerS = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::size_t checksRun = 0;
};

PhaseSummary summarize(const std::vector<ClientLog>& logs) {
  PhaseSummary s;
  for (const ClientLog& log : logs) {
    for (const FrameRecord& f : log.frames) s.frameMs.push_back(f.ms);
    s.firstMs.insert(s.firstMs.end(), log.firstMs.begin(), log.firstMs.end());
    s.exactMs.insert(s.exactMs.end(), log.exactMs.begin(), log.exactMs.end());
    // Closed loop: aggregate throughput is the sum of each client's.
    s.framesPerS += ratio(static_cast<double>(log.frames.size()),
                          seconds(log.timedNs));
    s.attempted += log.attempted;
    s.failed += log.failedInputs;
    s.checksRun += log.checks.run;
    s.failures.insert(s.failures.end(), log.checks.failures.begin(),
                      log.checks.failures.end());
  }
  return s;
}

/// The end-to-end metrics BENCHMARK.json gates. The latency tail goes to
/// `tail` (report and log only): on a shared VM it tracks hypervisor steal
/// far more than the program, so no bound on it holds from run to run.
void addEndToEnd(Metrics& m, Metrics& tail, const PhaseSummary& s,
                 double setupS, double rssMb) {
  m["frame_ms_p50"] = {median(s.frameMs), "ms"};
  tail["frame_ms_p95"] = {percentile(s.frameMs, 0.95), "ms"};
  tail["frame_ms_p99"] = {percentile(s.frameMs, 0.99), "ms"};
  m["frames_per_s"] = {s.framesPerS, "frames/s"};
  m["first_frame_ms_p50"] = {median(s.firstMs), "ms"};
  m["exact_ms_p50"] = {median(s.exactMs), "ms"};
  m["setup_s"] = {setupS, "s"};
  m["peak_rss_mb"] = {rssMb, "MB"};
}

/// Per-layer metrics of the traced phase: span durations by layer call,
/// frame-level counters, and deltas of the layers' own counters.
struct LayerInputs {
  std::map<std::string, std::uint64_t> sharedBefore;
  std::map<std::string, std::uint64_t> sharedAfter;
  std::uint64_t storePeakResidentBytes = 0;
  std::vector<double> storeLoadUs;
  double meanShardBytes = 0.0;
  SetupTimes setup;
  double untracedFrameP50 = 0.0;
};

void addPerLayer(Metrics& m, const Plan& plan,
                 const std::vector<ClientLog>& logs, const LayerInputs& in) {
  std::map<std::string, std::vector<double>> spanUs;
  std::vector<double> prepassUs;
  double frameNs = 0.0, childNs = 0.0, renderNs = 0.0;
  double frames = 0.0, segments = 0.0;
  double rasterized = 0.0, blitted = 0.0, skipped = 0.0, sharedBlitted = 0.0;
  double pixels = 0.0, visible = 0.0, fullRecomposites = 0.0;
  double deltaPackets = 0.0, resyncs = 0.0;
  double rowsReused = 0.0, rowsTotal = 0.0;
  double passes = 0.0, temporalOnly = 0.0, abandoned = 0.0;
  double storeHits = 0.0, storeMisses = 0.0;
  // Counters over the prefix: identical across runs with one seed.
  double prefixFrames = 0.0, prefixRows = 0.0, prefixRaster = 0.0,
         prefixBytes = 0.0, prefixLoads = 0.0;
  std::uint64_t pruned = 0, prefixShards = 0;
  std::size_t refineFrames = 0, queryCycles = 0, refused = 0;
  std::size_t cacheBytesPeak = 0;

  for (const ClientLog& log : logs) {
    refineFrames += log.refineFrames;
    queryCycles += log.queryCycles;
    pruned += log.prunedShards;
    prefixShards += log.prefixShards;
    refused += log.refused;
    cacheBytesPeak = std::max(cacheBytesPeak, log.sharedCacheBytesPeak);
    const std::vector<Span>& spans = log.trace->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& f = spans[i];
      if (std::strcmp(f.name, "frame") != 0) continue;
      const FrameRecord& rec = log.frames[f.frame];
      frameNs += static_cast<double>(f.end - f.start);
      for (std::size_t j = i + 1;
           j < spans.size() &&
           spans[j].parent == static_cast<std::int32_t>(i);
           ++j) {
        const Span& c = spans[j];
        const double cd = static_cast<double>(c.end - c.start);
        childNs += cd;
        spanUs[c.name].push_back(cd / 1e3);
        if (std::strcmp(c.name, "render.pipeline") == 0) renderNs += cd;
        // The first build after a brush dab runs the anytime pre-pass.
        if (plan.progressive && rec.kind == InputKind::kDab &&
            std::strcmp(c.name, "service.buildScene") == 0) {
          prepassUs.push_back(cd / 1e3);
        }
      }
      frames += 1.0;
      rasterized += static_cast<double>(rec.render.cellsRasterized);
      blitted += static_cast<double>(rec.render.cellsBlitted);
      skipped += static_cast<double>(rec.render.cellsSkipped);
      sharedBlitted += static_cast<double>(rec.render.cellsSharedBlitted);
      pixels += static_cast<double>(rec.render.pixelsRasterized);
      segments += static_cast<double>(rec.render.segmentsDrawn);
      visible += static_cast<double>(rec.cells);
      fullRecomposites += rec.render.fullRecomposite ? 1.0 : 0.0;
      deltaPackets += rec.deltaPacket ? 1.0 : 0.0;
      resyncs += rec.resync ? 1.0 : 0.0;
      const LayerCounters& c = rec.counters;
      const auto rows = static_cast<double>(c.rowsReclassified);
      rowsTotal += rows;
      rowsReused += static_cast<double>(c.rowsReused);
      passes += static_cast<double>(c.passes);
      temporalOnly += static_cast<double>(c.temporalOnlyPasses);
      abandoned += static_cast<double>(c.abandonedPasses);
      storeHits += static_cast<double>(c.storeHits);
      storeMisses += static_cast<double>(c.storeMisses);
      if (rec.inPrefix) {
        prefixFrames += 1.0;
        prefixRows += rows;
        prefixRaster += static_cast<double>(rec.render.cellsRasterized);
        prefixBytes += static_cast<double>(rec.wireBytes);
        prefixLoads += static_cast<double>(c.storeMisses);
      }
    }
  }

  const auto p = [&](const char* name, double q) {
    return percentile(spanUs[name], q);
  };
  // core.service
  m["service.apply_us_p50"] = {median(spanUs["service.apply"]), "us"};
  m["service.apply_us_p99"] = {p("service.apply", 0.99), "us"};
  m["service.refused"] = {static_cast<double>(refused), "count"};
  // core.query
  m["query.build_us_p50"] = {median(spanUs["service.buildScene"]), "us"};
  m["query.build_us_p99"] = {p("service.buildScene", 0.99), "us"};
  m["query.rows_reclassified_per_frame"] = {ratio(prefixRows, prefixFrames),
                                            "rows/frame"};
  m["query.spatial_reuse_ratio"] = {ratio(rowsReused, rowsReused + rowsTotal),
                                    "share"};
  m["query.temporal_only_frac"] = {ratio(temporalOnly, passes), "share"};
  m["query.abandoned_passes"] = {abandoned, "count"};
  // render.pipeline
  m["render.us_p50"] = {median(spanUs["render.pipeline"]), "us"};
  m["render.us_p99"] = {p("render.pipeline", 0.99), "us"};
  m["render.cells_rasterized_per_frame"] = {ratio(prefixRaster, prefixFrames),
                                            "cells/frame"};
  m["render.cells_blitted_per_frame"] = {ratio(blitted, frames), "cells/frame"};
  m["render.cells_skipped_per_frame"] = {ratio(skipped, frames), "cells/frame"};
  m["render.dirty_frac"] = {ratio(rasterized, visible), "share"};
  m["render.segments_drawn_per_frame"] = {ratio(segments, frames),
                                          "segments/frame"};
  m["render.pixels_rasterized_per_frame"] = {ratio(pixels, frames), "px/frame"};
  m["render.ns_per_segment"] = {ratio(renderNs, segments), "ns"};
  m["render.full_recomposites"] = {fullRecomposites, "count"};
  // render.sharedcache
  const auto sharedDelta = [&](const char* key) {
    const std::string k = std::string("render.shared.") + key;
    const auto a = in.sharedAfter.find(k);
    const auto b = in.sharedBefore.find(k);
    return static_cast<double>((a == in.sharedAfter.end() ? 0 : a->second) -
                               (b == in.sharedBefore.end() ? 0 : b->second));
  };
  m["sharedcache.cross_hit_rate"] = {
      ratio(sharedDelta("cross_hits"),
            sharedDelta("hits") + sharedDelta("misses")),
      "share"};
  m["sharedcache.cells_shared_blitted_per_frame"] = {
      ratio(sharedBlitted, frames), "cells/frame"};
  m["sharedcache.evictions"] = {sharedDelta("evictions"), "count"};
  m["sharedcache.bytes_peak"] = {static_cast<double>(cacheBytesPeak), "bytes"};
  // cluster.wire
  m["wire.encode_us_p50"] = {median(spanUs["wire.encode"]), "us"};
  m["wire.decode_us_p50"] = {median(spanUs["wire.decode"]), "us"};
  m["wire.bytes_per_frame"] = {ratio(prefixBytes, prefixFrames), "bytes/frame"};
  m["wire.delta_frac"] = {ratio(deltaPackets, frames), "share"};
  m["wire.resyncs"] = {resyncs, "count"};
  // traj.store (zero where the workload has no store)
  m["store.shard_loads"] = {prefixLoads, "count"};
  m["store.hit_rate"] = {ratio(storeHits, storeHits + storeMisses), "share"};
  // Computed, not measured: loads times the mean shard payload size.
  m["store.bytes_read"] = {storeMisses * in.meanShardBytes, "bytes"};
  m["store.load_us_p50"] = {median(in.storeLoadUs), "us"};
  m["store.peak_resident_mb"] = {
      static_cast<double>(in.storePeakResidentBytes) / (1024.0 * 1024.0),
      "MB"};
  // core.progressive (zero where the session is not progressive)
  m["progressive.prepass_us_p50"] = {median(prepassUs), "us"};
  m["progressive.refine_us_p50"] = {median(spanUs["service.refine"]), "us"};
  m["progressive.refine_calls_per_query"] = {
      ratio(static_cast<double>(refineFrames),
            static_cast<double>(queryCycles)),
      "calls/query"};
  m["progressive.pruned_frac"] = {
      ratio(static_cast<double>(pruned), static_cast<double>(prefixShards)),
      "share"};
  // setup
  m["setup.dataset_s"] = {in.setup.datasetS, "s"};
  m["setup.store_write_s"] = {in.setup.storeWriteS, "s"};
  m["setup.som_train_s"] = {in.setup.somTrainS, "s"};
  m["setup.context_s"] = {in.setup.contextS, "s"};
  // frame bookkeeping
  m["frame.unattributed_frac"] = {ratio(frameNs - childNs, frameNs), "share"};
  std::vector<double> tracedMs;
  for (const ClientLog& log : logs) {
    for (const FrameRecord& f : log.frames) tracedMs.push_back(f.ms);
  }
  m["trace.overhead_frac"] = {
      ratio(median(tracedMs), in.untracedFrameP50) - 1.0, "share"};
}

// --- report ----------------------------------------------------------------------

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metricsJson(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " +
           jsonNumber(metric.value) + ", \"unit\": " +
           jsonString(metric.unit) + "}";
    first = false;
  }
  return out + "}";
}

constexpr const char* kReportNotes =
    "failed_frac = (inputs refused + frames failing a check) / inputs; "
    "store.bytes_read is computed (shard loads x mean shard payload "
    "bytes), not measured; store.*, progressive.* and setup.store_write_s/"
    "som_train_s read 0 on workloads without a shard store; "
    "first_frame/exact samples are inputs that start a query (dab, window), "
    "equal on sessions that are not progressive.";

struct Fingerprint {
  std::string isa;
  unsigned nproc = 0;
  unsigned globalPoolThreads = 0;
  unsigned renderPoolWorkers = 0;
  unsigned clientThreads = 0;

  std::string json() const {
    std::ostringstream o;
    o << "{\"isa\": " << jsonString(isa) << ", \"nproc\": " << nproc
      << ", \"compiler\": " << jsonString(SVQ_BENCH_COMPILER)
      << ", \"build_type\": " << jsonString(SVQ_BENCH_BUILD_TYPE)
      << ", \"threads\": {\"client\": " << clientThreads
      << ", \"render_pool_workers\": " << renderPoolWorkers
      << ", \"global_pool\": " << globalPoolThreads << "}}";
    return o.str();
  }
};

// --- command line --------------------------------------------------------------

struct Cli {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool selfCheck = false;
  std::string traceOut;
  std::string reportOut;
  std::string workDir = ".";
};

std::optional<Cli> parseCli(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (a == "--tiny") {
      cli.tiny = true;
    } else if (a == "--self-check") {
      cli.selfCheck = true;
    } else if (a == "--workload" && (v = value())) {
      cli.workload = *v;
    } else if (a == "--seed" && (v = value())) {
      cli.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      cli.seconds = std::strtod(v->c_str(), nullptr);
    } else if (a == "--trace" && (v = value())) {
      cli.trace = *v == "1";
    } else if (a == "--trace-out" && (v = value())) {
      cli.traceOut = *v;
    } else if (a == "--report" && (v = value())) {
      cli.reportOut = *v;
    } else if (a == "--work-dir" && (v = value())) {
      cli.workDir = *v;
    } else {
      return std::nullopt;
    }
  }
  if (!cli.selfCheck && cli.workload.empty()) return std::nullopt;
  if (!(cli.seconds > 0.0)) return std::nullopt;
  return cli;
}

std::optional<Workload> findWorkload(const std::string& name) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (name == w.name) return w.id;
  }
  return std::nullopt;
}

// --- one benchmark run ----------------------------------------------------------

int runBenchmark(const Cli& cli, Workload workload) {
  const Plan plan = makePlan(workload, cli.tiny);
  // Render pool and SOM training pool: fixed size, never nproc-derived.
  ThreadPool pool(std::max(1u, plan.renderWorkers));
  Fingerprint fp;
  fp.isa = util::toString(util::activeIsa());
  fp.nproc = static_cast<unsigned>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  fp.globalPoolThreads = ThreadPool::global().threadCount();
  fp.renderPoolWorkers = plan.renderWorkers;
  fp.clientThreads = plan.clientThreads;
  std::fprintf(stderr, "perfbench: %s seed=%llu seconds=%g trace=%d %s\n",
               cli.workload.c_str(),
               static_cast<unsigned long long>(cli.seed), cli.seconds,
               cli.trace ? 1 : 0, fp.json().c_str());

  // Set-up, several times; the last world is the one measured.
  std::vector<SetupTimes> setups;
  std::unique_ptr<World> world;
  for (int r = 0; r < plan.setupReps; ++r) {
    world.reset();
    world = buildWorld(plan, cli.seed, cli.seconds, &pool, cli.workDir);
    setups.push_back(world->times);
  }
  const auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return median(v);
  };
  SetupTimes setup;
  setup.datasetS = med(&SetupTimes::datasetS);
  setup.storeWriteS = med(&SetupTimes::storeWriteS);
  setup.somTrainS = med(&SetupTimes::somTrainS);
  setup.contextS = med(&SetupTimes::contextS);
  setup.coldFrameS = med(&SetupTimes::coldFrameS);
  setup.totalS = med(&SetupTimes::totalS);

  World& w = *world;
  const Ns origin = nowNs();
  const auto [steal0, jiffies0] = cpuJiffies();
  Metrics metrics;
  Metrics tail;  ///< reported, not gated
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::size_t checksRun = 0;
  std::string phaseNote;

  if (!cli.trace) {
    PhaseSpec phase;
    phase.seconds = cli.seconds;
    const std::vector<ClientLog> logs = runPhase(w, plan, phase, &pool);
    const PhaseSummary s = summarize(logs);
    addEndToEnd(metrics, tail, s, setup.totalS, peakRssMb());
    attempted = s.attempted;
    failed = s.failed;
    failures = s.failures;
    checksRun = s.checksRun;
    phaseNote = std::to_string(s.frameMs.size()) + " frames, " +
                std::to_string(s.firstMs.size()) + " query inputs";
  } else {
    // The traced phase runs first, from the state set-up left, so its
    // counter prefix is a pure function of the seed; the untraced phase
    // after it gives the base for the tracing overhead.
    LayerInputs in;
    in.setup = setup;
    in.sharedBefore = MetricsRegistry::global().snapshot("render.shared.");
    PhaseSpec traced;
    traced.seconds = cli.seconds / 2.0;
    traced.traced = true;
    traced.minInputs = plan.prefixInputs;
    const std::vector<ClientLog> tracedLogs = runPhase(w, plan, traced, &pool);
    in.sharedAfter = MetricsRegistry::global().snapshot("render.shared.");
    if (w.store) {
      in.storePeakResidentBytes = w.store->cacheStats().peakBytesResident;
    }

    PhaseSpec untraced;
    untraced.seconds = cli.seconds / 2.0;
    const std::vector<ClientLog> untracedLogs =
        runPhase(w, plan, untraced, &pool);
    const PhaseSummary u = summarize(untracedLogs);
    in.untracedFrameP50 = median(u.frameMs);

    // traj.store outside probe: read + CRC check + decode of every shard
    // from a cold cache, each in its own span.
    TraceBuffer probe(true, 99);
    if (w.store) {
      double total = 0.0;
      for (std::size_t i = 0; i < w.store->shardCount(); ++i) {
        total += static_cast<double>(w.store->shardInfo(i).byteSize);
        w.store->clearCache();
        const Ns s0 = nowNs();
        {
          ScopedSpan span(&probe, "store.shard", UINT32_MAX, 0);
          if (w.store->shard(i) == nullptr) {
            ++failed;
            failures.push_back("shard " + std::to_string(i) + " unreadable");
          }
        }
        in.storeLoadUs.push_back(static_cast<double>(nowNs() - s0) / 1e3);
      }
      in.meanShardBytes =
          ratio(total, static_cast<double>(w.store->shardCount()));
    }
    addPerLayer(metrics, plan, tracedLogs, in);

    const PhaseSummary t = summarize(tracedLogs);
    attempted = t.attempted + u.attempted;
    failed += t.failed + u.failed;
    failures.insert(failures.end(), t.failures.begin(), t.failures.end());
    failures.insert(failures.end(), u.failures.begin(), u.failures.end());
    checksRun = t.checksRun + u.checksRun;
    phaseNote = std::to_string(t.frameMs.size()) + " traced frames, " +
                std::to_string(u.frameMs.size()) + " untraced frames";

    if (!cli.traceOut.empty()) {
      std::vector<const TraceBuffer*> buffers;
      for (const ClientLog& log : tracedLogs) buffers.push_back(log.trace.get());
      buffers.push_back(&probe);
      const std::string meta = "{\"workload\": " + jsonString(cli.workload) +
                               ", \"seed\": " + std::to_string(cli.seed) +
                               ", \"fingerprint\": " + fp.json() + "}";
      if (!writeChromeTrace(cli.traceOut, buffers, origin, meta, 10000)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     cli.traceOut.c_str());
      }
    }
  }

  const auto [steal1, jiffies1] = cpuJiffies();
  const double stealFrac = ratio(steal1 - steal0, jiffies1 - jiffies0);
  const bool correct = failed == 0;
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  std::fprintf(stderr,
               "perfbench: %s, %zu checks, %zu/%zu failed, cpu steal %.3f\n",
               phaseNote.c_str(), checksRun, failed, attempted, stealFrac);
  for (const Metrics* group : {&metrics, &tail}) {
    for (const auto& [name, metric] : *group) {
      std::fprintf(stderr, "  %-42s %16.6f %s%s\n", name.c_str(),
                   metric.value, metric.unit,
                   group == &tail ? "  (not gated)" : "");
    }
  }
  if (!cli.reportOut.empty()) {
    std::ofstream report(cli.reportOut);
    report << "{\"workload\": " << jsonString(cli.workload)
           << ", \"seed\": " << cli.seed << ", \"seconds\": "
           << jsonNumber(cli.seconds) << ", \"trace\": " << (cli.trace ? 1 : 0)
           << ", \"fingerprint\": " << fp.json()
           << ", \"setup_reps\": " << plan.setupReps
           << ", \"cold_frame_s\": " << jsonNumber(setup.coldFrameS)
           << ", \"samples\": " << jsonString(phaseNote)
           << ", \"cpu_steal_frac\": " << jsonNumber(stealFrac)
           << ", \"checks_run\": " << checksRun
           << ", \"failed_frac\": "
           << jsonNumber(ratio(static_cast<double>(failed),
                               static_cast<double>(attempted)))
           << ", \"notes\": " << jsonString(kReportNotes)
           << ", \"metrics\": " << metricsJson(metrics)
           << ", \"ungated_metrics\": " << metricsJson(tail) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(attempted, 1),
              failed, metricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- self-check: every check must fail against a wrong reference ---------------

int selfCheck(const Cli& cli) {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::fprintf(stderr, "self-check: %-58s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++bad;
  };
  for (Workload wl : {Workload::kDab432, Workload::kRefineStore}) {
    const Plan plan = makePlan(wl, true);
    ThreadPool pool(std::max(1u, plan.renderWorkers));
    auto world = buildWorld(plan, cli.seed, 1.0, &pool, cli.workDir);
    World& w = *world;
    TenantState& t = w.tenants.front();
    // Drive a few inputs so the references carry highlights.
    std::size_t dabs = 0;
    while (dabs < 3) {
      const Input& in = (*t.script)[t.cursor++ % t.script->size()];
      if (in.kind != InputKind::kDab) continue;
      ++dabs;
      if (!runFrame(w, t, in, nullptr, 0).ok) {
        expect(false, "frame ran");
      }
      if (plan.progressive) {
        const Input refine{InputKind::kRefine, ui::BrushClearEvent{}};
        for (std::size_t i = 0; i < w.store->shardCount() + 2; ++i) {
          (void)runFrame(w, t, refine, nullptr, 0);
        }
      }
    }
    ThreadPool* renderPool = plan.renderWorkers > 0 ? &pool : nullptr;
    CheckTally tally;
    const std::string tag = plan.progressive ? "refine_store" : "dab_432";
    expect(checkFrame(w, t, renderPool, tally) == 0,
           (tag + ": frame checks pass on the true references").c_str());
    Corrupt c;
    c.wire = true;
    expect(checkFrame(w, t, renderPool, tally, c) == 1,
           (tag + ": wire check fails on a wrong scene hash").c_str());
    c = Corrupt{};
    c.render = true;
    expect(checkFrame(w, t, renderPool, tally, c) == 1,
           (tag + ": render check fails on a wrong pixel").c_str());
    c = Corrupt{};
    c.query = true;
    expect(checkFrame(w, t, renderPool, tally, c) == 1,
           (tag + ": query check fails on a wrong highlight").c_str());
    if (plan.progressive) {
      expect(checkConverged(w, t, tally) == 0,
             "refine_store: estimates check passes on exactReference");
      expect(checkConverged(w, t, tally, true) == 1,
             "refine_store: estimates check fails on a wrong estimate");
    }
  }
  std::printf("{\"self_check\": %s}\n", bad == 0 ? "true" : "false");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  // Both knobs are read inside the library whatever the caller passes, so
  // a run with either set would not measure the configured program.
  for (const char* knob : {"SVQ_FORCE_SCALAR", "SVQ_ANYTIME_BUDGET_MS"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", knob);
      return 2;
    }
  }
  const std::optional<pb::Cli> cli = pb::parseCli(argc, argv);
  if (!cli) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--tiny] [--trace-out PATH] [--report PATH] "
                 "[--work-dir DIR]\n       %s --self-check [--work-dir DIR]\n",
                 argv[0], argv[0]);
    return 2;
  }
  try {
    if (cli->selfCheck) return pb::selfCheck(*cli);
    const std::optional<pb::Workload> w = pb::findWorkload(cli->workload);
    if (!w) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   cli->workload.c_str());
      return 2;
    }
    return pb::runBenchmark(*cli, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 3;
  }
}
