// Anytime-query bench: time-to-first-pixel vs time-to-exact for the
// two-phase progressive evaluation (core/progressive.h) over a shard
// store.
//
// The paper's interaction contract is a first response within one frame
// budget; the engineering contract on top is that letting the answer
// *converge* costs little more than computing it exactly from scratch.
// This driver measures both ends of that trade and emits the
// convergence curve between them:
//
//   full_exact     from-scratch exact evaluation of every cluster's
//                  members (ProgressiveClusterQuery::exactReference) +
//                  scene build + raster — the no-anytime baseline.
//   first_pixel    begin() pre-pass (prototypes + summary classification)
//                  + progressive overview build + raster — what the
//                  analyst sees immediately.
//   time_to_exact  begin() + refineStep() loop to convergence + final
//                  scene + raster. The printed curve samples (ms,
//                  coverage) after every step.
//
// Acceptance checks (non-zero exit on failure):
//   - exactness: converged estimates equal exactReference bit-for-bit,
//     for refinement chunk sizes 1 / 3 / unbounded,
//   - render bit-identity: the converged progressive scene rasters to
//     the same pixels as the exact-reference scene at 1/4/8 render
//     threads, with the shared cell cache on and off,
//   - (full run only) first_pixel median <= 16 ms and time_to_exact
//     median <= 1.25x full_exact median.
//
// Writes BENCH_progressive.json (util/bench_report.h; consumed by
// scripts/perf_smoke.py against bench/baselines/
// BENCH_progressive_smoke.json). --smoke shrinks the store for CI;
// --out=PATH overrides the report path.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/clusterscene.h"
#include "core/progressive.h"
#include "render/pipeline.h"
#include "render/sharedcache.h"
#include "util/stopwatch.h"
#include "util/threadpool.h"

using namespace svq;

namespace {

using Options = bench::BenchCliOptions;

constexpr double kFirstPixelBudgetMs = 16.0;
constexpr double kExactOverFullCeiling = 1.25;

core::BrushGrid makeBrush(float arenaRadiusCm) {
  core::BrushCanvas canvas(arenaRadiusCm, 256);
  core::paintArenaHalf(canvas, 0, traj::ArenaSide::kWest, arenaRadiusCm);
  // A second, localized dab so the paint mask is not a trivial half-plane.
  canvas.addStroke({1, {arenaRadiusCm * 0.4f, arenaRadiusCm * 0.3f},
                    arenaRadiusCm * 0.1f});
  return canvas.grid();
}

/// Renders `overview` through a fresh pipeline and returns the frame hash.
std::uint64_t rasterHash(const core::ClusterOverviewScene& overview,
                         const wall::WallSpec& wall, ThreadPool* pool,
                         render::SharedCellCache* cache) {
  render::PipelineOptions po;
  po.pool = pool;
  po.sharedCache = cache;
  render::CellRenderPipeline pipe(po);
  render::Framebuffer fb(wall.totalPxW(), wall.totalPxH());
  pipe.render(overview.scene, overview.averagesDataset,
              render::Canvas::whole(fb), render::Eye::kLeft);
  return fb.contentHash();
}

int run(const Options& opt) {
  const std::size_t trajCount = opt.smoke ? 300 : 2000;
  const std::uint32_t shardCapacity = opt.smoke ? 32 : 64;
  const std::size_t somDim = opt.smoke ? 4 : 6;
  const int reps = opt.smoke ? 5 : 15;
  const wall::WallSpec wall =
      opt.smoke ? bench::reducedWall(160, 90) : bench::reducedWall();

  const auto& ds = bench::dataset(trajCount);
  const std::string storePath =
      (std::filesystem::temp_directory_path() / "svq_bench_progressive.svqs")
          .string();
  if (!traj::writeShardStore(ds, storePath, shardCapacity)) {
    std::fprintf(stderr, "FAIL: cannot write shard store\n");
    return 1;
  }
  auto store = traj::ShardStore::open(storePath);
  if (!store) {
    std::fprintf(stderr, "FAIL: cannot open shard store\n");
    return 1;
  }
  traj::SomParams sp;
  sp.rows = somDim;
  sp.cols = somDim;
  traj::FeatureParams fp;
  fp.arenaRadiusCm = ds.arena().radiusCm;
  const core::ShardSomExplorer explorer(*store, sp, fp);

  std::printf("=== anytime query: %zu trajectories, %zu shards, %zux%zu SOM"
              " ===\n",
              ds.size(), store->shardCount(), somDim, somDim);

  const core::BrushGrid brush = makeBrush(ds.arena().radiusCm);
  core::QueryParams params;
  core::ClusterSceneOptions sceneOptions;

  util::BenchReport report;
  bool ok = true;

  // --- full exact baseline ---------------------------------------------------
  std::vector<double> fullMs;
  std::vector<core::ClusterEstimate> exact;
  core::ClusterOverviewScene exactScene;
  for (int r = 0; r < reps; ++r) {
    store->clearCache();
    Stopwatch w;
    exact = core::ProgressiveClusterQuery::exactReference(explorer, brush,
                                                          params);
    const core::QueryResult prototypes =
        explorer.queryClusters(brush, params);
    exactScene = core::buildProgressiveOverview(explorer, prototypes, exact,
                                                wall, sceneOptions);
    (void)rasterHash(exactScene, wall, nullptr, nullptr);
    fullMs.push_back(w.elapsedMillis());
  }
  report.add("full_exact", fullMs);

  // --- first pixel: pre-pass + overview + raster -----------------------------
  std::vector<double> firstPixelMs;
  std::size_t pendingAfterPrepass = 0;
  std::size_t prunedShards = 0;
  for (int r = 0; r < reps; ++r) {
    store->clearCache();
    core::ProgressiveClusterQuery query(explorer);
    Stopwatch w;
    query.begin(brush, params);
    const auto overview =
        core::buildProgressiveOverview(query, wall, sceneOptions);
    (void)rasterHash(overview, wall, nullptr, nullptr);
    firstPixelMs.push_back(w.elapsedMillis());
    pendingAfterPrepass = query.pendingShards();
    prunedShards = query.prunedShards();
  }
  {
    auto& s = report.add("first_pixel", firstPixelMs);
    s.counters["pending_after_prepass"] =
        static_cast<double>(pendingAfterPrepass);
    s.counters["pruned_shards"] = static_cast<double>(prunedShards);
    s.counters["first_pixel_budget_ratio"] =
        util::median(firstPixelMs) / kFirstPixelBudgetMs;
  }

  // --- time to exact: refine loop to convergence -----------------------------
  std::vector<double> exactLoopMs;
  std::vector<std::pair<double, double>> curve;  // (ms, coverage)
  const std::size_t chunk = opt.smoke ? 2 : 4;
  for (int r = 0; r < reps; ++r) {
    store->clearCache();
    core::ProgressiveClusterQuery query(explorer);
    Stopwatch w;
    query.begin(brush, params);
    if (r == 0) curve.emplace_back(w.elapsedMillis(), query.coverage());
    while (!query.converged()) {
      query.refineStep(chunk);
      if (r == 0) curve.emplace_back(w.elapsedMillis(), query.coverage());
    }
    const auto overview =
        core::buildProgressiveOverview(query, wall, sceneOptions);
    (void)rasterHash(overview, wall, nullptr, nullptr);
    exactLoopMs.push_back(w.elapsedMillis());
    if (query.estimates() != exact) {
      std::fprintf(stderr,
                   "FAIL: converged estimates differ from exactReference "
                   "(rep %d)\n",
                   r);
      ok = false;
    }
  }
  const double exactOverFull =
      util::median(fullMs) > 0.0
          ? util::median(exactLoopMs) / util::median(fullMs)
          : 0.0;
  {
    auto& s = report.add("time_to_exact", exactLoopMs);
    s.counters["exact_over_full"] = exactOverFull;
    s.counters["refine_chunk"] = static_cast<double>(chunk);
    s.counters["curve_points"] = static_cast<double>(curve.size());
  }
  std::printf("convergence curve (ms, coverage):");
  for (const auto& [ms, cov] : curve) std::printf(" (%.2f, %.2f)", ms, cov);
  std::printf("\n");

  // --- exactness across refinement schedules ---------------------------------
  for (const std::size_t schedule : {std::size_t{1}, std::size_t{3},
                                     std::size_t{1} << 20}) {
    core::ProgressiveClusterQuery query(explorer);
    query.begin(brush, params);
    while (!query.converged()) query.refineStep(schedule);
    if (query.estimates() != exact) {
      std::fprintf(stderr,
                   "FAIL: chunk-%zu converged estimates differ from "
                   "exactReference\n",
                   schedule);
      ok = false;
    }
  }

  // --- render bit-identity: threads x shared cache ---------------------------
  {
    core::ProgressiveClusterQuery query(explorer);
    query.begin(brush, params);
    while (!query.converged()) query.refineStep(3);
    const auto overview =
        core::buildProgressiveOverview(query, wall, sceneOptions);
    const std::uint64_t want = rasterHash(exactScene, wall, nullptr, nullptr);
    for (const unsigned threads : {1u, 4u, 8u}) {
      for (const bool cached : {false, true}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
        render::SharedCellCache cache;
        const std::uint64_t got = rasterHash(
            overview, wall, pool.get(), cached ? &cache : nullptr);
        if (got != want) {
          std::fprintf(stderr,
                       "FAIL: converged frame differs from exact at %u "
                       "threads, cache %s\n",
                       threads, cached ? "on" : "off");
          ok = false;
        }
      }
    }
  }

  // --- report ----------------------------------------------------------------
  std::printf("%-16s %10s %10s\n", "scenario", "median ms", "p95 ms");
  for (const auto& s : report.scenarios()) {
    std::printf("%-16s %10.3f %10.3f\n", s.name.c_str(), s.medianMs, s.p95Ms);
  }
  std::printf("first pixel:  %.2f ms (budget %.0f ms)\n",
              util::median(firstPixelMs), kFirstPixelBudgetMs);
  std::printf("time to exact: %.2f ms = %.2fx full exact\n",
              util::median(exactLoopMs), exactOverFull);

  if (!opt.smoke) {
    if (util::median(firstPixelMs) > kFirstPixelBudgetMs) {
      std::fprintf(stderr, "FAIL: first pixel %.2f ms over the %.0f ms budget\n",
                   util::median(firstPixelMs), kFirstPixelBudgetMs);
      ok = false;
    }
    if (exactOverFull > kExactOverFullCeiling) {
      std::fprintf(stderr,
                   "FAIL: time-to-exact %.2fx full, over the %.2fx ceiling\n",
                   exactOverFull, kExactOverFullCeiling);
      ok = false;
    }
  }

  if (!bench::writeReport(report, opt.out)) ok = false;

  std::error_code ec;
  std::filesystem::remove(storePath, ec);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parseBenchCli(argc, argv, "BENCH_progressive.json");
  if (!opt) return 2;
  return run(*opt);
}
