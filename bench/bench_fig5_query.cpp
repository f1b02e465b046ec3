// E3 (Fig. 5): coordinated brushing as a scalable visual query.
//
// Regenerates: the Fig. 5 hypothesis reading (per-capture-group support
// for "exits on the brushed side", with the planted-effect dataset and a
// null-model negative control), brush painting cost, and query evaluation
// cost as the trajectory count grows — the "entire dataset visually
// queried in a matter of few seconds" claim reduces computationally to
// millisecond-scale evaluation plus pre-attentive perception.
//
// Writes BENCH_query.json (see util/bench_report.h; consumed by
// scripts/perf_smoke.py): the incremental-vs-full dab edit ratios plus the
// SIMD-vs-scalar point-in-brush kernel ratio, which must come with
// bit-identical outputs (non-zero exit otherwise). --smoke shrinks the
// scene/rep counts for CI and skips the Google-benchmark suites;
// --out=PATH overrides the report path.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/hypothesis.h"
#include "core/query.h"
#include "core/queryengine.h"
#include "core/querykernel.h"
#include "util/bench_report.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stopwatch.h"

using namespace svq;

namespace {

core::BrushGrid westBrush(float arenaRadius) {
  core::BrushCanvas canvas(arenaRadius, 256);
  core::paintArenaHalf(canvas, 0, traj::ArenaSide::kWest, arenaRadius);
  return canvas.grid();
}

void BM_BrushPaintHalfArena(benchmark::State& state) {
  for (auto _ : state) {
    core::BrushCanvas canvas(50.0f, 256);
    core::paintArenaHalf(canvas, 0, traj::ArenaSide::kWest, 50.0f);
    benchmark::DoNotOptimize(canvas);
  }
}
BENCHMARK(BM_BrushPaintHalfArena)->Unit(benchmark::kMillisecond);

void BM_BrushDab(benchmark::State& state) {
  core::BrushGrid grid(50.0f, 256);
  for (auto _ : state) {
    grid.paint({0, {0.0f, 0.0f}, 5.0f});
    benchmark::DoNotOptimize(grid);
  }
}
BENCHMARK(BM_BrushDab)->Unit(benchmark::kMicrosecond);

void BM_QueryEval(benchmark::State& state) {
  const auto& ds = bench::dataset(static_cast<std::size_t>(state.range(0)));
  const core::BrushGrid brush = westBrush(ds.arena().radiusCm);
  std::vector<std::uint32_t> indices(ds.size());
  for (std::uint32_t i = 0; i < ds.size(); ++i) indices[i] = i;
  core::QueryParams params;
  std::size_t highlighted = 0;
  for (auto _ : state) {
    const auto result = core::evaluate(core::makeRefs(ds, indices), brush, params);
    highlighted = result.trajectoriesHighlighted;
    benchmark::DoNotOptimize(result);
  }
  state.counters["trajectories"] = static_cast<double>(ds.size());
  state.counters["points"] = static_cast<double>(ds.totalPoints());
  state.counters["highlighted"] = static_cast<double>(highlighted);
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(ds.totalPoints()));
}
BENCHMARK(BM_QueryEval)->Arg(100)->Arg(500)->Arg(2000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_QueryEvalSequential(benchmark::State& state) {
  const auto& ds = bench::dataset(static_cast<std::size_t>(state.range(0)));
  const core::BrushGrid brush = westBrush(ds.arena().radiusCm);
  std::vector<std::uint32_t> indices(ds.size());
  for (std::uint32_t i = 0; i < ds.size(); ++i) indices[i] = i;
  core::QueryParams params;
  params.parallel = false;
  for (auto _ : state) {
    const auto result = core::evaluate(core::makeRefs(ds, indices), brush, params);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(ds.totalPoints()));
}
BENCHMARK(BM_QueryEvalSequential)->Arg(500)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

// --- incremental engine ------------------------------------------------------

std::vector<std::uint32_t> allIndices(const traj::TrajectoryDataset& ds) {
  std::vector<std::uint32_t> indices(ds.size());
  for (std::uint32_t i = 0; i < ds.size(); ++i) indices[i] = i;
  return indices;
}

/// Steady-state cost of a localized dab edit: the engine re-classifies
/// only the trajectories whose footprint intersects the dab.
void BM_QueryEngineIncrementalDab(benchmark::State& state) {
  const auto& ds = bench::dataset(static_cast<std::size_t>(state.range(0)));
  const auto indices = allIndices(ds);
  core::BrushCanvas canvas(ds.arena().radiusCm, 256);
  core::paintArenaHalf(canvas, 0, traj::ArenaSide::kWest,
                       ds.arena().radiusCm);
  core::QueryEngine engine;
  engine.setTrajectories(ds, indices);
  engine.setBrush(&canvas.grid());
  engine.evaluate();  // warm the spatial cache

  // Dab on a spot the data actually visits, so the edit is non-trivial.
  const Vec2 dabPos = ds[0].view().pos(ds[0].size() / 2);
  for (auto _ : state) {
    const AABB2 dirty =
        canvas.addStroke(core::BrushStroke{1, dabPos, 3.0f});
    engine.invalidateRegion(dirty);
    const auto result = engine.evaluate();
    benchmark::DoNotOptimize(result);
  }
  const auto& m = engine.metrics();
  state.counters["invalidated"] = static_cast<double>(m.lastPassInvalidated);
  state.counters["reused"] = static_cast<double>(m.lastPassReused);
  state.counters["cache_hit_rate"] = m.cacheHitRate();
}
BENCHMARK(BM_QueryEngineIncrementalDab)->Arg(432)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

/// Baseline the dab edit competes with: full stateless re-evaluation.
void BM_QueryEngineFullReeval(benchmark::State& state) {
  const auto& ds = bench::dataset(static_cast<std::size_t>(state.range(0)));
  const auto indices = allIndices(ds);
  core::BrushCanvas canvas(ds.arena().radiusCm, 256);
  core::paintArenaHalf(canvas, 0, traj::ArenaSide::kWest,
                       ds.arena().radiusCm);
  for (auto _ : state) {
    const auto result = core::evaluate(core::makeRefs(ds, indices),
                                       canvas.grid(), core::QueryParams{});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_QueryEngineFullReeval)->Arg(432)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_HypothesisEvaluate(benchmark::State& state) {
  const auto& ds = bench::dataset(500);
  const core::Hypothesis h = core::makeHomingHypothesis(
      traj::CaptureSide::kEast, traj::ArenaSide::kWest,
      ds.arena().radiusCm);
  for (auto _ : state) {
    const auto r = core::evaluateHypothesis(h, ds);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HypothesisEvaluate)->Unit(benchmark::kMillisecond);

void printContext() {
  std::printf("\n=== E3 / Fig. 5: the homing visual query ===\n");
  std::printf("query: west half brushed red; reading: which trajectories "
              "END in the brushed half\n\n");

  auto report = [](const char* label, const traj::TrajectoryDataset& ds) {
    const core::BrushGrid brush = westBrush(ds.arena().radiusCm);
    std::printf("-- %s --\n", label);
    std::printf("%-10s %-8s %-16s\n", "captured", "n", "ends in west");
    for (traj::CaptureSide side :
         {traj::CaptureSide::kOnTrail, traj::CaptureSide::kWest,
          traj::CaptureSide::kEast, traj::CaptureSide::kNorth,
          traj::CaptureSide::kSouth}) {
      const auto indices = ds.select([side](const traj::Trajectory& t) {
        return t.meta().side == side;
      });
      const auto result =
          core::evaluate(core::makeRefs(ds, indices), brush, core::QueryParams{});
      std::size_t endWest = 0;
      for (const auto& s : result.summaries) {
        if (s.lastSegmentBrush == 0) ++endWest;
      }
      std::printf("%-10s %-8zu %zu (%.0f%%)\n", traj::toString(side),
                  indices.size(), endWest,
                  indices.empty() ? 0.0
                                  : 100.0 * static_cast<double>(endWest) /
                                        static_cast<double>(indices.size()));
    }
  };

  report("planted-effect dataset (paper's field data analogue)",
         bench::dataset(500));

  traj::AntSimulator nullSim(traj::AntBehaviorParams{}.nullModel(),
                             0x5C2012ULL);
  traj::DatasetSpec spec;
  spec.count = 500;
  const auto nullDs = nullSim.generate(spec);
  report("null-model control (no behavioural effects)", nullDs);
  std::printf("expected shape: east bin ~100%% on planted data, all bins "
              "near-uniform on the null control\n\n");
}

/// Headline comparison for the incremental engine: localized dab edit on
/// the 432-cell scene, incremental vs full re-evaluation.
void printIncrementalReport(util::BenchReport& json, bool smoke) {
  // Full runs use the paper's 36x12 = 432-cell wall; smoke shrinks it.
  const std::size_t kSceneSize = smoke ? 120 : 432;
  const auto& ds = bench::dataset(kSceneSize);
  const auto indices = [&] {
    std::vector<std::uint32_t> v(ds.size());
    for (std::uint32_t i = 0; i < ds.size(); ++i) v[i] = i;
    return v;
  }();
  core::BrushCanvas canvas(ds.arena().radiusCm, 256);
  core::paintArenaHalf(canvas, 0, traj::ArenaSide::kWest,
                       ds.arena().radiusCm);

  core::QueryEngine engine;
  engine.setTrajectories(ds, indices);
  engine.setBrush(&canvas.grid());
  engine.evaluate();  // warm cache
  const Vec2 dabPos = ds[0].view().pos(ds[0].size() / 2);

  const int kReps = smoke ? 10 : 25;
  std::vector<double> fullSamples, incrSamples;
  for (int r = 0; r < kReps; ++r) {
    Stopwatch w;
    const auto result = core::evaluate(core::makeRefs(ds, indices),
                                       canvas.grid(), engine.params());
    fullSamples.push_back(w.elapsedMillis());
    benchmark::DoNotOptimize(result);
  }
  engine.resetMetrics();
  for (int r = 0; r < kReps; ++r) {
    const AABB2 dirty =
        canvas.addStroke(core::BrushStroke{1, dabPos, 3.0f});
    engine.invalidateRegion(dirty);
    Stopwatch w;
    const auto result = engine.evaluate();
    incrSamples.push_back(w.elapsedMillis());
    benchmark::DoNotOptimize(result);
  }
  double fullMs = 0.0, incrMs = 0.0;
  for (const double s : fullSamples) fullMs += s;
  for (const double s : incrSamples) incrMs += s;
  fullMs /= kReps;
  incrMs /= kReps;
  const auto& m = engine.metrics();

  // Machine-readable mirror of this report for CI's perf-smoke job.
  json.add("query_full_reeval", fullSamples);
  auto& incr = json.add("query_incremental_dab", incrSamples);
  incr.counters["invalidated"] =
      static_cast<double>(m.lastPassInvalidated);
  incr.counters["reused"] = static_cast<double>(m.lastPassReused);
  incr.counters["cache_hit_rate"] = m.cacheHitRate();
  incr.counters["speedup_vs_full"] =
      util::median(incrSamples) > 0.0
          ? util::median(fullSamples) / util::median(incrSamples)
          : 0.0;

  std::printf("=== incremental engine: localized dab on the %zu-cell scene "
              "===\n", kSceneSize);
  std::printf("full re-evaluation:   %8.3f ms\n", fullMs);
  std::printf("incremental edit:     %8.3f ms  (last pass: %llu "
              "re-classified, %llu reused, hit rate %.1f%%)\n",
              incrMs,
              static_cast<unsigned long long>(m.lastPassInvalidated),
              static_cast<unsigned long long>(m.lastPassReused),
              100.0 * m.cacheHitRate());
  std::printf("speedup:              %8.1fx %s\n\n",
              incrMs > 0.0 ? fullMs / incrMs : 0.0,
              fullMs >= 5.0 * incrMs ? "(>= 5x target met)"
                                     : "(below 5x target!)");
}

/// SIMD-vs-scalar ratio of the point-in-brush kernel on a dense SoA sweep,
/// with a bit-identity check between the two paths. Returns false (and the
/// bench exits non-zero) if the dispatched kernel's output ever differs
/// from scalar — the determinism contract underneath every query result.
bool printKernelRatioReport(util::BenchReport& json, bool smoke) {
  const float arenaRadius = 50.0f;
  const core::BrushGrid brush = westBrush(arenaRadius);
  const core::BrushGridView view = brush.view();
  const util::Isa isa = util::activeIsa();

  const std::size_t n = smoke ? (1u << 15) : (1u << 18);
  Rng rng(0x51D0ULL);
  std::vector<float> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1.5f * arenaRadius, 1.5f * arenaRadius);
    y[i] = rng.uniform(-1.5f * arenaRadius, 1.5f * arenaRadius);
  }
  std::vector<std::int8_t> outScalar(n), outSimd(n);

  const int kReps = smoke ? 15 : 40;
  std::vector<double> scalarMs, simdMs;
  for (int r = 0; r < kReps; ++r) {
    Stopwatch w;
    core::pointBrushScalar(view, x.data(), y.data(), outScalar.data(), n);
    scalarMs.push_back(w.elapsedMillis());
    benchmark::DoNotOptimize(outScalar);
  }
  for (int r = 0; r < kReps; ++r) {
    Stopwatch w;
    core::pointBrushVariant(isa, view, x.data(), y.data(), outSimd.data(), n);
    simdMs.push_back(w.elapsedMillis());
    benchmark::DoNotOptimize(outSimd);
  }
  const bool identical =
      std::memcmp(outScalar.data(), outSimd.data(), n) == 0;
  const double ratio = util::median(simdMs) > 0.0
                           ? util::median(scalarMs) / util::median(simdMs)
                           : 0.0;

  auto& s = json.add("query_point_kernel", simdMs);
  s.counters["scalar_median_ms"] = util::median(scalarMs);
  s.counters["simd_speedup"] = ratio;
  s.counters["bit_identical"] = identical ? 1.0 : 0.0;
  s.counters["points"] = static_cast<double>(n);

  std::printf("=== point-in-brush kernel: %s vs scalar, %zu points ===\n",
              util::toString(isa), n);
  std::printf("scalar:   %8.3f ms\nsimd:     %8.3f ms\nratio:    %8.2fx  "
              "outputs %s\n\n",
              util::median(scalarMs), util::median(simdMs), ratio,
              identical ? "bit-identical" : "DIFFER");

  bool ok = identical;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: %s kernel output differs from scalar\n",
                 util::toString(isa));
  }
  if (!smoke && isa != util::Isa::kScalar && ratio < 2.0) {
    std::fprintf(stderr,
                 "FAIL: %s kernel ratio %.2fx below the 2x target\n",
                 util::toString(isa), ratio);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Our flags are stripped into opt; benchmark::Initialize only sees the
  // collected passthrough.
  auto opt = bench::parseBenchCli(argc, argv, "BENCH_query.json",
                                  /*allowPassthrough=*/true);
  if (!opt) return 2;

  if (!opt->smoke) printContext();

  util::BenchReport json;
  printIncrementalReport(json, opt->smoke);
  bool ok = printKernelRatioReport(json, opt->smoke);
  if (!bench::writeReport(json, opt->out)) ok = false;

  if (!opt->smoke) {
    int pargc = static_cast<int>(opt->passthrough.size());
    benchmark::Initialize(&pargc, opt->passthrough.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return ok ? 0 : 1;
}
