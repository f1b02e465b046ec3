// Session-service bench: hundreds of concurrent explorers on one node.
//
// The multi-tenant acceptance driver for core::SessionService. One
// SharedContext (dataset + wall + cross-session render cache) serves N
// sessions; worker threads replay a mixed interaction workload — layout
// churn, group define/page/clear, popular-region brushing, per-tenant
// exploration strokes, time-window scrubbing (the bench_e8 analyst
// session, parameterized per tenant) — and periodically render each
// tenant's wall through a CellRenderPipeline backed by the shared cache.
// Tenants fall into a small number of behavioural variants, the way real
// crowds do, so identical cells recur across sessions and the shared
// cache turns N renders into ~variants rasterizations + N-variants blit
// sets (render.shared.cross_hits).
//
// Scenarios: sessions_1 / sessions_64 / sessions_256 / sessions_1024
// (smoke: 1/8/16), each reporting events/s, apply-latency p50/p99 (µs),
// shared-cache cross-hit-rate, and bytes. A separate isolation scenario
// replays 8 distinct sessions twice — serially (each alone, no shared
// cache) and interleaved through one SessionService with the shared
// cache on — and demands bit-identical per-tenant framebuffers.
//
// Acceptance checks (non-zero exit on failure):
//   - admission: session N+1 on a full node is refused with the typed
//     kAtCapacity status; every admitted session's events all apply,
//   - isolation: interleaved == serial, per tenant, bit-identical,
//   - (full run only) the 256-session scenario sustains all 256 tenants
//     with apply p99 <= 200 ms, and its cache cross-hit-rate >= 0.5.
//
// Writes BENCH_sessions.json (util/bench_report.h; consumed by
// scripts/perf_smoke.py against bench/baselines/BENCH_sessions_smoke.json).
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sessionservice.h"
#include "render/pipeline.h"
#include "util/bench_report.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

using namespace svq;

namespace {

using Options = bench::BenchCliOptions;

constexpr std::size_t kVariants = 16;

/// One tenant's event stream. Tenants of the same variant produce
/// identical streams (and therefore identical scenes — the shared-cache
/// dedupe driver); different variants brush different spots and scrub to
/// different windows.
// GCC 12 false-positives -Wmaybe-uninitialized on std::variant moves of
// the GroupDefineEvent alternative during vector growth (GCC bug 105593);
// every field below is value-initialized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
std::vector<ui::Event> tenantScript(std::size_t variant) {
  const float ang = 2.0f * 3.14159265f * static_cast<float>(variant) /
                    static_cast<float>(kVariants);
  const Vec2 spot{std::cos(ang) * 20.0f, std::sin(ang) * 20.0f};
  std::vector<ui::Event> ev;
  ev.reserve(32);
  // Orientation: everyone lands on the same layout and brushes the same
  // popular region first (identical across ALL tenants).
  ev.push_back(ui::LayoutSwitchEvent{1});
  ev.push_back(ui::BrushStrokeEvent{0, {-25.0f, 0.0f}, 10.0f});
  ev.push_back(ui::TimeWindowEvent{0.0f, 120.0f});
  // Grouping churn: define a bin, page through it, tear it down.
  ui::GroupDefineEvent g;
  g.groupId = 0;
  g.cellRect = {static_cast<int>(variant % 8) * 3, 0, 3, 3};
  g.colorIndex = static_cast<std::uint8_t>(variant % 5);
  ev.push_back(g);
  ev.push_back(ui::PageEvent{+1});
  ev.push_back(ui::PageEvent{-1});
  ev.push_back(ui::GroupClearEvent{0});
  // Per-variant exploration: a stroke storm around the tenant's spot.
  for (int i = 0; i < 8; ++i) {
    const float r = 4.0f + static_cast<float>(i % 3);
    ev.push_back(ui::BrushStrokeEvent{
        1, {spot.x + static_cast<float>(i), spot.y}, r});
    if (i % 2 == 1) {
      ev.push_back(
          ui::TimeWindowEvent{0.0f, 30.0f + 4.0f * static_cast<float>(i)});
    }
  }
  // Stereo scrub + settle on the variant's window (scene-state salt: only
  // same-variant tenants share cell keys from here on).
  ev.push_back(ui::TimeScaleEvent{0.4f});
  ev.push_back(ui::DepthOffsetEvent{-8.0f});
  ev.push_back(ui::BrushClearEvent{1});
  ev.push_back(ui::BrushStrokeEvent{1, spot, 8.0f});
  ev.push_back(
      ui::TimeWindowEvent{0.0f, 60.0f + static_cast<float>(variant)});
  return ev;
}
#pragma GCC diagnostic pop

struct ScaleOutcome {
  bool ok = true;
  double crossHitRate = 0.0;
  double elapsedMs = 0.0;
  std::uint64_t events = 0;
};

/// Runs N tenants over one SharedContext with `threads` workers; every
/// tenant replays its variant script via SessionService::apply /
/// submit+drain and renders its wall every `renderEvery` events.
ScaleOutcome runScale(std::size_t n, const traj::TrajectoryDataset& ds,
                      const wall::WallSpec& wall, unsigned threads,
                      util::BenchReport& report) {
  ScaleOutcome out;
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset("sessions.");
  reg.reset("render.shared.");

  const auto ctx = core::SharedContext::create(ds, wall);
  core::SessionService::Options sopt;
  sopt.maxSessions = n;
  core::SessionService svc(ctx, sopt);

  std::vector<core::SessionId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto admission = svc.admit();
    if (!admission) {
      std::fprintf(stderr, "FAIL: admission %zu/%zu refused: %s\n", i, n,
                   admission.status.message().c_str());
      out.ok = false;
      return out;
    }
    ids.push_back(admission.id);
  }
  // Typed refusal at capacity — the load-balancer contract.
  if (!svc.admit().status.isAtCapacity()) {
    std::fprintf(stderr, "FAIL: over-capacity admit not kAtCapacity\n");
    out.ok = false;
  }

  const std::size_t renderEvery = 8;
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> events{0};
  Stopwatch clock;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      render::Framebuffer fb(wall.totalPxW(), wall.totalPxH());
      for (std::size_t s = t; s < ids.size(); s += threads) {
        const auto script = tenantScript(s % kVariants);
        // One pipeline per tenant stream, all feeding the shared cache.
        // Local slot caching off: the shared cache is the pixel store.
        render::PipelineOptions popt;
        popt.cacheBudgetBytes = 0;
        popt.sharedCache = &ctx->renderCache();
        render::CellRenderPipeline pipe(popt);
        std::uint64_t applied = 0;
        for (std::size_t e = 0; e < script.size(); ++e) {
          // Odd tenants exercise the queued path, even ones the
          // synchronous path; both must preserve per-tenant order.
          const core::Status st = (s % 2 == 1)
                                      ? svc.submit(ids[s], script[e])
                                      : svc.apply(ids[s], script[e]);
          if (!st.isOk()) {
            std::fprintf(stderr, "FAIL: event %zu of tenant %zu: %s\n", e, s,
                         st.message().c_str());
            failed.store(true);
          }
          ++applied;
          if ((e + 1) % renderEvery == 0 || e + 1 == script.size()) {
            if (s % 2 == 1 && !svc.drain(ids[s]).isOk()) failed.store(true);
            render::SceneModel scene;
            if (!svc.buildScene(ids[s], scene).isOk()) {
              failed.store(true);
              continue;
            }
            pipe.render(scene, ds, render::Canvas::whole(fb),
                        render::Eye::kCenter);
          }
        }
        events.fetch_add(applied);
      }
    });
  }
  for (auto& w : workers) w.join();
  out.elapsedMs = clock.elapsedMillis();
  out.events = events.load();
  out.ok = out.ok && !failed.load();
  if (svc.activeSessions() != n) {
    std::fprintf(stderr, "FAIL: %zu of %zu sessions survived\n",
                 svc.activeSessions(), n);
    out.ok = false;
  }
  out.crossHitRate = ctx->renderCache().stats().crossHitRate();

  auto& s = report.add("sessions_" + std::to_string(n), {out.elapsedMs});
  bench::attachCounters(s, "sessions.");
  bench::attachCounters(s, "render.shared.");
  s.counters["sessions"] = static_cast<double>(n);
  s.counters["threads"] = static_cast<double>(threads);
  s.counters["events"] = static_cast<double>(out.events);
  s.counters["events_per_s"] =
      out.elapsedMs > 0.0 ? 1000.0 * static_cast<double>(out.events) /
                                out.elapsedMs
                          : 0.0;
  s.counters["cross_hit_rate"] = out.crossHitRate;
  return out;
}

/// 8 distinct tenants, replayed twice: serially (each alone over its own
/// context, no shared cache) and interleaved round-robin through one
/// SessionService with the shared cache on. Per-tenant framebuffers must
/// be bit-identical — concurrency and cross-session caching must never
/// change a single pixel of anyone's wall.
bool isolationCheck(const traj::TrajectoryDataset& ds,
                    const wall::WallSpec& wall, util::BenchReport& report) {
  constexpr std::size_t kTenants = 8;
  std::vector<std::vector<ui::Event>> scripts;
  for (std::size_t s = 0; s < kTenants; ++s) {
    scripts.push_back(tenantScript(s));  // 8 distinct variants
  }

  // Serial ground truth.
  std::vector<std::uint64_t> truth(kTenants);
  for (std::size_t s = 0; s < kTenants; ++s) {
    core::Session solo(core::SharedContext::create(ds, wall));
    for (const ui::Event& e : scripts[s]) solo.apply(e);
    const render::SceneModel scene = solo.buildScene();
    render::Framebuffer fb(wall.totalPxW(), wall.totalPxH());
    render::CellRenderPipeline pipe;
    pipe.render(scene, ds, render::Canvas::whole(fb), render::Eye::kCenter);
    truth[s] = fb.contentHash();
  }

  // Interleaved replay over one shared context + cache.
  const auto ctx = core::SharedContext::create(ds, wall);
  core::SessionService svc(ctx);
  std::vector<core::SessionId> ids;
  for (std::size_t s = 0; s < kTenants; ++s) {
    const auto admission = svc.admit();
    if (!admission) return false;
    ids.push_back(admission.id);
  }
  std::size_t longest = 0;
  for (const auto& sc : scripts) longest = std::max(longest, sc.size());
  for (std::size_t e = 0; e < longest; ++e) {
    for (std::size_t s = 0; s < kTenants; ++s) {
      if (e < scripts[s].size()) (void)svc.apply(ids[s], scripts[s][e]);
    }
  }

  Stopwatch clock;
  bool ok = true;
  for (std::size_t s = 0; s < kTenants; ++s) {
    render::SceneModel scene;
    if (!svc.buildScene(ids[s], scene).isOk()) {
      ok = false;
      continue;
    }
    render::Framebuffer fb(wall.totalPxW(), wall.totalPxH());
    render::PipelineOptions popt;
    popt.sharedCache = &ctx->renderCache();
    render::CellRenderPipeline pipe(popt);
    pipe.render(scene, ds, render::Canvas::whole(fb), render::Eye::kCenter);
    if (fb.contentHash() != truth[s]) {
      std::fprintf(stderr,
                   "FAIL: tenant %zu interleaved wall differs from serial\n",
                   s);
      ok = false;
    }
  }
  auto& sc = report.add("isolation_8way", {clock.elapsedMillis()});
  sc.counters["tenants"] = static_cast<double>(kTenants);
  sc.counters["bit_identical"] = ok ? 1.0 : 0.0;
  return ok;
}

int run(const Options& opt) {
  const std::size_t trajCount = opt.smoke ? 120 : 500;
  const wall::WallSpec wall =
      opt.smoke ? bench::reducedWall(160, 90) : bench::reducedWall();
  const std::vector<std::size_t> fleets =
      opt.smoke ? std::vector<std::size_t>{1, 8, 16}
                : std::vector<std::size_t>{1, 64, 256, 1024};
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned threads = std::max(2u, std::min(8u, hw == 0 ? 4u : hw));

  const auto& ds = bench::dataset(trajCount);
  std::printf("=== session service: multi-tenant replay (%s) ===\n",
              opt.smoke ? "smoke" : "full");
  std::printf("%zu trajectories, %dx%d px wall, %u worker threads\n",
              ds.size(), wall.totalPxW(), wall.totalPxH(), threads);

  util::BenchReport report;
  bool ok = true;
  double p99At256 = 0.0;
  double crossAt256 = 0.0;

  for (const std::size_t n : fleets) {
    const ScaleOutcome outcome = runScale(n, ds, wall, threads, report);
    ok = ok && outcome.ok;
    const auto& sc = report.scenarios().back();
    const auto p50 = sc.counters.find("sessions.apply_latency_us.p50");
    const auto p99 = sc.counters.find("sessions.apply_latency_us.p99");
    std::printf(
        "%-14s %8.1f ms  %9.0f ev/s  apply p50/p99 %6.0f/%6.0f us  "
        "cross-hit %5.1f%%\n",
        sc.name.c_str(), outcome.elapsedMs, sc.counters.at("events_per_s"),
        p50 != sc.counters.end() ? p50->second : 0.0,
        p99 != sc.counters.end() ? p99->second : 0.0, 100.0 *
        outcome.crossHitRate);
    // Per-health-state latency split (DESIGN.md §14): how much of the
    // stream ran Degraded/Shedding, and what each state's apply p99 was.
    // A healthy-only run prints zeros for the overload columns.
    const auto stateCol = [&sc](const char* state,
                                const char* field) -> double {
      const auto it = sc.counters.find(
          std::string("sessions.apply_latency_us.") + state + "." + field);
      return it != sc.counters.end() ? it->second : 0.0;
    };
    std::printf(
        "               by health state (n @ p99 us): healthy %.0f @ %.0f"
        "  degraded %.0f @ %.0f  shedding %.0f @ %.0f\n",
        stateCol("healthy", "count"), stateCol("healthy", "p99"),
        stateCol("degraded", "count"), stateCol("degraded", "p99"),
        stateCol("shedding", "count"), stateCol("shedding", "p99"));
    if (n == 256) {
      p99At256 = p99 != sc.counters.end() ? p99->second : 0.0;
      crossAt256 = outcome.crossHitRate;
    }
  }

  if (!isolationCheck(ds, wall, report)) {
    ok = false;
  } else {
    std::printf("isolation_8way: interleaved == serial, bit-identical\n");
  }

  if (!opt.smoke) {
    // p99 from the log2-bucketed histogram (bucket upper bounds).
    if (p99At256 > 200000.0) {
      std::fprintf(stderr, "FAIL: 256-session apply p99 %.0f us > 200 ms\n",
                   p99At256);
      ok = false;
    }
    if (crossAt256 < 0.5) {
      std::fprintf(stderr,
                   "FAIL: 256-session cross-hit-rate %.2f below 0.5\n",
                   crossAt256);
      ok = false;
    }
  }

  if (!bench::writeReport(report, opt.out)) ok = false;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parseBenchCli(argc, argv, "BENCH_sessions.json");
  if (!opt) return 2;
  return run(*opt);
}
