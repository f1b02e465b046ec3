// Overload bench: a victim explorer on a node under submit-storm attack.
//
// The robustness acceptance driver for the session service's overload
// model (DESIGN.md §14). Three phases over one SharedContext:
//
//   overload_baseline  one victim tenant alone; caller-observed apply
//                      latency p50/p99 — the "calm node" reference.
//   overload_storm     the same victim while 4x-oversubscribed storm
//                      workers flood submit() on storm tenants that are
//                      never drained. The depth trigger must walk the
//                      node to Shedding; every refusal the victim or the
//                      storm sees must be a *typed* load-shed verdict
//                      (kBackpressure / kOverloaded / kDeadlineExceeded
//                      — never kRejected, never a hang), and no single
//                      victim attempt may wedge (> 1 s to a verdict).
//   overload_recovery  the storm stops and its tenants close; the victim
//                      keeps applying until the node reads Healthy again.
//
// Acceptance checks (non-zero exit on failure):
//   - typed shedding: shed_typed_fraction == 1.0 (storm phase),
//   - bounded refusal volume: shed_rate >= the deterministic floor
//     1 - queueCapacity/stormSubmits (queues are never drained, so at
//     most eventQueueDepth per storm tenant can ever be accepted),
//   - no wedge: wedged == 0 (no victim attempt over 1 s),
//   - recovery: recovered == 1 and health() == kHealthy at the end.
//
// Writes BENCH_overload.json (util/bench_report.h; consumed by
// scripts/perf_smoke.py against bench/baselines/BENCH_overload_smoke.json).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sessionservice.h"
#include "util/bench_report.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

using namespace svq;

namespace {

using Options = bench::BenchCliOptions;

/// Caller-observed latency of one service call, plus its verdict.
struct Attempt {
  double micros = 0.0;
  core::StatusCode code = core::StatusCode::kOk;
};

/// The victim's rotating interactive gestures — scalar scrubs and brush
/// dabs, all applicable to a fresh session (no group dependencies).
ui::Event victimEvent(std::size_t i) {
  switch (i % 4) {
    case 0:
      return ui::TimeWindowEvent{0.0f, 30.0f + static_cast<float>(i % 90)};
    case 1:
      return ui::BrushStrokeEvent{
          0, {-20.0f + static_cast<float>(i % 40), 0.0f}, 6.0f};
    case 2:
      return ui::DepthOffsetEvent{-static_cast<float>(i % 12)};
    default:
      return ui::TimeScaleEvent{0.25f + 0.05f * static_cast<float>(i % 10)};
  }
}

double percentileUs(std::vector<Attempt> attempts, double q) {
  if (attempts.empty()) return 0.0;
  std::sort(attempts.begin(), attempts.end(),
            [](const Attempt& a, const Attempt& b) {
              return a.micros < b.micros;
            });
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(attempts.size() - 1) + 0.5);
  return attempts[std::min(rank, attempts.size() - 1)].micros;
}

struct StormConfig {
  std::size_t stormTenants = 8;
  std::size_t submitsPerTenant = 2000;
  std::size_t victimAttempts = 400;
  std::size_t queueDepth = 64;
  std::size_t shedQueueDepth = 256;
  std::uint64_t applyDeadlineUs = 5000;
};

int run(const Options& opt) {
  const std::size_t trajCount = opt.smoke ? 120 : 500;
  const wall::WallSpec wall =
      opt.smoke ? bench::reducedWall(160, 90) : bench::reducedWall();
  StormConfig cfg;
  if (opt.smoke) {
    cfg.submitsPerTenant = 600;
    cfg.victimAttempts = 200;
  }
  // 4x oversubscription: four storm workers per hardware thread (capped),
  // all hammering submit() — contention is the point.
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned stormWorkers =
      std::min(32u, 4u * std::max(2u, hw == 0 ? 4u : hw));

  const auto& ds = bench::dataset(trajCount);
  std::printf("=== session service: overload / load-shedding (%s) ===\n",
              opt.smoke ? "smoke" : "full");
  std::printf(
      "%zu trajectories, %u storm workers over %zu storm tenants, "
      "%zu submits each\n",
      ds.size(), stormWorkers, cfg.stormTenants, cfg.submitsPerTenant);

  util::BenchReport report;
  bool ok = true;
  MetricsRegistry& reg = MetricsRegistry::global();

  // --- phase 1: baseline — the victim alone on a calm node ------------------
  reg.reset("sessions.");
  double baselineP99Us = 0.0;
  {
    const auto ctx = core::SharedContext::create(ds, wall);
    core::SessionService::Options sopt;
    sopt.applyDeadlineUs = cfg.applyDeadlineUs;
    core::SessionService svc(ctx, sopt);
    const auto victim = svc.admit();
    if (!victim) {
      std::fprintf(stderr, "FAIL: baseline admission refused\n");
      return 1;
    }
    std::vector<Attempt> attempts;
    attempts.reserve(cfg.victimAttempts);
    Stopwatch phase;
    for (std::size_t i = 0; i < cfg.victimAttempts; ++i) {
      Stopwatch sw;
      const core::Status st = svc.apply(victim.id, victimEvent(i));
      attempts.push_back({sw.elapsedMicros(), st.code});
      if (!st.isOk()) {
        std::fprintf(stderr, "FAIL: baseline apply %zu: %s\n", i,
                     st.message().c_str());
        ok = false;
      }
    }
    baselineP99Us = percentileUs(attempts, 0.99);
    auto& s = report.add("overload_baseline", {phase.elapsedMillis()});
    bench::attachCounters(s, "sessions.");
    s.counters["victim_attempts"] =
        static_cast<double>(cfg.victimAttempts);
    s.counters["victim_p50_us"] = percentileUs(attempts, 0.50);
    s.counters["victim_p99_us"] = baselineP99Us;
    std::printf("overload_baseline  apply p50/p99 %8.1f/%8.1f us\n",
                s.counters["victim_p50_us"], baselineP99Us);
  }

  // --- phase 2: storm — oversubscribed submit flood, queues never drained ---
  reg.reset("sessions.");
  double stormP99Us = 0.0;
  double recoveryMs = 0.0;
  bool recovered = false;
  {
    const auto ctx = core::SharedContext::create(ds, wall);
    core::SessionService::Options sopt;
    sopt.eventQueueDepth = cfg.queueDepth;
    sopt.shedQueueDepth = cfg.shedQueueDepth;
    sopt.applyDeadlineUs = cfg.applyDeadlineUs;
    sopt.retryAfterMs = 10;
    core::SessionService svc(ctx, sopt);

    const auto victim = svc.admit();
    std::vector<core::SessionId> storm;
    for (std::size_t t = 0; t < cfg.stormTenants; ++t) {
      const auto a = svc.admit();
      if (!a) {
        std::fprintf(stderr, "FAIL: storm admission refused\n");
        return 1;
      }
      storm.push_back(a.id);
    }

    // Storm workers round-robin the storm tenants; every refusal must be
    // a typed load-shed verdict. Nothing ever drains these queues.
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> refused{0};
    std::atomic<std::uint64_t> untypedRefusals{0};
    const std::size_t totalSubmits =
        cfg.stormTenants * cfg.submitsPerTenant;
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(stormWorkers);
    for (unsigned w = 0; w < stormWorkers; ++w) {
      workers.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < totalSubmits;
             i = next.fetch_add(1)) {
          const core::SessionId id = storm[i % storm.size()];
          const core::Status st = svc.submit(id, victimEvent(i));
          submitted.fetch_add(1, std::memory_order_relaxed);
          if (!st.isOk()) {
            refused.fetch_add(1, std::memory_order_relaxed);
            if (!st.isLoadShed()) {
              untypedRefusals.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }

    // The victim keeps gesturing through the storm. Accepted or refused,
    // every attempt must reach a verdict fast — an attempt over 1 s is a
    // wedge, exactly what deadlines + shedding exist to prevent.
    std::vector<Attempt> attempts;
    attempts.reserve(cfg.victimAttempts);
    bool wedged = false;
    Stopwatch phase;
    for (std::size_t i = 0; i < cfg.victimAttempts; ++i) {
      Stopwatch sw;
      const core::Status st = svc.apply(victim.id, victimEvent(i));
      const double us = sw.elapsedMicros();
      attempts.push_back({us, st.code});
      if (us > 1e6) wedged = true;
      if (!st.isOk() && !st.isLoadShed()) {
        std::fprintf(stderr, "FAIL: untyped victim refusal: %s\n",
                     st.message().c_str());
        ok = false;
      }
    }
    for (auto& w : workers) w.join();
    const double stormMs = phase.elapsedMillis();

    std::uint64_t victimShed = 0;
    for (const Attempt& a : attempts) {
      if (a.code != core::StatusCode::kOk) ++victimShed;
    }
    stormP99Us = percentileUs(attempts, 0.99);
    const double shedRate =
        submitted.load() > 0
            ? static_cast<double>(refused.load()) /
                  static_cast<double>(submitted.load())
            : 0.0;
    const std::uint64_t totalRefusals = refused.load() + victimShed;
    const double typedFraction =
        totalRefusals > 0
            ? 1.0 - static_cast<double>(untypedRefusals.load()) /
                        static_cast<double>(totalRefusals)
            : 1.0;
    // Queues are never drained, so acceptance is capped by total queue
    // capacity — the shed rate has a deterministic floor.
    const double shedFloor =
        1.0 - static_cast<double>(cfg.stormTenants * cfg.queueDepth) /
                  static_cast<double>(totalSubmits);

    auto& s = report.add("overload_storm", {stormMs});
    bench::attachCounters(s, "sessions.");
    s.counters["storm_submits"] = static_cast<double>(submitted.load());
    s.counters["shed_rate"] = shedRate;
    s.counters["shed_typed_fraction"] = typedFraction;
    s.counters["victim_p50_us"] = percentileUs(attempts, 0.50);
    s.counters["victim_p99_us"] = stormP99Us;
    s.counters["victim_p99_ms"] = stormP99Us / 1000.0;
    s.counters["victim_shed"] = static_cast<double>(victimShed);
    s.counters["p99_ratio"] =
        baselineP99Us > 0.0 ? stormP99Us / baselineP99Us : 0.0;
    s.counters["wedged"] = wedged ? 1.0 : 0.0;
    std::printf(
        "overload_storm     apply p50/p99 %8.1f/%8.1f us  shed %5.1f%% "
        "(typed %5.1f%%)  health %s\n",
        s.counters["victim_p50_us"], stormP99Us, 100.0 * shedRate,
        100.0 * typedFraction, core::healthName(svc.health()));

    if (typedFraction < 1.0) {
      std::fprintf(stderr,
                   "FAIL: %llu refusals were not typed load-shed verdicts\n",
                   static_cast<unsigned long long>(untypedRefusals.load()));
      ok = false;
    }
    if (shedRate < shedFloor) {
      std::fprintf(stderr, "FAIL: shed rate %.3f below floor %.3f\n",
                   shedRate, shedFloor);
      ok = false;
    }
    if (wedged) {
      std::fprintf(stderr, "FAIL: a victim attempt took over 1 s\n");
      ok = false;
    }
    // The latency promise under storm: victim p99 within 2x of the calm
    // baseline. Both numbers sit near the timer noise floor on a fast
    // node (shed verdicts are sub-microsecond), so the ratio only gates
    // once the storm p99 is measurably large.
    if (stormP99Us > 100.0 && stormP99Us > 2.0 * baselineP99Us) {
      std::fprintf(stderr,
                   "FAIL: storm victim p99 %.1f us over 2x baseline %.1f us\n",
                   stormP99Us, baselineP99Us);
      ok = false;
    }

    // --- phase 3: recovery — storm ends, node must walk back to Healthy ----
    Stopwatch recov;
    for (const core::SessionId id : storm) {
      if (!svc.close(id).isOk()) ok = false;
    }
    // Closing collapses the queue depth; subsequent attempts tick the
    // evaluation window, one recovery level per calm window.
    const std::size_t maxAttempts = 8 * svc.options().healthWindow;
    core::Status last = core::Status::ok();
    std::size_t recoveryAttempts = 0;
    for (; recoveryAttempts < maxAttempts; ++recoveryAttempts) {
      last = svc.apply(victim.id, victimEvent(recoveryAttempts));
      if (svc.health() == core::SessionService::Health::kHealthy &&
          last.isOk()) {
        break;
      }
    }
    recoveryMs = recov.elapsedMillis();
    recovered = svc.health() == core::SessionService::Health::kHealthy &&
                last.isOk();

    auto& r = report.add("overload_recovery", {recoveryMs});
    r.counters["recovered"] = recovered ? 1.0 : 0.0;
    r.counters["recovery_ms"] = recoveryMs;
    r.counters["recovery_attempts"] =
        static_cast<double>(recoveryAttempts);
    std::printf("overload_recovery  %s after %zu attempts (%.1f ms)\n",
                recovered ? "Healthy" : "NOT healthy", recoveryAttempts,
                recoveryMs);
    if (!recovered) {
      std::fprintf(stderr, "FAIL: node did not recover to Healthy\n");
      ok = false;
    }
  }

  if (!bench::writeReport(report, opt.out)) ok = false;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parseBenchCli(argc, argv, "BENCH_overload.json");
  if (!opt) return 2;
  return run(*opt);
}
