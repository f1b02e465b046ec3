// E8 (Fig. 2 / Sec. V): the pilot-study session instrument.
//
// Regenerates: the session-coding summary (tag counts, tool usage,
// sensemaking-stage mapping, hypothesis cadence) for the recorded analyst
// session (replay::scenarios::pilotStudy, the session
// examples/pilot_study_replay replays), plus the costs of session replay,
// auto-coding, and the recording serialization that record/replay
// relies on.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/session.h"
#include "replay/scenarios.h"
#include "study/coding.h"

using namespace svq;

namespace {

void BM_SessionReplayThroughApp(benchmark::State& state) {
  const auto& ds = bench::dataset(500);
  const replay::Recording session = replay::scenarios::pilotStudy();
  for (auto _ : state) {
    core::Session app(core::SharedContext::create(ds, bench::reducedWall()));
    std::size_t applied = 0;
    for (const replay::RecordedStep& step : session.steps()) {
      if (step.kind == replay::StepKind::kEvent && app.apply(step.event)) {
        ++applied;
      }
    }
    benchmark::DoNotOptimize(applied);
  }
  state.counters["events"] = static_cast<double>(session.eventCount());
}
BENCHMARK(BM_SessionReplayThroughApp)->Unit(benchmark::kMillisecond);

void BM_AutoCode(benchmark::State& state) {
  const replay::Recording session = replay::scenarios::pilotStudy();
  for (auto _ : state) {
    const auto log = study::autoCode(session);
    benchmark::DoNotOptimize(log);
  }
}
BENCHMARK(BM_AutoCode)->Unit(benchmark::kMicrosecond);

void BM_SessionStats(benchmark::State& state) {
  const study::SessionLog log =
      study::autoCode(replay::scenarios::pilotStudy());
  for (auto _ : state) {
    auto counts = log.tagCounts();
    auto tools = log.toolUsage();
    auto stages = log.stageCounts();
    auto delays = log.hypothesisToTestDelays();
    benchmark::DoNotOptimize(counts);
    benchmark::DoNotOptimize(tools);
    benchmark::DoNotOptimize(stages);
    benchmark::DoNotOptimize(delays);
  }
}
BENCHMARK(BM_SessionStats)->Unit(benchmark::kMicrosecond);

void BM_RecordingSerialization(benchmark::State& state) {
  const replay::Recording session = replay::scenarios::pilotStudy();
  for (auto _ : state) {
    auto restored = replay::Recording::deserialize(session.serialize());
    benchmark::DoNotOptimize(restored);
  }
}
BENCHMARK(BM_RecordingSerialization)->Unit(benchmark::kMicrosecond);

void printContext() {
  std::printf("\n=== E8 / Sec. V: coded pilot session ===\n");
  const study::SessionLog log =
      study::autoCode(replay::scenarios::pilotStudy());
  std::printf("%s\n", log.summaryReport().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  printContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
