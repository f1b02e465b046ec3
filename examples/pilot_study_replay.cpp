// pilot_study_replay — the Sec. V pilot user study as a replayable,
// auto-coded session.
//
// A recorded analyst session (replay::scenarios::pilotStudy, modelled on
// the behavioural ecologist's workflow the paper reports: binning,
// comparison, hypothesis after hypothesis, each verified with a quick
// visual query) is replayed through the replay engine (replay::Runner):
// every event drives a real core::SessionService and every step's frame
// is rendered headless and hash-stamped — the same determinism machinery
// the CI fleet runs (DESIGN.md §13). The think-aloud notes are
// auto-coded with the paper's tagging scheme (observation / hypothesis /
// tool use + comparison / conclusion), and the session statistics that
// ground the Sec. VI discussion are printed.
//
// Usage: pilot_study_replay
#include <cstdio>

#include "core/evidence.h"
#include "core/hypothesis.h"
#include "core/session.h"
#include "replay/runner.h"
#include "replay/scenarios.h"
#include "study/coding.h"
#include "study/timeline.h"
#include "traj/synth.h"

using namespace svq;

int main() {
  // The study session is a self-contained recording (shareable as a
  // .svqr file): the dataset is regenerated from its WorldSpec seed
  // inside the runner.
  const replay::Recording recording = replay::scenarios::pilotStudy();

  replay::Runner runner(recording);
  const replay::RunReport report = runner.run();
  const traj::TrajectoryDataset& dataset = runner.dataset();

  std::printf("== session replay (headless, hash-stamped) ==\n");
  std::printf("applied %zu/%zu events over %.0f s of session time\n",
              report.eventsApplied, recording.eventCount(),
              recording.steps().back().timeS);
  std::printf("replayed %zu steps in %.1f ms, fleet hash %016llx\n",
              report.steps.size(), report.totalMs,
              static_cast<unsigned long long>(report.fleetHash()));
  const core::QueryResult* lastQuery = nullptr;
  runner.inspectSession(0, [&](core::Session& app) {
    std::printf(
        "final state: %zu cells, %.0f%% coverage, brush strokes: %zu\n\n",
        app.layout().cellCount(),
        static_cast<double>(app.datasetCoverage()) * 100.0,
        app.brush().strokes().size());
    lastQuery = &app.lastQueryResult();
  });
  if (lastQuery == nullptr) {
    std::fprintf(stderr, "replay did not leave a live session\n");
    return 1;
  }

  // Auto-code the session with the paper's tagging scheme.
  const study::SessionLog log = study::autoCode(recording);
  std::printf("== coded session (Sec. V instrument) ==\n%s\n",
              log.summaryReport().c_str());

  // Timeline: the opportunistic mix of foraging and sensemaking over the
  // session (Sec. VI's reading of Fig. 2), bucketed per minute.
  const auto buckets = study::bucketize(log, 60.0);
  std::printf("== session timeline (f = foraging, s = sensemaking) ==\n%s",
              study::renderTimeline(buckets).c_str());
  const int pivot = study::firstSensemakingPivot(buckets);
  if (pivot >= 0) {
    std::printf("sensemaking overtakes foraging in minute %d\n\n", pivot + 1);
  } else {
    std::printf("no sensemaking pivot in this session\n\n");
  }

  // Quantitative verdicts for the two scripted hypotheses — what the
  // analyst concluded visually, recomputed exactly.
  std::printf("== verdict cross-check ==\n");
  const auto h1 = core::makeHomingHypothesis(traj::CaptureSide::kEast,
                                             traj::ArenaSide::kWest,
                                             dataset.arena().radiusCm);
  const auto r1 = core::evaluateHypothesis(h1, dataset);
  std::printf("H1 east->west exits: %.0f%% support [%s]\n",
              static_cast<double>(r1.supportFraction) * 100.0,
              r1.supported ? "SUPPORTED" : "rejected");
  const auto h2 = core::makeSeedSearchHypothesis(dataset.arena().radiusCm);
  const auto r2 = core::evaluateHypothesis(h2, dataset);
  std::printf("H2 seed-drop centre search: %.0f%% support [%s]\n",
              static_cast<double>(r2.supportFraction) * 100.0,
              r2.supported ? "SUPPORTED" : "rejected");

  // --- the future-work features: evidence file + insight provenance --------
  // The paper notes the lack of "an explicit way of recording or tagging
  // those inferences" (Sec. VI.A) and names "evidence and insight
  // provenance" as future work (Sec. VII); both are implemented here.
  core::EvidenceFile evidence;
  core::ProvenanceLog provenance;
  const auto dsId =
      provenance.recordDataset(0.0, dataset.size(), "synthetic ant dataset");

  const auto obsId = evidence.add(
      75.0, core::GroupRef{0},
      "on-trail trajectories look more windy than off-trail",
      {"windiness", "low-level-inference"});
  provenance.recordAnnotation(75.0, *evidence.find(obsId), {dsId});

  const auto q1Id = provenance.recordQuery(
      128.0, "west half brushed red", *lastQuery, dsId);
  const auto h1Id = provenance.recordHypothesis(150.0, r1, {q1Id});
  const auto h2Id = provenance.recordHypothesis(240.0, r2, {q1Id});
  const auto conclusion = provenance.recordConclusion(
      420.0,
      "displaced ants navigate back toward the foraging trail; seed "
      "droppers search before navigating",
      {h1Id, h2Id});

  std::printf("\n== evidence file ==\n%s", evidence.exportReport().c_str());
  std::printf("\n== insight provenance ==\n%s",
              provenance.exportReport().c_str());
  std::printf("\nlineage of the final conclusion: %zu entries, DAG %s\n",
              provenance.lineage(conclusion).size(),
              provenance.wellFormed() ? "well-formed" : "BROKEN");
  return 0;
}
