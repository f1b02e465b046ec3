// End-to-end integration: synthetic field data -> analyst script ->
// application state -> visual query -> scene -> cluster render (checked
// against the single-rank reference) -> hypothesis verdicts -> session
// coding. This is the full paper pipeline in one test binary.
#include <gtest/gtest.h>

#include "cluster/clusterapp.h"
#include "core/hypothesis.h"
#include "core/session.h"
#include "replay/recording.h"
#include "study/coding.h"
#include "traj/synth.h"

namespace svq {
namespace {

/// Small-pixel wall with the paper's 6x2 tile structure.
wall::WallSpec miniPaperWall() {
  wall::TileSpec tile;
  tile.pxW = 160;
  tile.pxH = 96;
  tile.activeWmm = 320.0f;
  tile.activeHmm = 192.0f;
  return wall::WallSpec(tile, 6, 2);
}

/// The Fig. 3 + Fig. 5 analyst session as a single-tenant recording.
replay::Recording analystSession() {
  replay::Recording script;
  script.admit(0, 0.0);
  script.event(0, 0.0, ui::LayoutSwitchEvent{2}, "switch to 36x12");
  // Five Fig. 3 bins over 36 columns: bands of 8/7/7/7/7.
  auto defineGroup = [&](double t, std::uint8_t id, int x, int w,
                         traj::CaptureSide side, std::uint8_t color,
                         const char* name) {
    ui::GroupDefineEvent g;
    g.groupId = id;
    g.cellRect = {x, 0, w, 12};
    g.filter.side = side;
    g.colorIndex = color;
    g.name = name;
    script.event(0, t, g);
  };
  defineGroup(5.0, 0, 0, 8, traj::CaptureSide::kOnTrail, 0, "ON TRAIL");
  defineGroup(6.0, 1, 8, 7, traj::CaptureSide::kWest, 1, "WEST");
  defineGroup(7.0, 2, 15, 7, traj::CaptureSide::kEast, 2, "EAST");
  defineGroup(8.0, 3, 22, 7, traj::CaptureSide::kNorth, 3, "NORTH");
  defineGroup(9.0, 4, 29, 7, traj::CaptureSide::kSouth, 4, "SOUTH");
  // Fig. 5: brush the west half red to test the homing hypothesis.
  script.event(0, 30.0, ui::BrushStrokeEvent{0, {-25.0f, 0.0f}, 30.0f},
               "H: ants captured east exit the arena from the west");
  script.event(0, 35.0, ui::TimeWindowEvent{0.0f, 1e9f});
  script.event(0, 60.0, ui::PageEvent{+1}, "V: red concentrated in east bin");
  return script;
}

/// Applies a recording's event steps to `app` in order; returns how many
/// the session accepted.
std::size_t applyEvents(core::Session& app, const replay::Recording& script) {
  std::size_t applied = 0;
  for (const replay::RecordedStep& step : script.steps()) {
    if (step.kind == replay::StepKind::kEvent && app.apply(step.event)) {
      ++applied;
    }
  }
  return applied;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    traj::AntSimulator sim({}, 20120401);
    traj::DatasetSpec spec;
    spec.count = 500;
    dataset_ = new traj::TrajectoryDataset(sim.generate(spec));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static traj::TrajectoryDataset* dataset_;
};

traj::TrajectoryDataset* IntegrationTest::dataset_ = nullptr;

TEST_F(IntegrationTest, FullPipelineProducesConsistentFrame) {
  const wall::WallSpec w = miniPaperWall();
  core::Session app(core::SharedContext::create(*dataset_, w));
  const std::size_t applied = applyEvents(app, analystSession());
  EXPECT_EQ(applied, analystSession().eventCount());

  // 432 cells over 500 trajectories: paper's ~85% coverage headline.
  const render::SceneModel scene = app.buildScene();
  EXPECT_NEAR(app.datasetCoverage(), 0.85f, 0.05f);

  // Query produced highlights, concentrated in the east bin.
  const core::QueryResult& q = app.lastQueryResult();
  EXPECT_GT(q.trajectoriesHighlighted, 50u);

  // The Fig. 5 reading: east-captured ants *end* in the brushed west half
  // far more often than west-captured ants do (the analyst reads this off
  // by narrowing the temporal filter to the last seconds; the summary's
  // lastSegmentBrush is the computed equivalent).
  std::size_t eastCells = 0, eastEndWest = 0, westCells = 0, westEndWest = 0;
  for (const core::HighlightSummary& s : q.summaries) {
    const auto side = (*dataset_)[s.trajectoryIndex].meta().side;
    const bool endsWest = s.lastSegmentBrush == 0;
    if (side == traj::CaptureSide::kEast) {
      ++eastCells;
      if (endsWest) ++eastEndWest;
    } else if (side == traj::CaptureSide::kWest) {
      ++westCells;
      if (endsWest) ++westEndWest;
    }
  }
  ASSERT_GT(eastCells, 10u);
  ASSERT_GT(westCells, 10u);
  const double eastFrac = static_cast<double>(eastEndWest) / eastCells;
  const double westFrac = static_cast<double>(westEndWest) / westCells;
  EXPECT_GT(eastFrac, 0.5);
  EXPECT_GT(eastFrac, westFrac + 0.2);
}

TEST_F(IntegrationTest, ClusterRenderMatchesReferenceBothEyes) {
  const wall::WallSpec w = miniPaperWall();
  core::Session app(core::SharedContext::create(*dataset_, w));
  applyEvents(app, analystSession());
  const render::SceneModel scene = app.buildScene();

  cluster::ClusterOptions options;
  options.stereo = true;
  const cluster::ClusterResult result =
      cluster::runClusterSession(*dataset_, w, {scene}, options);

  ASSERT_TRUE(result.leftWall.has_value());
  ASSERT_TRUE(result.rightWall.has_value());
  const auto refL =
      cluster::renderReferenceWall(*dataset_, w, scene, render::Eye::kLeft);
  const auto refR =
      cluster::renderReferenceWall(*dataset_, w, scene, render::Eye::kRight);
  EXPECT_EQ(result.leftWall->contentHash(), refL.contentHash());
  EXPECT_EQ(result.rightWall->contentHash(), refR.contentHash());
  // Stereo frame really is stereoscopic.
  EXPECT_NE(refL.contentHash(), refR.contentHash());
}

TEST_F(IntegrationTest, HypothesisVerdictsAgreeWithGroundTruth) {
  const core::Hypothesis h = core::makeHomingHypothesis(
      traj::CaptureSide::kEast, traj::ArenaSide::kWest,
      dataset_->arena().radiusCm);
  const core::HypothesisResult r = core::evaluateHypothesis(h, *dataset_);
  EXPECT_TRUE(r.supported);

  // Ground truth via exit-side statistics.
  std::size_t pop = 0, westExits = 0;
  for (const auto& t : dataset_->all()) {
    if (t.meta().side != traj::CaptureSide::kEast) continue;
    ++pop;
    const auto side = traj::exitSide(t);
    if (side && *side == traj::ArenaSide::kWest) ++westExits;
  }
  const double truth = static_cast<double>(westExits) / pop;
  EXPECT_GT(truth, 0.5);
  // The visual query is an over-approximation of the exit-side truth
  // (passing through the west half also counts), so it should be at
  // least as supportive.
  EXPECT_GE(r.supportFraction + 0.05, truth);
}

TEST_F(IntegrationTest, SessionCodingMatchesScriptAnnotations) {
  const study::SessionLog log = study::autoCode(analystSession());
  const auto counts = log.tagCounts();
  EXPECT_EQ(counts.at(study::CodingTag::kHypothesis), 1u);
  EXPECT_EQ(counts.at(study::CodingTag::kConclusion), 1u);
  EXPECT_EQ(counts.at(study::CodingTag::kToolUse),
            analystSession().eventCount());
  // The hypothesis gets tested quickly (brush right at formulation).
  const auto delays = log.hypothesisToTestDelays();
  ASSERT_FALSE(delays.empty());
  EXPECT_LT(delays.front(), 10.0);
}

TEST_F(IntegrationTest, ScriptPersistenceRoundTripDrivesSameState) {
  const wall::WallSpec w = miniPaperWall();
  const auto script = analystSession();
  const auto restored = replay::Recording::deserialize(script.serialize());
  ASSERT_TRUE(restored.has_value());

  core::Session a(core::SharedContext::create(*dataset_, w));
  core::Session b(core::SharedContext::create(*dataset_, w));
  applyEvents(a, script);
  applyEvents(b, *restored);
  const auto sceneA = a.buildScene();
  const auto sceneB = b.buildScene();
  const auto imgA =
      cluster::renderReferenceWall(*dataset_, w, sceneA, render::Eye::kLeft);
  const auto imgB =
      cluster::renderReferenceWall(*dataset_, w, sceneB, render::Eye::kLeft);
  EXPECT_EQ(imgA.contentHash(), imgB.contentHash());
}

TEST_F(IntegrationTest, DatasetCsvRoundTripPreservesQueryResults) {
  const auto csv = dataset_->toCsv();
  const auto restored = traj::TrajectoryDataset::fromCsv(csv);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), dataset_->size());

  core::BrushCanvas canvas(dataset_->arena().radiusCm, 128);
  core::paintArenaHalf(canvas, 0, traj::ArenaSide::kWest,
                       dataset_->arena().radiusCm);
  std::vector<std::uint32_t> indices;
  for (std::uint32_t i = 0; i < 100; ++i) indices.push_back(i);
  const auto a =
      core::evaluate(core::makeRefs(*dataset_, indices), canvas.grid(), {});
  const auto b =
      core::evaluate(core::makeRefs(*restored, indices), canvas.grid(), {});
  EXPECT_EQ(a.totalSegmentsHighlighted, b.totalSegmentsHighlighted);
  EXPECT_EQ(a.trajectoriesHighlighted, b.trajectoriesHighlighted);
}

}  // namespace
}  // namespace svq
