// Tests for the pilot-study coding instrument.
#include "study/coding.h"

#include <gtest/gtest.h>

namespace svq::study {
namespace {

TEST(CodingTagTest, Names) {
  EXPECT_STREQ(toString(CodingTag::kObservation), "observation");
  EXPECT_STREQ(toString(CodingTag::kHypothesis), "hypothesis");
  EXPECT_STREQ(toString(CodingTag::kHypothesisTest), "hypothesis_test");
  EXPECT_STREQ(toString(CodingTag::kToolUse), "tool_use");
}

TEST(StageMappingTest, PaperSection6Mapping) {
  // §VI.A: comparisons -> search for patterns; observations -> extract
  // features. §VI.B: brushing queries -> schematize; hypotheses ->
  // build case.
  EXPECT_EQ(stageOf(CodingTag::kComparison),
            SensemakingStage::kSearchPatterns);
  EXPECT_EQ(stageOf(CodingTag::kObservation),
            SensemakingStage::kExtractFeatures);
  EXPECT_EQ(stageOf(CodingTag::kHypothesisTest),
            SensemakingStage::kSchematize);
  EXPECT_EQ(stageOf(CodingTag::kHypothesis), SensemakingStage::kBuildCase);
  EXPECT_EQ(stageOf(CodingTag::kConclusion), SensemakingStage::kTellStory);
}

TEST(SessionLogTest, TagCounts) {
  SessionLog log;
  log.add({0.0, CodingTag::kObservation, "", "windy paths"});
  log.add({1.0, CodingTag::kObservation, "", "direct paths"});
  log.add({2.0, CodingTag::kHypothesis, "", "east go west"});
  const auto counts = log.tagCounts();
  EXPECT_EQ(counts.at(CodingTag::kObservation), 2u);
  EXPECT_EQ(counts.at(CodingTag::kHypothesis), 1u);
  EXPECT_EQ(counts.count(CodingTag::kConclusion), 0u);
}

TEST(SessionLogTest, ToolUsageHistogram) {
  SessionLog log;
  log.add({0.0, CodingTag::kToolUse, "brush_stroke", ""});
  log.add({1.0, CodingTag::kToolUse, "brush_stroke", ""});
  log.add({2.0, CodingTag::kToolUse, "time_window", ""});
  log.add({3.0, CodingTag::kObservation, "", "not a tool"});
  const auto usage = log.toolUsage();
  EXPECT_EQ(usage.at("brush_stroke"), 2u);
  EXPECT_EQ(usage.at("time_window"), 1u);
  EXPECT_EQ(usage.size(), 2u);
}

TEST(SessionLogTest, HypothesisToTestDelays) {
  SessionLog log;
  log.add({10.0, CodingTag::kHypothesis, "", "h1"});
  log.add({13.0, CodingTag::kHypothesisTest, "brush_stroke", "q1"});
  log.add({20.0, CodingTag::kHypothesis, "", "h2"});     // never tested
  log.add({30.0, CodingTag::kHypothesis, "", "h3"});     // supersedes h2
  log.add({32.5, CodingTag::kHypothesisTest, "brush_stroke", "q3"});
  const auto delays = log.hypothesisToTestDelays();
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 3.0);
  EXPECT_DOUBLE_EQ(delays[1], 2.5);
}

TEST(SessionLogTest, HypothesisRatePerMinute) {
  SessionLog log;
  log.add({0.0, CodingTag::kToolUse, "page", ""});
  log.add({30.0, CodingTag::kHypothesis, "", "h1"});
  log.add({60.0, CodingTag::kHypothesis, "", "h2"});
  log.add({120.0, CodingTag::kToolUse, "page", ""});  // duration 120 s
  EXPECT_DOUBLE_EQ(log.hypothesisRatePerMinute(), 1.0);
}

TEST(SessionLogTest, EmptyLogSafe) {
  SessionLog log;
  EXPECT_EQ(log.durationS(), 0.0);
  EXPECT_EQ(log.hypothesisRatePerMinute(), 0.0);
  EXPECT_TRUE(log.hypothesisToTestDelays().empty());
  EXPECT_FALSE(log.summaryReport().empty());
}

TEST(SessionLogTest, SummaryReportMentionsCounts) {
  SessionLog log;
  log.add({0.0, CodingTag::kHypothesis, "", "h"});
  log.add({5.0, CodingTag::kToolUse, "brush_stroke", "q"});
  log.add({5.0, CodingTag::kHypothesisTest, "brush_stroke", "q"});
  const std::string report = log.summaryReport();
  EXPECT_NE(report.find("hypothesis"), std::string::npos);
  EXPECT_NE(report.find("brush_stroke"), std::string::npos);
  EXPECT_NE(report.find("formulate->test"), std::string::npos);
}

replay::Recording annotatedScript() {
  replay::Recording script;
  script.admit(0, 0.0);
  script.event(0, 0.0, ui::LayoutSwitchEvent{2});
  script.event(0, 5.0, ui::GroupDefineEvent{}, "C: comparing east vs west");
  script.event(0, 20.0, ui::BrushStrokeEvent{0, {-25.0f, 0.0f}, 10.0f},
               "H: east-captured ants exit west");
  script.event(0, 22.0, ui::BrushStrokeEvent{0, {-25.0f, 10.0f}, 10.0f});
  script.event(0, 25.0, ui::TimeWindowEvent{50.0f, 60.0f});
  script.event(0, 40.0, ui::PageEvent{}, "V: hypothesis confirmed");
  script.event(0, 50.0, ui::DepthOffsetEvent{}, "O: trajectories look windy");
  script.close(0, 60.0);
  return script;
}

TEST(AutoCodeTest, NotesBecomeTags) {
  const SessionLog log = autoCode(annotatedScript());
  const auto counts = log.tagCounts();
  EXPECT_EQ(counts.at(CodingTag::kComparison), 1u);
  EXPECT_EQ(counts.at(CodingTag::kHypothesis), 1u);
  EXPECT_EQ(counts.at(CodingTag::kConclusion), 1u);
  EXPECT_EQ(counts.at(CodingTag::kObservation), 1u);
}

TEST(AutoCodeTest, EveryEventIsToolUse) {
  const auto script = annotatedScript();
  const SessionLog log = autoCode(script);
  EXPECT_EQ(log.tagCounts().at(CodingTag::kToolUse), script.eventCount());
}

TEST(AutoCodeTest, QueryToolsAfterHypothesisAreTests) {
  const SessionLog log = autoCode(annotatedScript());
  // Brush at t=20 and t=22, window at t=25 — all while H open -> 3 tests.
  EXPECT_EQ(log.tagCounts().at(CodingTag::kHypothesisTest), 3u);
}

TEST(AutoCodeTest, ConclusionClosesHypothesis) {
  replay::Recording script;
  script.event(0, 0.0, ui::BrushStrokeEvent{}, "H: something");
  script.event(0, 1.0, ui::PageEvent{}, "V: done");
  script.event(0, 2.0, ui::BrushStrokeEvent{});  // after verdict: not a test
  const SessionLog log = autoCode(script);
  EXPECT_EQ(log.tagCounts().at(CodingTag::kHypothesisTest), 1u);
}

TEST(AutoCodeTest, StrippedTagTextPreserved) {
  replay::Recording script;
  script.event(0, 0.0, ui::PageEvent{}, "O: on-trail ants are windier");
  const SessionLog log = autoCode(script);
  bool found = false;
  for (const CodedEvent& e : log.events()) {
    if (e.tag == CodingTag::kObservation) {
      EXPECT_EQ(e.text, " on-trail ants are windier");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AutoCodeTest, StageCountsPopulated) {
  const SessionLog log = autoCode(annotatedScript());
  const auto stages = log.stageCounts();
  EXPECT_GT(stages.at(SensemakingStage::kVisualize), 0u);
  EXPECT_GT(stages.at(SensemakingStage::kSchematize), 0u);
  EXPECT_GT(stages.at(SensemakingStage::kBuildCase), 0u);
}

TEST(AutoCodeTest, CodesOnlyEventStepsOfOneTenantSlice) {
  // Two analysts interleaved through one service: each is coded alone
  // through its tenant slice, and non-event steps carry nothing to code.
  replay::Recording rec;
  rec.admit(0, 0.0);
  rec.admit(1, 0.0);
  rec.event(0, 1.0, ui::BrushStrokeEvent{}, "H: west exits");
  rec.event(1, 2.0, ui::PageEvent{}, "O: windy");
  rec.submit(0, 3.0, ui::PageEvent{}, "C: queued, not applied");
  rec.refine(0, 4.0, 2);
  rec.event(0, 5.0, ui::TimeWindowEvent{0.0f, 10.0f});
  rec.close(1, 6.0);

  const SessionLog first = autoCode(rec.tenantSlice(0));
  const auto counts = first.tagCounts();
  EXPECT_EQ(counts.at(CodingTag::kToolUse), 2u);
  EXPECT_EQ(counts.at(CodingTag::kHypothesis), 1u);
  EXPECT_EQ(counts.at(CodingTag::kHypothesisTest), 2u);
  EXPECT_EQ(counts.count(CodingTag::kObservation), 0u);
  EXPECT_EQ(counts.count(CodingTag::kComparison), 0u);
  EXPECT_DOUBLE_EQ(first.durationS(), 5.0);

  const SessionLog second = autoCode(rec.tenantSlice(1));
  EXPECT_EQ(second.tagCounts().at(CodingTag::kObservation), 1u);
  EXPECT_EQ(second.tagCounts().at(CodingTag::kToolUse), 1u);
}

}  // namespace
}  // namespace svq::study
