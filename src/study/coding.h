// coding.h — the pilot study's video-coding scheme (§V).
//
// The paper tagged the session recording with instances where the
// researcher (a) made an observation about the data, (b) created a
// hypothesis, and (c) used an interactive tool together with the question
// being answered. This module is that instrument in computable form: a
// typed session log, an auto-coder that derives tags from a recorded
// session (notes prefixed "O:"/"H:"/"C:"/"V:" mark think-aloud content),
// and summary statistics that map behaviour onto the
// Pirolli–Card sensemaking stages of Fig. 2.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "replay/recording.h"

namespace svq::study {

/// Coding-scheme tags (the paper's three, plus the comparison/conclusion
/// distinctions §VI draws when analyzing the tape).
enum class CodingTag : std::uint8_t {
  kObservation = 0,    ///< low-level inference about the data
  kHypothesis,         ///< a testable claim was formulated
  kHypothesisTest,     ///< a visual query was run against a hypothesis
  kToolUse,            ///< any interactive feature was exercised
  kComparison,         ///< groups of trajectories were compared
  kConclusion,         ///< a verdict was reached
};

const char* toString(CodingTag tag);

/// Pirolli–Card stages (Fig. 2) that coded behaviour maps onto.
enum class SensemakingStage : std::uint8_t {
  kFilterData = 0,     ///< select relevant subsets (filters, groups)
  kVisualize,          ///< raw data -> visual representation
  kExtractFeatures,    ///< low-level inferences from the visuals
  kSearchPatterns,     ///< comparisons across instances
  kSchematize,         ///< marshal evidence (brush highlights)
  kBuildCase,          ///< weigh hypotheses against evidence
  kTellStory,          ///< conclusions / presentation
};

const char* toString(SensemakingStage stage);

/// Stage each tag predominantly serves (the §VI.A/§VI.B mapping:
/// comparisons -> extract features / search patterns; coordinated
/// brushing -> schematize; verdicts -> build case).
SensemakingStage stageOf(CodingTag tag);

/// One coded moment of the session.
struct CodedEvent {
  double timeS = 0.0;
  CodingTag tag = CodingTag::kToolUse;
  /// Tool involved (ui event type name) or empty for verbal-only codes.
  std::string tool;
  /// Transcript text / think-aloud note.
  std::string text;
};

/// A coded session with summary analysis.
class SessionLog {
 public:
  void add(CodedEvent e) { events_.push_back(std::move(e)); }
  const std::vector<CodedEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  double durationS() const {
    return events_.empty() ? 0.0 : events_.back().timeS;
  }

  /// Count of events per tag.
  std::map<CodingTag, std::size_t> tagCounts() const;

  /// Count of tool-use events per tool name.
  std::map<std::string, std::size_t> toolUsage() const;

  /// Count of events per sensemaking stage.
  std::map<SensemakingStage, std::size_t> stageCounts() const;

  /// Hypothesis cadence: for each kHypothesis event, the delay (s) until
  /// the next kHypothesisTest event (the "formulate then verify in rapid
  /// succession" measure of §VI.B). Untested hypotheses are omitted.
  std::vector<double> hypothesisToTestDelays() const;

  /// Hypotheses formulated per minute of session time.
  double hypothesisRatePerMinute() const;

  /// Multi-line human-readable summary (the §V qualitative report shape).
  std::string summaryReport() const;

 private:
  std::vector<CodedEvent> events_;
};

/// Auto-codes a recorded session: its kEvent steps, in recorded order,
/// with their notes (lifecycle, submit and refine steps carry no
/// think-aloud content and are skipped). Code a multi-tenant recording
/// one analyst at a time through Recording::tenantSlice.
///  * every event yields a kToolUse code with the event type as tool;
///  * brush strokes/time-window changes following a hypothesis note are
///    additionally coded kHypothesisTest;
///  * notes are scanned for prefixes: "O:" observation, "H:" hypothesis,
///    "C:" comparison, "V:" conclusion (verdict).
SessionLog autoCode(const replay::Recording& recording);

}  // namespace svq::study
