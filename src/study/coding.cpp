#include "study/coding.h"

#include <sstream>

namespace svq::study {

const char* toString(CodingTag tag) {
  switch (tag) {
    case CodingTag::kObservation: return "observation";
    case CodingTag::kHypothesis: return "hypothesis";
    case CodingTag::kHypothesisTest: return "hypothesis_test";
    case CodingTag::kToolUse: return "tool_use";
    case CodingTag::kComparison: return "comparison";
    case CodingTag::kConclusion: return "conclusion";
  }
  return "?";
}

const char* toString(SensemakingStage stage) {
  switch (stage) {
    case SensemakingStage::kFilterData: return "filter_data";
    case SensemakingStage::kVisualize: return "visualize";
    case SensemakingStage::kExtractFeatures: return "extract_features";
    case SensemakingStage::kSearchPatterns: return "search_patterns";
    case SensemakingStage::kSchematize: return "schematize";
    case SensemakingStage::kBuildCase: return "build_case";
    case SensemakingStage::kTellStory: return "tell_story";
  }
  return "?";
}

SensemakingStage stageOf(CodingTag tag) {
  switch (tag) {
    case CodingTag::kObservation: return SensemakingStage::kExtractFeatures;
    case CodingTag::kHypothesis: return SensemakingStage::kBuildCase;
    case CodingTag::kHypothesisTest: return SensemakingStage::kSchematize;
    case CodingTag::kToolUse: return SensemakingStage::kVisualize;
    case CodingTag::kComparison: return SensemakingStage::kSearchPatterns;
    case CodingTag::kConclusion: return SensemakingStage::kTellStory;
  }
  return SensemakingStage::kVisualize;
}

std::map<CodingTag, std::size_t> SessionLog::tagCounts() const {
  std::map<CodingTag, std::size_t> counts;
  for (const CodedEvent& e : events_) ++counts[e.tag];
  return counts;
}

std::map<std::string, std::size_t> SessionLog::toolUsage() const {
  std::map<std::string, std::size_t> usage;
  for (const CodedEvent& e : events_) {
    if (e.tag == CodingTag::kToolUse && !e.tool.empty()) ++usage[e.tool];
  }
  return usage;
}

std::map<SensemakingStage, std::size_t> SessionLog::stageCounts() const {
  std::map<SensemakingStage, std::size_t> counts;
  for (const CodedEvent& e : events_) ++counts[stageOf(e.tag)];
  return counts;
}

std::vector<double> SessionLog::hypothesisToTestDelays() const {
  std::vector<double> delays;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].tag != CodingTag::kHypothesis) continue;
    for (std::size_t j = i + 1; j < events_.size(); ++j) {
      if (events_[j].tag == CodingTag::kHypothesis) break;  // superseded
      if (events_[j].tag == CodingTag::kHypothesisTest) {
        delays.push_back(events_[j].timeS - events_[i].timeS);
        break;
      }
    }
  }
  return delays;
}

double SessionLog::hypothesisRatePerMinute() const {
  const double dur = durationS();
  if (dur <= 0.0) return 0.0;
  const auto counts = tagCounts();
  const auto it = counts.find(CodingTag::kHypothesis);
  const double n = it == counts.end() ? 0.0 : static_cast<double>(it->second);
  return n / (dur / 60.0);
}

std::string SessionLog::summaryReport() const {
  std::ostringstream out;
  out << "Session: " << events_.size() << " coded events over "
      << durationS() << " s\n";
  out << "-- tag counts --\n";
  for (const auto& [tag, n] : tagCounts()) {
    out << "  " << toString(tag) << ": " << n << '\n';
  }
  out << "-- tool usage --\n";
  for (const auto& [tool, n] : toolUsage()) {
    out << "  " << tool << ": " << n << '\n';
  }
  out << "-- sensemaking stages --\n";
  for (const auto& [stage, n] : stageCounts()) {
    out << "  " << toString(stage) << ": " << n << '\n';
  }
  const auto delays = hypothesisToTestDelays();
  if (!delays.empty()) {
    double sum = 0.0;
    for (double d : delays) sum += d;
    out << "-- hypothesis cadence --\n";
    out << "  tested hypotheses: " << delays.size() << '\n';
    out << "  mean formulate->test delay: "
        << sum / static_cast<double>(delays.size()) << " s\n";
  }
  out << "  hypotheses per minute: " << hypothesisRatePerMinute() << '\n';
  return out.str();
}

SessionLog autoCode(const replay::Recording& recording) {
  SessionLog log;
  bool hypothesisOpen = false;
  for (const replay::RecordedStep& step : recording.steps()) {
    if (step.kind != replay::StepKind::kEvent) continue;
    const std::string tool = ui::eventTypeName(step.event);
    const std::string& note = step.note;

    // Think-aloud notes first: they precede the interaction they motivate.
    if (note.rfind("O:", 0) == 0) {
      log.add({step.timeS, CodingTag::kObservation, "", note.substr(2)});
    } else if (note.rfind("H:", 0) == 0) {
      log.add({step.timeS, CodingTag::kHypothesis, "", note.substr(2)});
      hypothesisOpen = true;
    } else if (note.rfind("C:", 0) == 0) {
      log.add({step.timeS, CodingTag::kComparison, "", note.substr(2)});
    } else if (note.rfind("V:", 0) == 0) {
      log.add({step.timeS, CodingTag::kConclusion, "", note.substr(2)});
      hypothesisOpen = false;
    }

    log.add({step.timeS, CodingTag::kToolUse, tool, note});

    // A brush stroke or temporal-filter change while a hypothesis is open
    // is the visual query that tests it.
    const bool isQueryTool =
        std::holds_alternative<ui::BrushStrokeEvent>(step.event) ||
        std::holds_alternative<ui::TimeWindowEvent>(step.event);
    if (hypothesisOpen && isQueryTool) {
      log.add({step.timeS, CodingTag::kHypothesisTest, tool, note});
    }
  }
  return log;
}

}  // namespace svq::study
