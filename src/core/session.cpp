#include "core/session.h"

#include <algorithm>

namespace svq::core {

Session::Session(std::shared_ptr<const SharedContext> context)
    : context_(std::move(context)),
      brush_(std::make_shared<BrushCanvas>(
          context_->dataset().arena().radiusCm)),
      groups_(std::make_shared<GroupManager>()),
      assignment_(context_->defaultAssignment(activePreset_)),
      timeWindow_(0.0f, std::max(1.0f, context_->dataset().maxDuration())),
      queryEngine_(std::make_unique<QueryEngine>()),
      lastQuery_(std::make_shared<const QueryResult>()) {
  if (context_->shardExplorer() != nullptr) {
    progressive_ =
        std::make_unique<ProgressiveState>(*context_->shardExplorer());
  }
}

Session Session::fork() const {
  Session child(context_);
  child.activePreset_ = activePreset_;
  // Share the COW buffers; whoever writes first detaches.
  child.brush_ = brush_;
  child.groups_ = groups_;
  child.assignment_ = assignment_;
  child.timeWindow_ = timeWindow_;
  child.stereoControls_ = stereoControls_;
  child.somFocus_ = somFocus_;
  // child.engineBoundVersion_ is 0: its fresh engine binds (and marks all
  // spatially dirty) on its first buildScene().
  return child;
}

BrushCanvas& Session::mutableBrush() {
  if (brush_.use_count() > 1) {
    brush_ = std::make_shared<BrushCanvas>(brush_->clone());
    ++brushBindVersion_;
  }
  return *brush_;
}

GroupManager& Session::mutableGroups() {
  if (groups_.use_count() > 1) {
    groups_ = std::make_shared<GroupManager>(groups_->clone());
  }
  return *groups_;
}

render::StereoSettings Session::stereoSettings() const {
  render::StereoSettings s;
  stereoControls_.applyTo(s);
  return s;
}

float Session::datasetCoverage() const {
  if (dataset().empty()) return 0.0f;
  return static_cast<float>(assignment_->displayedCount) /
         static_cast<float>(dataset().size());
}

void Session::recomputeAssignment() {
  if (groups_->groups().empty()) {
    // No groups: every group-less session of this context shares one
    // precomputed assignment — admission and layout churn stay O(1).
    assignment_ = context_->defaultAssignment(activePreset_);
    return;
  }
  const LayoutConfig& cfg = context_->layoutPresets()[activePreset_];
  assignment_ = std::make_shared<const GroupAssignment>(
      groups_->assign(dataset(), cfg.cellsX, cfg.cellsY));
}

bool Session::apply(const ui::Event& event) {
  struct Visitor {
    Session& app;

    bool operator()(const ui::BrushStrokeEvent& e) {
      const AABB2 dirty = app.mutableBrush().addStroke(BrushStroke{
          static_cast<std::int8_t>(e.brushIndex), e.centerCm, e.radiusCm});
      app.queryEngine_->invalidateRegion(dirty);
      return true;
    }
    bool operator()(const ui::BrushClearEvent& e) {
      // An empty canvas has nothing to clear — succeed without detaching
      // the COW buffer.
      if (app.brush_->empty()) return true;
      const AABB2 dirty = app.mutableBrush().clear(
          e.brushIndex == 255 ? kNoBrush
                              : static_cast<std::int8_t>(e.brushIndex));
      app.queryEngine_->invalidateRegion(dirty);
      return true;
    }
    bool operator()(const ui::TimeWindowEvent& e) {
      app.timeWindow_.setRange(e.t0, e.t1);
      return true;
    }
    bool operator()(const ui::DepthOffsetEvent& e) {
      app.stereoControls_.depthOffsetCm().set(e.offsetCm);
      return true;
    }
    bool operator()(const ui::TimeScaleEvent& e) {
      app.stereoControls_.timeScaleCmPerS().set(e.cmPerSecond);
      return true;
    }
    bool operator()(const ui::LayoutSwitchEvent& e) {
      if (e.presetIndex >= app.layoutPresets().size()) return false;
      app.activePreset_ = e.presetIndex;
      // Groups were validated against the previous grid; any that no
      // longer fit must go before the assignment is recomputed. (Skip the
      // COW detach when there are no groups to prune.)
      if (!app.groups_->groups().empty()) {
        const LayoutConfig& cfg = app.layoutPresets()[app.activePreset_];
        app.mutableGroups().pruneToGrid(cfg.cellsX, cfg.cellsY);
      }
      app.recomputeAssignment();
      return true;
    }
    bool operator()(const ui::GroupDefineEvent& e) {
      const LayoutConfig& cfg = app.layoutPresets()[app.activePreset_];
      TrajectoryGroup g;
      g.id = e.groupId;
      g.name = e.name;
      g.cellRect = e.cellRect;
      g.filter = e.filter;
      g.colorIndex = e.colorIndex;
      if (!app.mutableGroups().define(g, cfg.cellsX, cfg.cellsY)) {
        return false;
      }
      app.recomputeAssignment();
      return true;
    }
    bool operator()(const ui::GroupClearEvent& e) {
      if (app.groups_->groups().empty()) return false;
      if (!app.mutableGroups().remove(e.groupId)) return false;
      app.recomputeAssignment();
      return true;
    }
    bool operator()(const ui::PageEvent& e) {
      if (app.groups_->groups().empty()) return false;
      GroupManager& gm = app.mutableGroups();
      bool any = false;
      for (const TrajectoryGroup& g : gm.groups()) {
        any |= gm.page(g.id, e.direction, app.dataset());
      }
      if (any) app.recomputeAssignment();
      return any;
    }
  };
  const bool ok = std::visit(Visitor{*this}, event);
  // Brush and window edits invalidate the anytime query; the pre-pass
  // re-runs on the next build or refine. (A no-op clear marks dirty too —
  // one spare pre-pass is cheaper than tracking canvas identity here.)
  if (ok && progressive_ != nullptr &&
      (std::holds_alternative<ui::BrushStrokeEvent>(event) ||
       std::holds_alternative<ui::BrushClearEvent>(event) ||
       std::holds_alternative<ui::TimeWindowEvent>(event))) {
    progressive_->dirty = true;
  }
  return ok;
}

render::SceneModel Session::buildScene() {
  render::SceneModel out;
  // The no-op cancellation never stops, so the build always completes.
  buildScene(out, util::Cancellation::none());
  return out;
}

bool Session::buildScene(render::SceneModel& out,
                         const util::Cancellation& cancel) {
  if (progressive_ != nullptr) {
    // The anytime path is budget-bounded internally (the pre-pass
    // deadline) and refinement runs in separate refineProgressive()
    // steps, so the build itself always completes.
    (void)cancel;
    return buildProgressiveScene(out);
  }
  const LayoutConfig& cfg = layoutPresets()[activePreset_];
  const SmallMultipleLayout& layout = context_->layout(activePreset_);
  const GroupAssignment& assignment = *assignment_;

  // Displayed trajectory indices, in cell order, for the query engine.
  std::vector<std::uint32_t> displayed;
  std::vector<std::size_t> cellOfDisplayed;  // cell index per entry
  displayed.reserve(assignment.cells.size());
  for (std::size_t ci = 0; ci < assignment.cells.size(); ++ci) {
    if (assignment.cells[ci].trajectoryIndex) {
      displayed.push_back(*assignment.cells[ci].trajectoryIndex);
      cellOfDisplayed.push_back(ci);
    }
  }

  // Keep the engine bound to the displayed set and this session's own
  // brush grid (the grid changes identity on construction and COW
  // detach; brushBindVersion_ tracks exactly those).
  if (displayed != boundDisplayed_) {
    queryEngine_->setTrajectories(dataset(), displayed);
    boundDisplayed_ = displayed;
  }
  if (engineBoundVersion_ != brushBindVersion_) {
    queryEngine_->setBrush(&brush_->grid());
    engineBoundVersion_ = brushBindVersion_;
  }
  QueryParams params = queryEngine_->params();
  params.timeWindow = {timeWindow_.lo(), timeWindow_.hi()};
  queryEngine_->setParams(params);

  if (brush_->empty()) {
    // Nothing painted: skip evaluation entirely (and report an untouched
    // result, preserving the "no query ran" contract).
    lastQuery_ = std::make_shared<const QueryResult>();
  } else {
    auto query = queryEngine_->evaluate(cancel);
    if (!query) {
      // Abandoned mid-evaluation. The engine preserved its dirty-set and
      // published nothing; leave lastQuery_/frameIndex_/damage state
      // untouched so the session is observably "as before the call".
      // (The binding refreshes above are idempotent and stay valid.)
      return false;
    }
    lastQuery_ = std::move(query);
  }
  ++frameIndex_;

  render::SceneModel scene;
  scene.arenaRadiusCm = dataset().arena().radiusCm;
  scene.timeWindow = {timeWindow_.lo(), timeWindow_.hi()};
  scene.stereo = stereoSettings();
  scene.queryGeneration = lastQuery_->generation;
  scene.cells.reserve(displayed.size());

  for (std::size_t di = 0; di < displayed.size(); ++di) {
    const std::size_t ci = cellOfDisplayed[di];
    const int cx = static_cast<int>(ci) % cfg.cellsX;
    const int cy = static_cast<int>(ci) / cfg.cellsX;
    render::CellView cell;
    cell.trajectoryIndex = displayed[di];
    cell.rect = layout.cellRect(cx, cy);
    cell.background = assignment.cells[ci].background;
    if (!brush_->empty() && di < lastQuery_->segmentHighlights.size()) {
      cell.segmentHighlights = lastQuery_->segmentHighlights[di];
    }
    scene.cells.push_back(std::move(cell));
  }

  commitScene(std::move(scene), out);
  return true;
}

void Session::commitScene(render::SceneModel&& scene,
                          render::SceneModel& out) {
  // Damage tracking: diff this frame's per-cell content hashes against the
  // previous frame's so render consumers know which cells to repaint.
  std::vector<std::uint64_t> hashes = render::sceneCellHashes(scene);
  lastDamagedCells_.clear();
  if (hashes.size() != lastCellHashes_.size()) {
    lastSceneFullyDamaged_ = true;
  } else {
    lastSceneFullyDamaged_ = false;
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      if (hashes[i] != lastCellHashes_[i]) lastDamagedCells_.push_back(i);
    }
  }
  lastCellHashes_ = std::move(hashes);
  out = std::move(scene);
}

void Session::ensureProgressiveFresh() {
  if (!progressive_->dirty) return;
  QueryParams params;
  params.timeWindow = {timeWindow_.lo(), timeWindow_.hi()};
  progressive_->query.begin(brush_->grid(), params);
  progressive_->dirty = false;
}

bool Session::buildProgressiveScene(render::SceneModel& out) {
  ensureProgressiveFresh();

  ClusterSceneOptions options;
  options.stereo = stereoSettings();
  options.timeWindow = {timeWindow_.lo(), timeWindow_.hi()};
  ClusterOverviewScene overview =
      buildProgressiveOverview(progressive_->query, wallSpec(), options);

  progressive_->sceneDataset = std::move(overview.averagesDataset);
  lastQuery_ = std::make_shared<const QueryResult>(
      progressive_->query.prototypeResult());
  ++frameIndex_;

  render::SceneModel scene = std::move(overview.scene);
  scene.queryGeneration = lastQuery_->generation;
  commitScene(std::move(scene), out);
  return true;
}

std::size_t Session::refineProgressive(std::size_t maxShards,
                                       const util::Cancellation& cancel) {
  if (progressive_ == nullptr) return 0;
  ensureProgressiveFresh();
  return progressive_->query.refineStep(maxShards, cancel);
}

}  // namespace svq::core
