// session.h — the per-tenant exploration session.
//
// Session is one explorer's mutable view over an immutable SharedContext
// (context.h): brush canvas, groups, temporal window, stereo knobs,
// active layout preset and SOM drill-down focus; it consumes ui::Events
// and produces the SceneModel a renderer (local or cluster) draws. This
// is the state the paper's screenshots depict in action — re-cut so that
// hundreds of Sessions can share one context:
//
//   * copy-on-write state — the brush canvas, the group set and the cell
//     assignment live behind shared_ptrs. fork() is O(1): the child
//     shares every buffer until one side writes, at which point the
//     writer detaches onto its own deep copy (BrushCanvas::clone /
//     GroupManager::clone). Mutation never aliases across sessions.
//   * cheap construction — a fresh session with no groups borrows the
//     context's precomputed layout and default assignment instead of
//     computing its own, so admission is O(1) in dataset size.
//   * movable — the incremental QueryEngine (which owns a mutex) sits
//     behind a unique_ptr, and the engine's borrowed brush-grid pointer
//     targets heap state behind shared_ptr, so moving a Session never
//     invalidates the binding.
//
// The old single-explorer façade (VisualQueryApp) is gone; construct a
// SharedContext and wrap it in a Session instead.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/brush.h"
#include "core/clusterscene.h"
#include "core/context.h"
#include "core/groups.h"
#include "core/layout.h"
#include "core/progressive.h"
#include "core/query.h"
#include "core/queryengine.h"
#include "render/scene.h"
#include "traj/dataset.h"
#include "ui/controls.h"
#include "ui/events.h"
#include "wall/wall.h"

namespace svq::core {

/// Per-tenant state + event processing + scene building over a shared,
/// immutable context. Move-only; use fork() for an explicit COW copy.
class Session {
 public:
  explicit Session(std::shared_ptr<const SharedContext> context);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// O(1) copy sharing brush/group/assignment buffers copy-on-write: the
  /// child sees this session's current state, and subsequent writes on
  /// either side detach onto private deep copies.
  Session fork() const;

  // --- shared world --------------------------------------------------------
  const SharedContext& context() const { return *context_; }
  const std::shared_ptr<const SharedContext>& contextPtr() const {
    return context_;
  }
  const traj::TrajectoryDataset& dataset() const {
    return context_->dataset();
  }
  const wall::WallSpec& wallSpec() const { return context_->wallSpec(); }
  const std::vector<LayoutConfig>& layoutPresets() const {
    return context_->layoutPresets();
  }

  // --- per-tenant state ----------------------------------------------------
  const SmallMultipleLayout& layout() const {
    return context_->layout(activePreset_);
  }
  std::size_t activePreset() const { return activePreset_; }
  /// Mutable access detaches (COW) — call refreshAssignment() after
  /// direct edits. Prefer apply() for event-driven edits.
  GroupManager& groups() { return mutableGroups(); }
  const GroupManager& groups() const { return *groups_; }
  const BrushCanvas& brush() const { return *brush_; }
  const ui::RangeSlider& timeWindow() const { return timeWindow_; }
  const ui::StereoControls& stereoControls() const { return stereoControls_; }
  render::StereoSettings stereoSettings() const;

  /// Per-session SOM drill-down focus: the SOM cell this tenant expanded,
  /// if any (nullopt = overview). Plain session state — two tenants can
  /// drill into different prototypes of the one shared SOM.
  struct SomFocus {
    int x = 0;
    int y = 0;
    bool operator==(const SomFocus&) const = default;
  };
  const std::optional<SomFocus>& somFocus() const { return somFocus_; }
  void setSomFocus(int x, int y) { somFocus_ = SomFocus{x, y}; }
  void clearSomFocus() { somFocus_.reset(); }

  /// Fraction of the dataset visible in the current layout (the §VI.B
  /// "85% of the data" headline for 36x12 over ~500 trajectories).
  float datasetCoverage() const;

  // --- event processing ----------------------------------------------------
  /// Applies one interaction event. Returns false for events that could
  /// not be applied (e.g. invalid group rect).
  bool apply(const ui::Event& event);

  /// Recomputes the cell assignment after direct edits via groups().
  /// (Event-driven edits refresh automatically.)
  void refreshAssignment() { recomputeAssignment(); }

  // --- outputs -------------------------------------------------------------
  /// Current cell -> trajectory assignment.
  const GroupAssignment& assignment() const { return *assignment_; }

  /// Evaluates the coordinated-brush query for the displayed trajectories
  /// (empty brush = no highlights) and builds the frame's scene model.
  /// Evaluation is incremental: brush events report dirty regions to the
  /// query engine, which re-classifies only the trajectories they touch.
  render::SceneModel buildScene();

  /// Cancellable variant: the query evaluation inside polls `cancel` at
  /// chunk granularity. Returns false when the build was abandoned — then
  /// `out` is untouched and the session is never torn: lastQueryResult(),
  /// frameIndex() and the damage-diff state are exactly what they were,
  /// and the engine keeps its dirty-set so the next build resumes the
  /// abandoned work.
  bool buildScene(render::SceneModel& out, const util::Cancellation& cancel);

  /// The query result backing the last buildScene() call. In progressive
  /// mode this is the prototype (cluster-average) result.
  const QueryResult& lastQueryResult() const { return *lastQuery_; }

  // --- progressive (anytime) mode ------------------------------------------
  // Active iff the shared context carries a ShardSomExplorer. buildScene()
  // then produces the anytime cluster overview (core/progressive.h):
  // prototype highlights immediately, per-cluster hit labels and coverage
  // strips that tighten as refinement drains. Brush and time-window events
  // restart the pre-pass on the next build; converged scenes are
  // bit-identical to a from-scratch exact evaluation.

  /// True when this session builds progressive overview scenes.
  bool progressiveMode() const { return progressive_ != nullptr; }

  /// Exactly evaluates up to `maxShards` uncertain shards of the anytime
  /// query (running the pre-pass first if the state is stale). Polled by
  /// `cancel` between shards; returns shards resolved (0 when not in
  /// progressive mode or already converged).
  std::size_t refineProgressive(std::size_t maxShards,
                                const util::Cancellation& cancel =
                                    util::Cancellation::none());

  /// True when there is no refinement work outstanding (trivially true
  /// outside progressive mode).
  bool progressiveConverged() const {
    return progressive_ == nullptr ||
           (!progressive_->dirty && progressive_->query.converged());
  }

  /// The anytime engine, or nullptr outside progressive mode.
  const ProgressiveClusterQuery* progressiveQuery() const {
    return progressive_ ? &progressive_->query : nullptr;
  }

  /// The dataset the last built scene's cells index: the cluster averages
  /// in progressive mode, the context dataset otherwise. Renderers must
  /// pass this (not the context dataset) to renderScene.
  const traj::TrajectoryDataset& sceneDataset() const {
    return progressive_ ? progressive_->sceneDataset : dataset();
  }

  /// Injects the time source for the anytime pre-pass deadline (replay
  /// binds its ManualClock; nullptr = steady clock). No-op outside
  /// progressive mode.
  void bindClock(const util::Clock* clock) {
    if (progressive_) progressive_->query.bindClock(clock);
  }

  /// The incremental engine's counters (invalidation, cache hits, pass
  /// latency) — exposed for benchmarks and diagnostics.
  const QueryEngineMetrics& queryMetrics() const {
    return queryEngine_->metrics();
  }

  /// Frame counter (increments per buildScene).
  std::uint64_t frameIndex() const { return frameIndex_; }

  // --- render damage -------------------------------------------------------
  /// Cell indices (into the last built scene's cells) whose rendered
  /// content changed since the previous buildScene(), computed by content-
  /// hash diff (render::cellContentHash). Meaningful only when
  /// lastSceneFullyDamaged() is false.
  const std::vector<std::size_t>& lastDamagedCells() const {
    return lastDamagedCells_;
  }

  /// True when the whole scene must be considered damaged: the first
  /// frame, a layout switch (cell count/rect change) or a scene-wide
  /// change that dirtied every cell.
  bool lastSceneFullyDamaged() const { return lastSceneFullyDamaged_; }

 private:
  /// Detach-on-write accessors: deep-copy when the buffer is shared with
  /// a fork, no-op when exclusively owned.
  BrushCanvas& mutableBrush();
  GroupManager& mutableGroups();
  void recomputeAssignment();

  struct ProgressiveState {
    explicit ProgressiveState(const ShardSomExplorer& explorer)
        : query(explorer, AnytimeOptions::fromEnv()) {}
    ProgressiveClusterQuery query;
    /// Averages dataset backing the last progressive scene (what
    /// sceneDataset() exposes).
    traj::TrajectoryDataset sceneDataset;
    /// Brush/window changed since the last begin(); the next build or
    /// refine re-runs the pre-pass.
    bool dirty = true;
  };
  /// Re-runs the pre-pass when the anytime state is stale.
  void ensureProgressiveFresh();
  bool buildProgressiveScene(render::SceneModel& out);
  /// Damage-diffs `scene` against the previous frame and publishes it.
  void commitScene(render::SceneModel&& scene, render::SceneModel& out);

  std::shared_ptr<const SharedContext> context_;
  std::size_t activePreset_ = SharedContext::kDefaultPreset;
  std::shared_ptr<BrushCanvas> brush_;
  std::shared_ptr<GroupManager> groups_;
  std::shared_ptr<const GroupAssignment> assignment_;
  ui::RangeSlider timeWindow_;
  ui::StereoControls stereoControls_;
  std::optional<SomFocus> somFocus_;
  std::unique_ptr<QueryEngine> queryEngine_;
  /// Bumped whenever brush_ points at a new canvas (ctor, COW detach);
  /// buildScene() re-binds the engine when it lags, so the engine never
  /// evaluates against a grid this session no longer owns.
  std::uint64_t brushBindVersion_ = 1;
  std::uint64_t engineBoundVersion_ = 0;
  std::vector<std::uint32_t> boundDisplayed_;  ///< set the engine is bound to
  std::shared_ptr<const QueryResult> lastQuery_;
  std::uint64_t frameIndex_ = 0;
  std::vector<std::uint64_t> lastCellHashes_;
  std::vector<std::size_t> lastDamagedCells_;
  bool lastSceneFullyDamaged_ = true;
  std::unique_ptr<ProgressiveState> progressive_;
};

// The VisualQueryApp forwarder (pre-split façade) has been removed after
// its one-release deprecation window. Build a SharedContext and wrap it:
//   auto ctx = SharedContext::create(dataset, wallSpec);
//   Session session(ctx);

}  // namespace svq::core
