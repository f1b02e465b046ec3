#include "replay/runner.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "cluster/scene_serde.h"
#include "core/clusterquery.h"
#include "core/sessionservice.h"
#include "net/fault.h"
#include "render/pipeline.h"
#include "traj/shardstore.h"
#include "traj/synth.h"
#include "util/bench_report.h"
#include "util/clock.h"
#include "util/stopwatch.h"
#include "util/threadpool.h"

namespace svq::replay {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnvMix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

/// The rebuilt world plus per-tenant replay state. Declaration order is
/// teardown order in reverse: the dataset must outlive the context, the
/// context the service, and the pool every pipeline using it.
struct Runner::World {
  traj::TrajectoryDataset dataset;
  wall::WallSpec wallSpec;
  /// Progressive-plan worlds (format v3): the dataset sharded out to a
  /// scratch store, clustered by the recorded SOM lattice. Both the store
  /// build and the (serial) training are bit-deterministic, so every
  /// replay of the recording sees the identical clustering.
  std::string storePath;
  std::shared_ptr<traj::ShardStore> store;
  std::shared_ptr<const core::ShardSomExplorer> explorer;
  std::shared_ptr<const core::SharedContext> context;
  std::unique_ptr<ThreadPool> pool;
  /// Deterministic time source for overload-plan replays: advanced by
  /// clockAdvanceUsPerStep between steps, never during one, so deadline
  /// and health decisions are pure functions of the step index. Must
  /// outlive the service, which holds a pointer to it.
  util::ManualClock clock;
  std::unique_ptr<core::SessionService> service;
  std::unique_ptr<net::FaultInjector> wireFaults;

  struct TenantState {
    core::SessionId id = 0;
    bool live = false;
    render::Framebuffer fb;
    std::unique_ptr<render::CellRenderPipeline> pipeline;
    cluster::SceneDeltaEncoder encoder;
    cluster::SceneReceiver receiver;
  };
  std::vector<TenantState> tenants;

  explicit World(const WorldSpec& spec)
      : dataset(regenerate(spec)), wallSpec(spec.wallSpec()) {
    if (!spec.progressive.active()) return;
    storePath = (std::filesystem::temp_directory_path() /
                 ("svq_replay_" +
                  std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
                  ".svqs"))
                    .string();
    if (!traj::writeShardStore(dataset, storePath,
                               spec.progressive.shardCapacity)) {
      throw std::runtime_error("replay: cannot write scratch shard store");
    }
    auto opened = traj::ShardStore::open(storePath);
    if (!opened) {
      throw std::runtime_error("replay: cannot open scratch shard store");
    }
    store = std::make_shared<traj::ShardStore>(std::move(*opened));
    traj::SomParams sp;
    sp.rows = spec.progressive.somRows;
    sp.cols = spec.progressive.somCols;
    traj::FeatureParams fp;
    fp.arenaRadiusCm = dataset.arena().radiusCm;
    explorer = std::make_shared<core::ShardSomExplorer>(*store, sp, fp);
  }

  ~World() {
    // The explorer borrows the store; drop it before the file goes.
    explorer.reset();
    store.reset();
    if (!storePath.empty()) {
      std::error_code ec;
      std::filesystem::remove(storePath, ec);
    }
  }

  static traj::TrajectoryDataset regenerate(const WorldSpec& spec) {
    traj::AntSimulator simulator({}, spec.datasetSeed);
    traj::DatasetSpec ds;
    ds.count = spec.trajectoryCount;
    return simulator.generate(ds);
  }
};

Runner::Runner(Recording recording, RunnerOptions options)
    : recording_(std::move(recording)), options_(options) {}

Runner::~Runner() = default;

const traj::TrajectoryDataset& Runner::dataset() const {
  if (!world_) throw std::logic_error("Runner::dataset() before run()");
  return world_->dataset;
}

core::SessionService* Runner::service() {
  return world_ ? world_->service.get() : nullptr;
}

bool Runner::inspectSession(std::uint32_t tenant,
                            const std::function<void(core::Session&)>& fn) {
  if (!world_ || tenant >= world_->tenants.size()) return false;
  World::TenantState& t = world_->tenants[tenant];
  if (!t.live) return false;
  return world_->service->withSession(t.id, fn).isOk();
}

RunReport Runner::run() {
  const WorldSpec& spec = recording_.world;
  world_ = std::make_unique<World>(spec);
  World& w = *world_;
  {
    core::SharedContext::Options co;
    co.shardStore = w.store;
    co.shardExplorer = w.explorer;
    w.context = core::SharedContext::create(w.dataset, w.wallSpec,
                                            std::move(co));
  }
  const WorldSpec::OverloadPlan& plan = spec.overload;
  {
    core::SessionService::Options so;
    so.maxSessions =
        std::max<std::size_t>(recording_.tenantCount(), so.maxSessions);
    if (plan.active()) {
      // Overload-plan replay: the health controller runs against the
      // manual clock, so every deadline/shed decision is a deterministic
      // function of the recorded steps.
      so.applyDeadlineUs = plan.applyDeadlineUs;
      so.shedP99Us = plan.shedP99Us;
      so.shedQueueDepth = plan.shedQueueDepth;
      if (plan.healthWindow != 0) so.healthWindow = plan.healthWindow;
      so.clock = &w.clock;
    }
    w.service = std::make_unique<core::SessionService>(w.context, so);
  }
  if (options_.renderThreads > 1) {
    w.pool = std::make_unique<ThreadPool>(
        static_cast<unsigned>(options_.renderThreads));
  }
  if (options_.injectWireFaults) {
    net::FaultInjector::Plan wire;
    wire.dropProbability = spec.wireDropProbability;
    wire.seed = spec.wireFaultSeed;
    w.wireFaults = std::make_unique<net::FaultInjector>(wire);
  }
  w.tenants.resize(recording_.tenantCount());

  RunReport report;
  report.steps.reserve(recording_.size());
  Stopwatch total;

  for (std::size_t i = 0; i < recording_.steps().size(); ++i) {
    const RecordedStep& step = recording_.steps()[i];
    if (plan.clockAdvanceUsPerStep != 0) {
      w.clock.advance(plan.clockAdvanceUsPerStep);
    }
    StepTrace trace;
    trace.index = static_cast<std::uint32_t>(i);
    trace.tenant = step.tenant;

    World::TenantState& tenant = w.tenants[step.tenant];
    switch (step.kind) {
      case StepKind::kAdmit: {
        trace.type = "admit";
        const auto admission = w.service->admit();
        trace.applied = admission.status.isOk();
        if (trace.applied) {
          tenant.id = admission.id;
          tenant.live = true;
          tenant.fb = render::Framebuffer(w.wallSpec.totalPxW(),
                                          w.wallSpec.totalPxH());
          render::PipelineOptions po;
          po.pool = w.pool.get();
          po.sharedCache =
              options_.useSharedCache ? &w.context->renderCache() : nullptr;
          tenant.pipeline =
              std::make_unique<render::CellRenderPipeline>(po);
          tenant.encoder = cluster::SceneDeltaEncoder();
          tenant.receiver = cluster::SceneReceiver();
          renderStep(w, step.tenant, trace, report);
        }
        break;
      }
      case StepKind::kEvent: {
        trace.type = ui::eventTypeName(step.event);
        if (!tenant.live) {
          trace.applied = false;
          break;
        }
        if (step.refusal != 0) {
          // Recorded refusal: the live service turned this event away, so
          // the replay must re-see the refusal, never apply the event.
          // The frame still renders (unchanged state) to keep the hash
          // sequence step-aligned with the live run.
          trace.applied = false;
          trace.refusal = step.refusal;
          ++report.eventsShed;
          renderStep(w, step.tenant, trace, report);
          break;
        }
        Stopwatch apply;
        const core::Status status = w.service->apply(tenant.id, step.event);
        trace.applyUs = apply.elapsedMicros();
        trace.applied = status.isOk();
        if (trace.applied) {
          ++report.eventsApplied;
        } else if (status.isLoadShed()) {
          // Authored overload scenarios carry no refusal tags; the
          // replayed health controller makes the shedding decision
          // itself — deterministically, under the manual clock.
          trace.refusal = static_cast<std::uint8_t>(status.code);
          ++report.eventsShed;
        } else {
          ++report.eventsRejected;
        }
        renderStep(w, step.tenant, trace, report);
        break;
      }
      case StepKind::kSubmit: {
        trace.type = ui::eventTypeName(step.event);
        if (!tenant.live) {
          trace.applied = false;
          break;
        }
        const core::Status status = w.service->submit(tenant.id, step.event);
        trace.applied = status.isOk();
        if (trace.applied) {
          ++report.eventsSubmitted;
        } else if (status.isLoadShed()) {
          trace.refusal = static_cast<std::uint8_t>(status.code);
          ++report.eventsShed;
        } else {
          ++report.eventsRejected;
        }
        // No render: submit only queues; the visible state is unchanged
        // until a drain/apply, so the hash stays 0 like kClose steps.
        break;
      }
      case StepKind::kRefine: {
        trace.type = "refine";
        if (!tenant.live) {
          trace.applied = false;
          break;
        }
        if (step.refusal != 0) {
          // Recorded refusal: re-see it, never run the refinement. The
          // frame still renders (unchanged estimates) to keep the hash
          // sequence step-aligned with the live run.
          trace.applied = false;
          trace.refusal = step.refusal;
          ++report.eventsShed;
          renderStep(w, step.tenant, trace, report);
          break;
        }
        Stopwatch apply;
        std::size_t refined = 0;
        const core::Status status =
            w.service->refine(tenant.id, step.refineBudget, &refined);
        trace.applyUs = apply.elapsedMicros();
        trace.applied = status.isOk();
        if (trace.applied) {
          ++report.refineSteps;
          report.shardsRefined += refined;
        } else if (status.isLoadShed()) {
          trace.refusal = static_cast<std::uint8_t>(status.code);
          ++report.eventsShed;
        } else {
          ++report.eventsRejected;
        }
        renderStep(w, step.tenant, trace, report);
        break;
      }
      case StepKind::kClose: {
        trace.type = "close";
        if (tenant.live) {
          trace.applied = w.service->close(tenant.id).isOk();
          tenant.live = false;
          tenant.pipeline.reset();
        } else {
          trace.applied = false;
        }
        break;
      }
    }
    trace.health = static_cast<std::uint8_t>(w.service->health());
    report.steps.push_back(std::move(trace));
  }

  report.totalMs = total.elapsedMillis();
  return report;
}

void Runner::renderStep(World& w, std::uint32_t tenantIndex, StepTrace& trace,
                        RunReport& report) {
  World::TenantState& tenant = w.tenants[tenantIndex];
  Stopwatch build;
  render::SceneModel scene;
  if (!w.service->buildScene(tenant.id, scene).isOk()) {
    trace.applied = false;
    return;
  }
  trace.buildUs = build.elapsedMicros();

  Stopwatch raster;
  const render::SceneModel* toRender = &scene;
  if (options_.deltaBroadcast) {
    // Master-side encode, a possibly faulty wire, receiver-side decode:
    // the replayed frame is whatever the *receiver* ends up holding. A
    // dropped or rejected packet takes the epoch+ack resync path (a
    // reliable full re-send), so every step converges to the current
    // frame — faults may change the path, never the pixels.
    net::MessageBuffer packet;
    const cluster::ScenePacketKind kind = tenant.encoder.encode(packet, scene);
    trace.packetKind = static_cast<std::uint8_t>(kind);
    bool delivered = true;
    if (options_.injectWireFaults) {
      double delayS = 0.0;
      // One edge per tenant (master rank 0 -> receiver 1+track), so each
      // tenant's drop sequence is reproducible independent of the others.
      delivered = w.wireFaults->onSend(
          0, 1 + static_cast<int>(trace.tenant % 62), delayS);
    }
    bool applied = false;
    if (delivered) {
      applied = tenant.receiver.apply(packet);
    } else {
      ++report.packetsDropped;
    }
    if (!applied) {
      net::MessageBuffer resync;
      tenant.encoder.encodeResync(resync, scene);
      trace.resynced = tenant.receiver.apply(resync);
      trace.packetKind =
          static_cast<std::uint8_t>(cluster::ScenePacketKind::kFull);
      ++report.resyncs;
    }
    toRender = &tenant.receiver.scene();
  }
  // Render under the tenant's lock against the dataset the scene's cells
  // index (Session::sceneDataset: the cluster averages in progressive
  // mode, the world dataset otherwise), so no dataset reference outlives
  // the lock. A tenant the service no longer knows marks the step not
  // applied.
  const core::Status rendered =
      w.service->withSession(tenant.id, [&](core::Session& s) {
        tenant.pipeline->render(*toRender, s.sceneDataset(),
                                render::Canvas::whole(tenant.fb),
                                options_.eye);
      });
  trace.rasterUs = raster.elapsedMicros();
  if (!rendered.isOk()) {
    trace.applied = false;
    return;
  }
  trace.frameHash = tenant.fb.contentHash();
}

std::vector<std::uint64_t> RunReport::frameHashes() const {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(steps.size());
  for (const StepTrace& s : steps) hashes.push_back(s.frameHash);
  return hashes;
}

std::uint64_t RunReport::fleetHash() const {
  std::uint64_t h = kFnvOffset;
  for (const StepTrace& s : steps) {
    h = fnvMix(h, s.tenant);
    h = fnvMix(h, s.frameHash);
  }
  return h;
}

bool RunReport::writeTimingLog(const std::string& path,
                               const std::string& scenario) const {
  std::vector<double> stepMs, applyUs, buildUs, rasterUs;
  stepMs.reserve(steps.size());
  double applyTotal = 0.0, buildTotal = 0.0, rasterTotal = 0.0;
  for (const StepTrace& s : steps) {
    stepMs.push_back((s.applyUs + s.buildUs + s.rasterUs) / 1000.0);
    applyUs.push_back(s.applyUs);
    buildUs.push_back(s.buildUs);
    rasterUs.push_back(s.rasterUs);
    applyTotal += s.applyUs;
    buildTotal += s.buildUs;
    rasterTotal += s.rasterUs;
  }
  util::BenchReport log;
  log.add(scenario, stepMs).counters = {
      {"steps", static_cast<double>(steps.size())},
      {"events_applied", static_cast<double>(eventsApplied)},
      {"events_rejected", static_cast<double>(eventsRejected)},
      {"events_shed", static_cast<double>(eventsShed)},
      {"events_submitted", static_cast<double>(eventsSubmitted)},
      {"refine_steps", static_cast<double>(refineSteps)},
      {"shards_refined", static_cast<double>(shardsRefined)},
      {"apply_us_total", applyTotal},
      {"apply_us_p95", util::p95(applyUs)},
      {"build_us_total", buildTotal},
      {"build_us_p95", util::p95(buildUs)},
      {"raster_us_total", rasterTotal},
      {"raster_us_p95", util::p95(rasterUs)},
      {"packets_dropped", static_cast<double>(packetsDropped)},
      {"resyncs", static_cast<double>(resyncs)},
      {"total_ms", totalMs},
  };
  return log.write(path);
}

}  // namespace svq::replay
