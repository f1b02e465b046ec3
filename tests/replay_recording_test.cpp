// Unit tests for the replay container (replay::Recording), the live
// service recorder (replay::Recorder over core::SessionService hooks),
// the pilot-study scenario and the runner's timing log.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "core/sessionservice.h"
#include "replay/recording.h"
#include "replay/runner.h"
#include "replay/scenarios.h"
#include "traj/synth.h"
#include "util/clock.h"

namespace svq::replay {
namespace {

traj::TrajectoryDataset makeDataset(const WorldSpec& spec) {
  traj::AntSimulator sim({}, spec.datasetSeed);
  traj::DatasetSpec ds;
  ds.count = spec.trajectoryCount;
  return sim.generate(ds);
}

Recording sampleRecording() {
  Recording rec;
  rec.world.datasetSeed = 4242;
  rec.world.trajectoryCount = 17;
  rec.world.wireDropProbability = 0.25;
  rec.world.wireFaultSeed = 99;
  rec.admit(0, 0.0);
  rec.admit(1, 0.5);
  rec.event(0, 1.0, ui::BrushStrokeEvent{1, {3.0f, -4.0f}, 7.5f}, "west");
  rec.event(1, 1.5, ui::TimeWindowEvent{2.0f, 60.0f});
  rec.event(0, 2.0, ui::LayoutSwitchEvent{2});
  ui::GroupDefineEvent g;
  g.groupId = 3;
  g.cellRect = {1, 2, 4, 3};
  g.colorIndex = 2;
  g.name = "returners";
  rec.event(1, 2.5, g);
  rec.event(0, 3.0, ui::DepthOffsetEvent{-5.0f});
  rec.event(1, 3.5, ui::TimeScaleEvent{0.5f});
  rec.event(0, 4.0, ui::GroupClearEvent{3});
  rec.event(1, 4.5, ui::PageEvent{-1});
  rec.event(0, 5.0, ui::BrushClearEvent{255});
  rec.close(1, 6.0);
  return rec;
}

TEST(RecordingTest, RoundTripsAllStepKindsAndEventTypes) {
  const Recording rec = sampleRecording();
  const auto restored = Recording::deserialize(rec.serialize());
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), rec.size());
  EXPECT_EQ(restored->world.datasetSeed, rec.world.datasetSeed);
  EXPECT_EQ(restored->world.trajectoryCount, rec.world.trajectoryCount);
  EXPECT_EQ(restored->world.wireDropProbability,
            rec.world.wireDropProbability);
  EXPECT_EQ(restored->world.wireFaultSeed, rec.world.wireFaultSeed);
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const RecordedStep& a = rec.steps()[i];
    const RecordedStep& b = restored->steps()[i];
    EXPECT_EQ(a.kind, b.kind) << "step " << i;
    EXPECT_EQ(a.tenant, b.tenant) << "step " << i;
    EXPECT_EQ(a.timeS, b.timeS) << "step " << i;
    EXPECT_EQ(a.note, b.note) << "step " << i;
    if (a.kind == StepKind::kEvent) {
      EXPECT_EQ(a.event, b.event) << "step " << i;
    }
  }
  EXPECT_EQ(restored->eventCount(), rec.eventCount());
  EXPECT_EQ(restored->tenantCount(), 2u);
}

TEST(RecordingTest, RejectsBadMagicVersionTruncationAndTrailingGarbage) {
  const net::MessageBuffer buf = sampleRecording().serialize();
  const auto& bytes = buf.bytes();

  {  // bad magic
    std::vector<std::uint8_t> corrupt(bytes);
    corrupt[0] ^= 0xFF;
    EXPECT_FALSE(
        Recording::deserialize(net::MessageBuffer(std::move(corrupt))));
  }
  {  // unknown version
    std::vector<std::uint8_t> corrupt(bytes);
    corrupt[4] = 0x7F;
    EXPECT_FALSE(
        Recording::deserialize(net::MessageBuffer(std::move(corrupt))));
  }
  {  // every strict prefix is rejected, never a crash
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<std::uint8_t> prefix(bytes.begin(),
                                       bytes.begin() + static_cast<long>(cut));
      EXPECT_FALSE(
          Recording::deserialize(net::MessageBuffer(std::move(prefix))))
          << "cut " << cut;
    }
  }
  {  // trailing garbage
    std::vector<std::uint8_t> padded(bytes);
    padded.push_back(0xAB);
    EXPECT_FALSE(Recording::deserialize(net::MessageBuffer(std::move(padded))));
  }
  EXPECT_TRUE(Recording::deserialize(net::MessageBuffer(bytes)).has_value());
}

TEST(RecordingTest, RejectsHostileCountsBadKindsAndNonFiniteTimestamps) {
  // The step count sits right after magic+version+world (8 + 104 bytes:
  // v2 appended the five u32 overload-plan fields to the world block,
  // v3 the three u32 progressive-plan fields).
  const std::size_t countOffset = 8 + 104;
  const net::MessageBuffer buf = sampleRecording().serialize();

  {  // hostile step count: bounded by payload, rejected before reserve
    std::vector<std::uint8_t> corrupt(buf.bytes());
    const std::uint32_t huge = 0x7FFFFFFFu;
    std::memcpy(corrupt.data() + countOffset, &huge, sizeof huge);
    EXPECT_FALSE(
        Recording::deserialize(net::MessageBuffer(std::move(corrupt))));
  }
  {  // invalid step kind
    std::vector<std::uint8_t> corrupt(buf.bytes());
    corrupt[countOffset + 4] = 9;  // first step's kind byte
    EXPECT_FALSE(
        Recording::deserialize(net::MessageBuffer(std::move(corrupt))));
  }
  {  // NaN timestamp
    Recording rec;
    rec.admit(0, 0.0);
    rec.event(0, std::numeric_limits<double>::quiet_NaN(), ui::PageEvent{1});
    EXPECT_FALSE(Recording::deserialize(rec.serialize()));
  }
  {  // absurd tenant index (bit-flipped track field)
    Recording rec;
    rec.admit(0x7FFFFFFFu, 0.0);
    EXPECT_FALSE(Recording::deserialize(rec.serialize()));
  }
}

TEST(RecordingTest, TenantSliceKeepsOrderAndRemapsToTrackZero) {
  const Recording rec = sampleRecording();
  const Recording slice = rec.tenantSlice(1);
  ASSERT_EQ(slice.size(), 6u);  // admit + 4 events + close
  EXPECT_EQ(slice.steps().front().kind, StepKind::kAdmit);
  EXPECT_EQ(slice.steps().back().kind, StepKind::kClose);
  double lastTime = -1.0;
  for (const RecordedStep& s : slice.steps()) {
    EXPECT_EQ(s.tenant, 0u);
    EXPECT_GT(s.timeS, lastTime);  // original relative order preserved
    lastTime = s.timeS;
  }
  EXPECT_EQ(slice.world.datasetSeed, rec.world.datasetSeed);
}

// --- format v2/v3: refusals, kSubmit/kRefine steps, back-compat --------------

/// Writes the WorldSpec block by hand — v1 (72 bytes), v2 (92 bytes, with
/// the overload plan) or v3 (104 bytes, with the progressive plan) — so
/// tests can author payloads of any version without going through
/// serialize().
void putWorldBytes(net::MessageBuffer& buf, const WorldSpec& w, int version) {
  buf.putU64(w.datasetSeed);
  buf.putU32(w.trajectoryCount);
  buf.putI32(w.tile.pxW);
  buf.putI32(w.tile.pxH);
  buf.putF32(w.tile.activeWmm);
  buf.putF32(w.tile.activeHmm);
  buf.putF32(w.tile.bezelMm);
  buf.putI32(w.tileCols);
  buf.putI32(w.tileRows);
  buf.putU64(std::bit_cast<std::uint64_t>(w.wireDropProbability));
  buf.putU64(w.wireFaultSeed);
  buf.putU64(std::bit_cast<std::uint64_t>(w.ioFaultPct));
  buf.putU64(w.ioFaultSeed);
  if (version >= 2) {
    buf.putU32(w.overload.applyDeadlineUs);
    buf.putU32(w.overload.shedP99Us);
    buf.putU32(w.overload.shedQueueDepth);
    buf.putU32(w.overload.healthWindow);
    buf.putU32(w.overload.clockAdvanceUsPerStep);
  }
  if (version >= 3) {
    buf.putU32(w.progressive.shardCapacity);
    buf.putU32(w.progressive.somRows);
    buf.putU32(w.progressive.somCols);
  }
}

TEST(RecordingTest, RoundTripsOverloadPlanRefusalsAndSubmits) {
  Recording rec;
  rec.world.datasetSeed = 77;
  rec.world.overload.applyDeadlineUs = 50000;
  rec.world.overload.shedP99Us = 2000;
  rec.world.overload.shedQueueDepth = 60;
  rec.world.overload.healthWindow = 8;
  rec.world.overload.clockAdvanceUsPerStep = 500;
  rec.admit(0, 0.0);
  rec.event(0, 1.0, ui::PageEvent{1});
  rec.submit(0, 2.0, ui::TimeWindowEvent{0.0f, 30.0f}, "queued");
  rec.refused(0, 3.0, ui::BrushStrokeEvent{0, {1.0f, 2.0f}, 5.0f},
              static_cast<std::uint8_t>(core::StatusCode::kOverloaded),
              "shed");
  rec.refused(0, 4.0, ui::PageEvent{-1},
              static_cast<std::uint8_t>(core::StatusCode::kDeadlineExceeded));

  const auto restored = Recording::deserialize(rec.serialize());
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 5u);
  EXPECT_EQ(restored->world.overload.applyDeadlineUs, 50000u);
  EXPECT_EQ(restored->world.overload.shedP99Us, 2000u);
  EXPECT_EQ(restored->world.overload.shedQueueDepth, 60u);
  EXPECT_EQ(restored->world.overload.healthWindow, 8u);
  EXPECT_EQ(restored->world.overload.clockAdvanceUsPerStep, 500u);
  EXPECT_TRUE(restored->world.overload.active());

  const auto& steps = restored->steps();
  EXPECT_EQ(steps[1].refusal, 0);
  EXPECT_EQ(steps[2].kind, StepKind::kSubmit);
  EXPECT_EQ(steps[2].note, "queued");
  EXPECT_EQ(ui::eventTypeName(steps[2].event), "time_window");
  EXPECT_EQ(steps[3].kind, StepKind::kEvent);
  EXPECT_EQ(steps[3].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
  EXPECT_EQ(ui::eventTypeName(steps[3].event), "brush_stroke");
  EXPECT_EQ(steps[4].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kDeadlineExceeded));
  EXPECT_EQ(restored->refusedCount(), 2u);
  // Refusal-tagged steps are part of the event stream (kEvent kind);
  // kSubmit counts as queued traffic, not an applied event.
  EXPECT_EQ(restored->eventCount(), 3u);
}

TEST(RecordingTest, RejectsUnknownRefusalCodesAndRefusedLifecycleSteps) {
  {  // refusal byte beyond the status vocabulary
    Recording rec;
    rec.admit(0, 0.0);
    rec.refused(0, 1.0, ui::PageEvent{1},
                static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
    std::vector<std::uint8_t> bytes(rec.serialize().bytes());
    // The refused step's refusal byte sits at header(8) + world(104) +
    // count(4) + admit step(19) + kind(1) + tenant(4) + time(8).
    const std::size_t refusalOffset = 8 + 104 + 4 + 19 + 13;
    ASSERT_EQ(bytes[refusalOffset],
              static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
    bytes[refusalOffset] =
        static_cast<std::uint8_t>(core::StatusCode::kOverloaded) + 1;
    EXPECT_FALSE(Recording::deserialize(net::MessageBuffer(std::move(bytes))));
  }
  {  // a refusal tag on a lifecycle step is structurally invalid
    net::MessageBuffer buf;
    buf.putU32(Recording::kMagic);
    buf.putU32(2);
    putWorldBytes(buf, WorldSpec{}, /*version=*/2);
    buf.putU32(1);
    buf.putU8(0);  // kAdmit
    buf.putU32(0);
    buf.putU64(std::bit_cast<std::uint64_t>(0.0));
    buf.putU8(static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
    buf.putU8(0xFF);  // no-event marker
    buf.putString("");
    EXPECT_FALSE(Recording::deserialize(std::move(buf)));
  }
}

TEST(RecordingTest, StillParsesVersion1Payloads) {
  // A v1 payload: no overload plan in the world, no refusal bytes in the
  // steps. Old fleet recordings must keep replaying.
  WorldSpec world;
  world.datasetSeed = 31337;
  world.trajectoryCount = 9;
  world.wireDropProbability = 0.125;
  net::MessageBuffer buf;
  buf.putU32(Recording::kMagic);
  buf.putU32(1);
  putWorldBytes(buf, world, /*version=*/1);
  buf.putU32(3);
  buf.putU8(0);  // kAdmit, tenant 0, t=0
  buf.putU32(0);
  buf.putU64(std::bit_cast<std::uint64_t>(0.0));
  buf.putU8(0xFF);
  buf.putString("");
  buf.putU8(1);  // kEvent, tenant 0, t=1
  buf.putU32(0);
  buf.putU64(std::bit_cast<std::uint64_t>(1.0));
  ui::serializeEvent(buf, ui::PageEvent{1});
  buf.putString("old");
  buf.putU8(2);  // kClose, tenant 0, t=2
  buf.putU32(0);
  buf.putU64(std::bit_cast<std::uint64_t>(2.0));
  buf.putU8(0xFF);
  buf.putString("");

  const auto rec = Recording::deserialize(std::move(buf));
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->size(), 3u);
  EXPECT_EQ(rec->world.datasetSeed, 31337u);
  EXPECT_EQ(rec->world.wireDropProbability, 0.125);
  // v1 worlds decode with the overload machinery disarmed, all accepted.
  EXPECT_FALSE(rec->world.overload.active());
  EXPECT_EQ(rec->refusedCount(), 0u);
  EXPECT_EQ(rec->steps()[1].refusal, 0);
  EXPECT_EQ(ui::eventTypeName(rec->steps()[1].event), "page");
  EXPECT_EQ(rec->steps()[1].note, "old");

  // A v2 payload that lies about being v1 (extra overload bytes) is
  // trailing garbage, not silently misparsed.
  net::MessageBuffer lying;
  lying.putU32(Recording::kMagic);
  lying.putU32(1);
  putWorldBytes(lying, world, /*version=*/2);
  lying.putU32(0);
  EXPECT_FALSE(Recording::deserialize(std::move(lying)));
}

// --- format v3: progressive plan + kRefine steps -----------------------------

TEST(RecordingTest, RoundTripsProgressivePlanAndRefineSteps) {
  Recording rec;
  rec.world.datasetSeed = 606;
  rec.world.progressive.shardCapacity = 64;
  rec.world.progressive.somRows = 4;
  rec.world.progressive.somCols = 5;
  rec.admit(0, 0.0);
  rec.event(0, 1.0, ui::BrushStrokeEvent{0, {1.0f, 2.0f}, 5.0f});
  rec.refine(0, 2.0, 8);
  rec.refineRefused(0, 3.0, 16,
                    static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
  rec.close(0, 4.0);

  const auto restored = Recording::deserialize(rec.serialize());
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 5u);
  EXPECT_TRUE(restored->world.progressive.active());
  EXPECT_EQ(restored->world.progressive.shardCapacity, 64u);
  EXPECT_EQ(restored->world.progressive.somRows, 4u);
  EXPECT_EQ(restored->world.progressive.somCols, 5u);

  const auto& steps = restored->steps();
  EXPECT_EQ(steps[2].kind, StepKind::kRefine);
  EXPECT_EQ(steps[2].refineBudget, 8u);
  EXPECT_EQ(steps[2].refusal, 0);
  EXPECT_EQ(steps[3].kind, StepKind::kRefine);
  EXPECT_EQ(steps[3].refineBudget, 16u);
  EXPECT_EQ(steps[3].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
  EXPECT_EQ(restored->refusedCount(), 1u);
  // Refine steps are not event traffic.
  EXPECT_EQ(restored->eventCount(), 1u);
}

TEST(RecordingTest, StillParsesVersion2PayloadsWithInertProgressivePlan) {
  // A hand-authored v2 payload (pre-progressive fleet recording): no
  // progressive-plan bytes in the world, no kRefine steps. It must parse
  // with the progressive machinery disarmed.
  WorldSpec world;
  world.datasetSeed = 2024;
  world.overload.applyDeadlineUs = 1000;
  net::MessageBuffer buf;
  buf.putU32(Recording::kMagic);
  buf.putU32(2);
  putWorldBytes(buf, world, /*version=*/2);
  buf.putU32(2);
  buf.putU8(0);  // kAdmit, tenant 0, t=0
  buf.putU32(0);
  buf.putU64(std::bit_cast<std::uint64_t>(0.0));
  buf.putU8(0);  // refusal
  buf.putU8(0xFF);
  buf.putString("");
  buf.putU8(3);  // kSubmit, tenant 0, t=1
  buf.putU32(0);
  buf.putU64(std::bit_cast<std::uint64_t>(1.0));
  buf.putU8(0);  // refusal
  ui::serializeEvent(buf, ui::PageEvent{1});
  buf.putString("");

  const auto rec = Recording::deserialize(std::move(buf));
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->size(), 2u);
  EXPECT_FALSE(rec->world.progressive.active());
  EXPECT_EQ(rec->world.overload.applyDeadlineUs, 1000u);
  EXPECT_EQ(rec->steps()[1].kind, StepKind::kSubmit);

  // A v2 payload must not smuggle a kRefine step: the kind is gated on
  // the version, not just the enum range.
  net::MessageBuffer refina;
  refina.putU32(Recording::kMagic);
  refina.putU32(2);
  putWorldBytes(refina, world, /*version=*/2);
  refina.putU32(1);
  refina.putU8(4);  // kRefine in a v2 stream
  refina.putU32(0);
  refina.putU64(std::bit_cast<std::uint64_t>(0.0));
  refina.putU8(0);
  refina.putU8(0xFF);
  refina.putU32(8);
  refina.putString("");
  EXPECT_FALSE(Recording::deserialize(std::move(refina)));
}

TEST(RecordingTest, RejectsCorruptProgressivePlansAndZeroRefineBudgets) {
  {  // active plan with a degenerate lattice
    net::MessageBuffer buf;
    buf.putU32(Recording::kMagic);
    buf.putU32(3);
    WorldSpec world;
    world.progressive.shardCapacity = 64;
    world.progressive.somRows = 0;
    world.progressive.somCols = 4;
    putWorldBytes(buf, world, /*version=*/3);
    buf.putU32(0);
    EXPECT_FALSE(Recording::deserialize(std::move(buf)));
  }
  {  // absurd shard capacity (bit-flip territory)
    net::MessageBuffer buf;
    buf.putU32(Recording::kMagic);
    buf.putU32(3);
    WorldSpec world;
    world.progressive.shardCapacity = 0x40000000u;
    world.progressive.somRows = 4;
    world.progressive.somCols = 4;
    putWorldBytes(buf, world, /*version=*/3);
    buf.putU32(0);
    EXPECT_FALSE(Recording::deserialize(std::move(buf)));
  }
  {  // a zero refine budget can only be corruption
    net::MessageBuffer buf;
    buf.putU32(Recording::kMagic);
    buf.putU32(3);
    putWorldBytes(buf, WorldSpec{}, /*version=*/3);
    buf.putU32(1);
    buf.putU8(4);  // kRefine
    buf.putU32(0);
    buf.putU64(std::bit_cast<std::uint64_t>(0.0));
    buf.putU8(0);
    buf.putU8(0xFF);
    buf.putU32(0);  // refineBudget 0
    buf.putString("");
    EXPECT_FALSE(Recording::deserialize(std::move(buf)));
  }
}

TEST(RecordingTest, RefineRoundTripSurvivesSingleByteCorruption) {
  // 1-bit/byte corruption fuzz over a v3 recording with refine steps:
  // deserialize must never crash, and whenever it still parses, a second
  // round trip must be byte-stable (no value can silently mutate into a
  // differently-serializing one).
  Recording rec;
  rec.world.progressive.shardCapacity = 32;
  rec.world.progressive.somRows = 3;
  rec.world.progressive.somCols = 3;
  rec.admit(0, 0.0);
  rec.refine(0, 1.0, 4);
  rec.event(0, 2.0, ui::PageEvent{1});
  rec.refineRefused(0, 3.0, 2,
                    static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
  const std::vector<std::uint8_t> bytes(rec.serialize().bytes());

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> corrupt(bytes);
      corrupt[i] ^= mask;
      const auto parsed =
          Recording::deserialize(net::MessageBuffer(std::move(corrupt)));
      if (!parsed) continue;
      const auto again = Recording::deserialize(parsed->serialize());
      ASSERT_TRUE(again.has_value()) << "byte " << i << " mask " << int(mask);
      EXPECT_EQ(again->serialize().bytes(), parsed->serialize().bytes())
          << "byte " << i << " mask " << int(mask);
    }
  }
}

TEST(RecorderTest, CapturesRefusalsAsRefusalTaggedSteps) {
  WorldSpec spec;
  spec.trajectoryCount = 8;
  const traj::TrajectoryDataset dataset = makeDataset(spec);
  const auto context = core::SharedContext::create(dataset, spec.wallSpec());
  util::ManualClock clock;
  core::SessionService::Options options;
  options.eventQueueDepth = 1;
  options.shedQueueDepth = 2;
  options.clock = &clock;
  core::SessionService service(context, options);

  Recorder recorder(spec);
  recorder.attach(service);

  const auto a = service.admit();
  const auto b = service.admit();
  ASSERT_TRUE(service.submit(a.id, ui::PageEvent{1}).isOk());
  // Queue full: kBackpressure. The event was turned away, so it must be
  // recorded as a refusal, not as applied traffic.
  ASSERT_TRUE(service.submit(a.id, ui::PageEvent{-1}).isBackpressure());
  // Aggregate depth 2 after this: the node starts Shedding.
  ASSERT_TRUE(service.submit(b.id, ui::TimeWindowEvent{0.0f, 30.0f}).isOk());
  ASSERT_TRUE(
      service.apply(b.id, ui::BrushClearEvent{255}).isOverloaded());

  const Recording rec = recorder.finish();
  ASSERT_EQ(rec.size(), 6u);  // 2 admits + 2 accepted + 2 refused
  EXPECT_EQ(rec.refusedCount(), 2u);
  const auto& steps = rec.steps();
  EXPECT_EQ(steps[2].refusal, 0);  // accepted submit
  EXPECT_EQ(steps[3].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kBackpressure));
  EXPECT_EQ(steps[3].kind, StepKind::kEvent);
  EXPECT_EQ(steps[5].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
  EXPECT_EQ(ui::eventTypeName(steps[5].event), "brush_clear");

  // The refusal-tagged stream round-trips bit-true.
  const auto restored = Recording::deserialize(rec.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->refusedCount(), 2u);
  EXPECT_EQ(restored->steps()[5].refusal, steps[5].refusal);
}

TEST(RecorderTest, CapturesRefineCallsWithRequestedBudget) {
  WorldSpec spec;
  spec.trajectoryCount = 8;
  const traj::TrajectoryDataset dataset = makeDataset(spec);
  const auto context = core::SharedContext::create(dataset, spec.wallSpec());
  util::ManualClock clock;
  core::SessionService::Options options;
  options.eventQueueDepth = 1;
  options.shedQueueDepth = 2;
  options.clock = &clock;
  core::SessionService service(context, options);

  Recorder recorder(spec);
  recorder.attach(service);

  const auto a = service.admit();
  const auto b = service.admit();
  // Healthy: refine() succeeds (a no-op on a non-progressive world) and
  // must be recorded with the *requested* budget — replay re-issues the
  // same call, so any health-based scaling is re-derived, not baked in.
  ASSERT_TRUE(service.refine(a.id, 8).isOk());
  // Push the node into Shedding, then refine() is turned away and the
  // refusal must be captured on the step.
  ASSERT_TRUE(service.submit(a.id, ui::PageEvent{1}).isOk());
  ASSERT_TRUE(service.submit(b.id, ui::TimeWindowEvent{0.0f, 30.0f}).isOk());
  ASSERT_TRUE(service.refine(b.id, 4).isOverloaded());

  const Recording rec = recorder.finish();
  ASSERT_EQ(rec.size(), 6u);  // 2 admits + refine + 2 submits + refused refine
  const auto& steps = rec.steps();
  EXPECT_EQ(steps[2].kind, StepKind::kRefine);
  EXPECT_EQ(steps[2].tenant, 0u);
  EXPECT_EQ(steps[2].refineBudget, 8u);
  EXPECT_EQ(steps[2].refusal, 0);
  EXPECT_EQ(steps[5].kind, StepKind::kRefine);
  EXPECT_EQ(steps[5].tenant, 1u);
  EXPECT_EQ(steps[5].refineBudget, 4u);
  EXPECT_EQ(steps[5].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kOverloaded));

  const auto restored = Recording::deserialize(rec.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->steps()[2].refineBudget, 8u);
  EXPECT_EQ(restored->steps()[5].refusal, steps[5].refusal);
}

TEST(RecorderTest, CapturesServiceFlowInStreamOrder) {
  WorldSpec spec;
  spec.trajectoryCount = 8;
  const traj::TrajectoryDataset dataset = makeDataset(spec);
  const auto context = core::SharedContext::create(dataset, spec.wallSpec());
  core::SessionService service(context);

  Recorder recorder(spec);
  recorder.attach(service);

  const auto a = service.admit();
  const auto b = service.admit();
  ASSERT_TRUE(a.status.isOk());
  ASSERT_TRUE(b.status.isOk());

  // Mixed submit()+drain and direct apply() traffic, interleaved tenants.
  ASSERT_TRUE(service.submit(a.id, ui::BrushStrokeEvent{0, {1, 2}, 5}).isOk());
  ASSERT_TRUE(service.apply(b.id, ui::TimeWindowEvent{0, 30}).isOk());
  ASSERT_TRUE(service.submit(a.id, ui::TimeScaleEvent{0.5f}).isOk());
  ASSERT_TRUE(service.drain(a.id).isOk());
  // A rejected event (bad preset) must be recorded too: a replay has to
  // reproduce the rejection deterministically.
  EXPECT_FALSE(service.apply(b.id, ui::LayoutSwitchEvent{9}).isOk());
  ASSERT_TRUE(service.close(b.id).isOk());

  const Recording rec = recorder.finish();
  ASSERT_EQ(rec.size(), 7u);
  const auto& steps = rec.steps();
  EXPECT_EQ(steps[0].kind, StepKind::kAdmit);
  EXPECT_EQ(steps[0].tenant, 0u);
  EXPECT_EQ(steps[1].kind, StepKind::kAdmit);
  EXPECT_EQ(steps[1].tenant, 1u);
  // Submitted events are observed at enqueue (stream-order position), so
  // a's stroke precedes b's window even though a drained later.
  EXPECT_EQ(steps[2].tenant, 0u);
  EXPECT_EQ(ui::eventTypeName(steps[2].event), "brush_stroke");
  EXPECT_EQ(steps[3].tenant, 1u);
  EXPECT_EQ(ui::eventTypeName(steps[3].event), "time_window");
  EXPECT_EQ(steps[4].tenant, 0u);
  EXPECT_EQ(ui::eventTypeName(steps[4].event), "time_scale");
  EXPECT_EQ(steps[5].tenant, 1u);
  EXPECT_EQ(ui::eventTypeName(steps[5].event), "layout_switch");
  EXPECT_EQ(steps[6].kind, StepKind::kClose);
  EXPECT_EQ(steps[6].tenant, 1u);
  // Deterministic default stamps: 0.1 s per recorded step.
  EXPECT_DOUBLE_EQ(steps[0].timeS, 0.0);
  EXPECT_DOUBLE_EQ(steps[3].timeS, 0.3);

  // finish() detached the hooks: further traffic is not recorded.
  ASSERT_TRUE(service.apply(a.id, ui::DepthOffsetEvent{2.0f}).isOk());
  EXPECT_EQ(recorder.size(), 0u);  // moved out, and no new captures
}

TEST(RecorderTest, IgnoresTenantsAdmittedBeforeAttach) {
  WorldSpec spec;
  spec.trajectoryCount = 8;
  const traj::TrajectoryDataset dataset = makeDataset(spec);
  const auto context = core::SharedContext::create(dataset, spec.wallSpec());
  core::SessionService service(context);

  const auto pre = service.admit();
  ASSERT_TRUE(pre.status.isOk());

  Recorder recorder(spec);
  recorder.attach(service);
  // Not ours: admitted before attach.
  ASSERT_TRUE(service.apply(pre.id, ui::DepthOffsetEvent{1.0f}).isOk());
  const auto post = service.admit();
  ASSERT_TRUE(service.apply(post.id, ui::DepthOffsetEvent{1.0f}).isOk());

  const Recording rec = recorder.finish();
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.steps()[0].kind, StepKind::kAdmit);
  EXPECT_EQ(rec.steps()[0].tenant, 0u);  // post is track 0: first *recorded*
  EXPECT_EQ(rec.steps()[1].kind, StepKind::kEvent);
  EXPECT_EQ(rec.steps()[1].tenant, 0u);
}

TEST(RecordingTest, FileRoundTrip) {
  const Recording rec = sampleRecording();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("svq_recording_test_" + std::to_string(::getpid()) + ".svqr"))
          .string();
  ASSERT_TRUE(rec.saveBinary(path));
  const auto loaded = Recording::loadBinary(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->serialize().bytes(), rec.serialize().bytes());
  EXPECT_EQ(loaded->steps()[2].note, "west");
}

TEST(RecordingTest, LoadMissingFileFails) {
  EXPECT_FALSE(Recording::loadBinary("/no/such/file.svqr").has_value());
}

TEST(PilotStudyScenarioTest, AdmitsTrackZeroAndKeepsEventOrder) {
  const Recording rec = scenarios::pilotStudy();
  ASSERT_EQ(rec.size(), 22u);
  EXPECT_EQ(rec.eventCount(), 21u);
  EXPECT_EQ(rec.tenantCount(), 1u);
  EXPECT_EQ(rec.steps()[0].kind, StepKind::kAdmit);
  EXPECT_DOUBLE_EQ(rec.steps()[0].timeS, 0.0);
  EXPECT_EQ(ui::eventTypeName(rec.steps()[1].event), "layout_switch");
  EXPECT_EQ(rec.steps()[1].note, "switch to 36x12 layout");
  EXPECT_DOUBLE_EQ(rec.steps().back().timeS, 420.0);
  double last = 0.0;
  for (const RecordedStep& step : rec.steps()) {
    EXPECT_EQ(step.tenant, 0u);
    EXPECT_LE(last, step.timeS);
    last = step.timeS;
  }
}

TEST(RunnerTimingLogTest, NamesTheScenarioAndEveryCounter) {
  Runner runner(scenarios::canonical());
  const RunReport report = runner.run();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("svq_timing_log_test_" + std::to_string(::getpid()) + ".json"))
          .string();
  ASSERT_TRUE(report.writeTimingLog(path, "canonical"));
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());

  EXPECT_NE(json.find("\"name\": \"canonical\""), std::string::npos);
  EXPECT_NE(json.find("\"median_ms\": "), std::string::npos);
  EXPECT_NE(json.find("\"p95_ms\": "), std::string::npos);
  // The keys scripts/perf_smoke.py --info and the CI replay-timing step
  // read: all sixteen, each exactly once.
  for (const char* key :
       {"steps", "events_applied", "events_rejected", "events_shed",
        "events_submitted", "refine_steps", "shards_refined",
        "apply_us_total", "apply_us_p95", "build_us_total", "build_us_p95",
        "raster_us_total", "raster_us_p95", "packets_dropped", "resyncs",
        "total_ms"}) {
    const std::string quoted = "\"" + std::string(key) + "\": ";
    const std::size_t at = json.find(quoted);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_EQ(json.find(quoted, at + 1), std::string::npos) << key;
  }
  char steps[64];
  std::snprintf(steps, sizeof steps, "\"steps\": %zu.000000",
                report.steps.size());
  EXPECT_NE(json.find(steps), std::string::npos) << json;
  char applied[64];
  std::snprintf(applied, sizeof applied, "\"events_applied\": %zu.000000",
                report.eventsApplied);
  EXPECT_NE(json.find(applied), std::string::npos) << json;
}

TEST(RunnerTimingLogTest, UnwritablePathFails) {
  const RunReport report;
  EXPECT_FALSE(report.writeTimingLog("/no/such/dir/t.json", "canonical"));
}

}  // namespace
}  // namespace svq::replay
