#include "replay/scenarios.h"

#include <cmath>
#include <stdexcept>

#include "traj/dataset.h"
#include "util/rng.h"

namespace svq::replay::scenarios {

namespace {

constexpr float kPi = 3.14159265f;

/// The fleet's small world: a 2x1 wall of 160x90 tiles (320x90 px) over
/// 96 synthetic trajectories — big enough for every event type to bite,
/// small enough that a full fleet sweep stays inside the CI budget.
WorldSpec fleetWorld(std::uint64_t datasetSeed) {
  WorldSpec w;
  w.datasetSeed = datasetSeed;
  w.trajectoryCount = 96;
  w.tile = wall::TileSpec{160, 90, 575.0f, 323.0f, 4.0f};
  w.tileCols = 2;
  w.tileRows = 1;
  // Aggressive wire plan: ~1 in 5 delta packets dropped when a runner
  // injects faults, so the resync path is exercised constantly.
  w.wireDropProbability = 0.2;
  w.wireFaultSeed = 0xFA017ULL ^ datasetSeed;
  return w;
}

ui::Event stroke(std::uint8_t brush, float x, float y, float r) {
  return ui::BrushStrokeEvent{brush, {x, y}, r};
}

ui::Event group(std::uint8_t id, int x, int y, int w, int h,
                std::uint8_t color) {
  ui::GroupDefineEvent g;
  g.groupId = id;
  g.cellRect = {x, y, w, h};
  g.colorIndex = color;
  g.name = "bin" + std::to_string(id);
  return g;
}

}  // namespace

Recording canonical() {
  Recording rec;
  rec.world = fleetWorld(0x60D5ULL);
  rec.admit(0, 0.0);
  double t = 1.0;
  const auto at = [&](ui::Event e, const char* note = "") {
    rec.event(0, t, std::move(e), note);
    t += 1.0;
  };
  at(ui::LayoutSwitchEvent{1}, "24x6 layout");
  at(group(0, 0, 0, 8, 3, 1), "west bin");
  at(stroke(0, -20.0f, 0.0f, 10.0f), "H: west exits");
  at(stroke(0, -12.0f, 8.0f, 6.0f));
  at(ui::TimeWindowEvent{0.0f, 40.0f}, "early movement");
  at(ui::PageEvent{+1});
  at(stroke(1, 0.0f, 0.0f, 8.0f), "H: centre search");
  at(ui::TimeScaleEvent{0.4f});
  at(ui::DepthOffsetEvent{-6.0f});
  at(ui::BrushClearEvent{0}, "drop first query");
  at(ui::LayoutSwitchEvent{2}, "36x12 layout");
  at(ui::TimeWindowEvent{0.0f, 1e9f}, "reset filter");
  at(ui::PageEvent{-1});
  at(ui::GroupClearEvent{0});
  return rec;
}

Recording marathon() {
  Recording rec;
  rec.world = fleetWorld(0x3A7A1ULL);
  rec.admit(0, 0.0);
  double t = 0.0;
  rec.event(0, t += 1, ui::LayoutSwitchEvent{1});
  // A standing bin so the page scrubs below actually page (paging is
  // rejected without groups).
  rec.event(0, t += 1, group(0, 0, 0, 10, 4, 1));
  // Twelve hypothesis rounds: a stroke storm sweeping around the arena,
  // a window scrub, a page, then a clear — the long-session cadence.
  for (int round = 0; round < 12; ++round) {
    const float ang = 2.0f * kPi * static_cast<float>(round) / 12.0f;
    const std::uint8_t brush = static_cast<std::uint8_t>(round % 3);
    for (int i = 0; i < 8; ++i) {
      const float reach = 8.0f + 2.0f * static_cast<float>(i);
      rec.event(0, t += 1,
                stroke(brush, std::cos(ang) * reach, std::sin(ang) * reach,
                       4.0f + static_cast<float>(i % 3)));
    }
    rec.event(0, t += 1,
              ui::TimeWindowEvent{0.0f, 20.0f + 10.0f * (round % 4)});
    rec.event(0, t += 1, ui::PageEvent{static_cast<std::int8_t>(round % 2 == 0 ? 1 : -1)});
    if (round % 3 == 2) rec.event(0, t += 1, ui::BrushClearEvent{brush});
  }
  rec.event(0, t += 1, ui::BrushClearEvent{255});
  rec.event(0, t += 1, ui::TimeWindowEvent{0.0f, 1e9f});
  return rec;
}

Recording layoutChurn() {
  Recording rec;
  rec.world = fleetWorld(0xC4CB1ULL);
  rec.admit(0, 0.0);
  double t = 0.0;
  // Cycle every preset while groups churn: defines that survive the
  // switch, defines the smaller grid must prune, pages in between.
  for (int round = 0; round < 10; ++round) {
    const std::uint8_t preset = static_cast<std::uint8_t>(round % 3);
    rec.event(0, t += 1, ui::LayoutSwitchEvent{preset});
    rec.event(0, t += 1,
              group(static_cast<std::uint8_t>(round % 4), (round * 2) % 10, 0,
                    3, 3, static_cast<std::uint8_t>(round % 5)));
    rec.event(0, t += 1, stroke(0, -15.0f + static_cast<float>(round), 5.0f,
                                7.0f));
    rec.event(0, t += 1, ui::PageEvent{+1});
    // A far-right bin: legal on 24x6/36x12, pruned after a switch to 15x4.
    rec.event(0, t += 1, group(5, 20, 0, 4, 4, 2));
    rec.event(0, t += 1, ui::LayoutSwitchEvent{0});
    rec.event(0, t += 1, ui::PageEvent{-1});
    rec.event(0, t += 1,
              ui::GroupClearEvent{static_cast<std::uint8_t>(round % 4)});
  }
  return rec;
}

Recording drilldownStorm() {
  Recording rec;
  rec.world = fleetWorld(0xD811DULL);
  rec.admit(0, 0.0);
  rec.admit(1, 0.5);
  double t = 1.0;
  // Each tenant bins first so its page storm pages instead of rejecting.
  rec.event(0, t += 1, group(0, 0, 0, 9, 4, 1));
  rec.event(1, t += 1, group(0, 3, 1, 9, 4, 3));
  // Two tenants race through narrowing windows and page storms over the
  // same popular region — the drill-down cadence, interleaved.
  for (int round = 0; round < 14; ++round) {
    const std::uint32_t tenant = static_cast<std::uint32_t>(round % 2);
    const float t1 = 120.0f / static_cast<float>(1 + round % 6);
    rec.event(tenant, t += 1, ui::TimeWindowEvent{0.0f, t1});
    rec.event(tenant, t += 1,
              stroke(static_cast<std::uint8_t>(tenant), -10.0f,
                     static_cast<float>(round % 5) * 3.0f, 9.0f));
    for (int p = 0; p < 4; ++p) {
      rec.event(tenant, t += 1, ui::PageEvent{static_cast<std::int8_t>(p % 2 == 0 ? 1 : -1)});
    }
    if (round % 4 == 3) {
      rec.event(tenant, t += 1,
                ui::BrushClearEvent{static_cast<std::uint8_t>(tenant)});
    }
  }
  rec.close(1, t += 1);
  rec.event(0, t += 1, ui::TimeWindowEvent{0.0f, 1e9f});
  return rec;
}

Recording interleave() {
  Recording rec;
  rec.world = fleetWorld(0x171EAULL);
  double t = 0.0;
  constexpr std::uint32_t kTenants = 4;
  for (std::uint32_t s = 0; s < kTenants; ++s) rec.admit(s, t += 0.5);
  // Round-robin: every tenant takes one step per round, with per-tenant
  // spots so streams differ (the isolation-under-sharing probe).
  for (int round = 0; round < 12; ++round) {
    for (std::uint32_t s = 0; s < kTenants; ++s) {
      const float ang = 2.0f * kPi * static_cast<float>(s) / kTenants;
      switch (round % 4) {
        case 0:
          rec.event(s, t += 1,
                    stroke(static_cast<std::uint8_t>(s % 3),
                           std::cos(ang) * 18.0f + static_cast<float>(round),
                           std::sin(ang) * 18.0f, 8.0f));
          break;
        case 1:
          rec.event(s, t += 1,
                    ui::TimeWindowEvent{0.0f, 30.0f + 5.0f * s + round});
          break;
        case 2:
          rec.event(s, t += 1,
                    group(static_cast<std::uint8_t>(s), (s * 5) % 12, 0, 3, 2,
                          static_cast<std::uint8_t>(s % 5)));
          break;
        case 3:
          rec.event(s, t += 1, ui::PageEvent{static_cast<std::int8_t>(s % 2 == 0 ? 1 : -1)});
          break;
      }
    }
  }
  for (std::uint32_t s = 0; s < kTenants; ++s) {
    rec.event(s, t += 1, ui::BrushClearEvent{255});
  }
  return rec;
}

Recording fuzz(std::uint64_t seed, int eventSteps) {
  Recording rec;
  rec.world = fleetWorld(0xF0CA1ULL ^ seed);
  Rng rng(seed);
  const std::uint32_t tenants = 2 + static_cast<std::uint32_t>(rng.below(2));
  double t = 0.0;
  for (std::uint32_t s = 0; s < tenants; ++s) rec.admit(s, t += 0.5);
  for (int i = 0; i < eventSteps; ++i) {
    const auto tenant = static_cast<std::uint32_t>(rng.below(tenants));
    ui::Event e;
    switch (rng.below(9)) {
      case 0:
        e = stroke(static_cast<std::uint8_t>(rng.below(4)),
                   rng.uniform(-60.0f, 60.0f), rng.uniform(-60.0f, 60.0f),
                   rng.uniform(0.5f, 25.0f));
        break;
      case 1:
        // brushIndex 200 is out of palette range; clear must still be a
        // deterministic no-op/success everywhere.
        e = ui::BrushClearEvent{
            static_cast<std::uint8_t>(rng.below(2) ? 255 : 200)};
        break;
      case 2: {
        // Occasionally inverted (t0 > t1) windows.
        const float a = rng.uniform(0.0f, 200.0f);
        const float b = rng.uniform(0.0f, 200.0f);
        e = ui::TimeWindowEvent{a, rng.below(4) == 0 ? b : std::max(a, b)};
        break;
      }
      case 3:
        e = ui::DepthOffsetEvent{rng.uniform(-40.0f, 40.0f)};
        break;
      case 4:
        e = ui::TimeScaleEvent{rng.uniform(0.01f, 2.0f)};
        break;
      case 5:
        // Presets 0-2 are valid; 3-7 must be *rejected* identically at
        // every thread count / wire config.
        e = ui::LayoutSwitchEvent{static_cast<std::uint8_t>(rng.below(8))};
        break;
      case 6: {
        // Rects partly off-grid, zero-sized, or colliding group ids.
        ui::GroupDefineEvent g;
        g.groupId = static_cast<std::uint8_t>(rng.below(8));
        g.cellRect = {static_cast<int>(rng.below(40)) - 4,
                      static_cast<int>(rng.below(16)) - 2,
                      static_cast<int>(rng.below(12)),
                      static_cast<int>(rng.below(8))};
        g.colorIndex = static_cast<std::uint8_t>(rng.below(5));
        e = g;
        break;
      }
      case 7:
        e = ui::GroupClearEvent{static_cast<std::uint8_t>(rng.below(10))};
        break;
      default:
        e = ui::PageEvent{rng.below(2) ? std::int8_t{1} : std::int8_t{-1}};
        break;
    }
    rec.event(tenant, t += 1, std::move(e));
  }
  return rec;
}

Recording overloadSoak() {
  Recording rec;
  rec.world = fleetWorld(0x50A4ULL);
  // Overload plan: depth-driven controller (manual-clock latencies are
  // zero by construction, so the latency trigger stays off and every
  // transition is a pure function of the step sequence). Degraded at
  // aggregate depth >= 30, Shedding at >= 60; health re-evaluated every
  // 8 apply attempts; generous deadline budget (never expires against
  // the between-step clock — the deadline *plumbing* is exercised, the
  // expiry path is covered by unit tests and bench_overload wall-clock).
  rec.world.overload.applyDeadlineUs = 50000;
  rec.world.overload.shedQueueDepth = 60;
  rec.world.overload.healthWindow = 8;
  rec.world.overload.clockAdvanceUsPerStep = 500;

  constexpr std::uint32_t kVictims = 2;
  constexpr std::uint32_t kStorm = 6;
  double t = 0.0;
  for (std::uint32_t v = 0; v < kVictims; ++v) rec.admit(v, t += 0.5);

  const auto victimApply = [&](std::uint32_t v, int i) {
    const float ang = 2.0f * kPi * static_cast<float>(i % 16) / 16.0f;
    rec.event(v, t += 1,
              stroke(static_cast<std::uint8_t>(v), std::cos(ang) * 15.0f,
                     std::sin(ang) * 15.0f, 6.0f));
  };

  // Phase 1 — calm baseline: victims brush, node stays Healthy.
  for (int i = 0; i < 10; ++i) victimApply(i % kVictims, i);

  // Phase 2 — the storm: six tenants flood their queues. 15 rounds x 6
  // submits crosses Degraded (depth 30) around round 5 and Shedding
  // (depth 60) around round 10; later rounds are refused kOverloaded.
  for (std::uint32_t s = 0; s < kStorm; ++s) rec.admit(kVictims + s, t += 0.5);
  for (int round = 0; round < 15; ++round) {
    for (std::uint32_t s = 0; s < kStorm; ++s) {
      rec.submit(kVictims + s, t += 0.25,
                 stroke(static_cast<std::uint8_t>(s % 3),
                        -20.0f + static_cast<float>(round),
                        10.0f - static_cast<float>(s) * 3.0f, 4.0f));
    }
    if (round == 6) {
      // Victim 0 queues three window scrubs of which only the last can
      // matter. The node is Degraded by now, so victim 0's next apply
      // must coalesce the first two away (latest-wins, lossless).
      rec.submit(0, t += 1, ui::TimeWindowEvent{0.0f, 30.0f});
      rec.submit(0, t += 1, ui::TimeWindowEvent{0.0f, 60.0f});
      rec.submit(0, t += 1, ui::TimeWindowEvent{0.0f, 90.0f});
    }
    // One victim apply per round: refused once Shedding — the healthy
    // tenant sees a typed kOverloaded, never a wedge.
    victimApply(round % kVictims, 100 + round);
  }

  // Phase 3 — the storm ends: closing drops the flooded queues, so the
  // aggregate depth collapses to the victims' own (coalesced) backlog.
  for (std::uint32_t s = 0; s < kStorm; ++s) rec.close(kVictims + s, t += 0.5);

  // Phase 4 — bounded recovery: victims keep applying; refused attempts
  // still tick the health window, so the controller steps Shedding →
  // Degraded → Healthy within two evaluation windows and the tail of
  // these applies lands cleanly.
  for (int i = 0; i < 30; ++i) victimApply(i % kVictims, 200 + i);
  rec.event(0, t += 1, ui::BrushClearEvent{255});
  rec.event(1, t += 1, ui::BrushClearEvent{255});
  return rec;
}

Recording pilotStudy() {
  Recording rec;
  // The study world: 500 trajectories on a 6x2 wall of 320x180 tiles.
  rec.world.datasetSeed = 808;
  rec.world.trajectoryCount = 500;
  rec.world.tile = wall::TileSpec{320, 180, 1150.0f, 647.0f, 4.0f};
  rec.world.tileCols = 6;
  rec.world.tileRows = 2;

  const float r = traj::ArenaSpec{}.radiusCm;
  const auto at = [&](double t, ui::Event e, const char* note = "") {
    rec.event(0, t, std::move(e), note);
  };
  rec.admit(0, 0.0);
  // Orientation: densest layout, five condition bins.
  at(0.0, ui::LayoutSwitchEvent{2}, "switch to 36x12 layout");
  const auto bin = [&](double t, std::uint8_t id, int x, int w,
                       traj::CaptureSide side, const char* name) {
    ui::GroupDefineEvent g;
    g.groupId = id;
    g.cellRect = {x, 0, w, 12};
    g.filter.side = side;
    g.colorIndex = id;
    g.name = name;
    at(t, g);
  };
  bin(10.0, 0, 0, 8, traj::CaptureSide::kOnTrail, "ON TRAIL");
  bin(14.0, 1, 8, 7, traj::CaptureSide::kWest, "WEST");
  bin(18.0, 2, 15, 7, traj::CaptureSide::kEast, "EAST");
  bin(22.0, 3, 22, 7, traj::CaptureSide::kNorth, "NORTH");
  bin(26.0, 4, 29, 7, traj::CaptureSide::kSouth, "SOUTH");

  // Low-level inferences from comparing the bins (Sec. VI.A).
  at(60.0, ui::PageEvent{+1}, "C: comparing on-trail against off-trail bins");
  at(75.0, ui::PageEvent{-1},
     "O: on-trail trajectories look more windy, off-trail more direct");

  // Hypothesis 1 (Fig. 5): east-captured ants exit west.
  at(120.0, stroke(0, -r * 0.5f, 0.0f, r * 0.55f),
     "H: ants captured east of the trail exit the arena from the west side");
  at(125.0, stroke(0, -r * 0.3f, r * 0.35f, r * 0.35f));
  at(128.0, stroke(0, -r * 0.3f, -r * 0.35f, r * 0.35f));
  at(150.0, ui::PageEvent{+1},
     "V: red concentrated in the east bin - supported");

  // Hypothesis 2 (Sec. V.B): seed-droppers search the centre early.
  at(200.0, ui::BrushClearEvent{255}, "clear previous query");
  at(210.0, stroke(1, 0.0f, 0.0f, r * 0.2f),
     "H: ants that dropped their seed linger in the centre searching for it");
  at(215.0, ui::TimeWindowEvent{0.0f, 25.0f},
     "narrow to the start of the experiment");
  at(240.0, ui::PageEvent{+1},
     "V: green perpendicular segments in the dropped-seed trajectories - "
     "supported");

  // Ergonomic adjustments while inspecting depth (Sec. IV.C.2).
  at(280.0, ui::TimeScaleEvent{0.4f},
     "exaggerate time axis to read periodicity");
  at(300.0, ui::DepthOffsetEvent{-10.0f},
     "push content back for comfortable viewing");
  at(330.0, ui::TimeScaleEvent{0.2f},
     "O: search loops show as helical structure in depth");

  // Wrap-up comparison.
  at(400.0, ui::TimeWindowEvent{0.0f, 1e9f}, "reset filter");
  at(420.0, ui::PageEvent{+1},
     "C: checking the remaining pages for counter-examples");
  return rec;
}

std::vector<std::string> names() {
  return {"canonical",       "marathon",   "layout_churn",
          "drilldown_storm", "interleave", "fuzz",
          "overload_soak"};
}

Recording byName(const std::string& name) {
  if (name == "canonical") return canonical();
  if (name == "marathon") return marathon();
  if (name == "layout_churn") return layoutChurn();
  if (name == "drilldown_storm") return drilldownStorm();
  if (name == "interleave") return interleave();
  if (name == "fuzz") return fuzz();
  if (name == "overload_soak") return overloadSoak();
  throw std::out_of_range("unknown replay scenario: " + name);
}

}  // namespace svq::replay::scenarios
