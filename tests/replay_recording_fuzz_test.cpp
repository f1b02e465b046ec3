// Property/fuzz tests for the replay-input parser (tier2).
//
// Mirrors traj_io_fuzz_test for the interaction container,
// replay::Recording ("SVQR"): ~1k seed-driven iterations of round-trip,
// truncation, bit-flip and hostile count-field corpora. The parser must
// reject with nullopt — never crash, never accept a non-finite stamp,
// never allocate per a corrupt length field.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "replay/recording.h"
#include "util/rng.h"

namespace svq {
namespace {

constexpr std::uint64_t kFuzzSeed = 0x5C21B7F2ULL;
constexpr int kIterations = 1000;

ui::Event randomEvent(Rng& rng) {
  switch (rng.below(9)) {
    case 0:
      return ui::BrushStrokeEvent{
          static_cast<std::uint8_t>(rng.below(256)),
          {rng.uniform(-500.0f, 500.0f), rng.uniform(-500.0f, 500.0f)},
          rng.uniform(0.0f, 100.0f)};
    case 1:
      return ui::BrushClearEvent{static_cast<std::uint8_t>(rng.below(256))};
    case 2:
      return ui::TimeWindowEvent{rng.uniform(-1e6f, 1e6f),
                                 rng.uniform(-1e6f, 1e6f)};
    case 3:
      return ui::DepthOffsetEvent{rng.uniform(-1e3f, 1e3f)};
    case 4:
      return ui::TimeScaleEvent{rng.uniform(-10.0f, 10.0f)};
    case 5:
      return ui::LayoutSwitchEvent{static_cast<std::uint8_t>(rng.below(256))};
    case 6: {
      ui::GroupDefineEvent g;
      g.groupId = static_cast<std::uint8_t>(rng.below(256));
      g.cellRect = {rng.rangeInt(-100, 100), rng.rangeInt(-100, 100),
                    rng.rangeInt(-100, 100), rng.rangeInt(-100, 100)};
      if (rng.chance(0.5)) g.filter.minDurationS = rng.uniform(0.0f, 100.0f);
      if (rng.chance(0.3)) {
        g.filter.side = static_cast<traj::CaptureSide>(rng.below(5));
      }
      g.colorIndex = static_cast<std::uint8_t>(rng.below(256));
      g.name = std::string(rng.below(24), 'x');
      return g;
    }
    case 7:
      return ui::GroupClearEvent{static_cast<std::uint8_t>(rng.below(256))};
    default:
      return ui::PageEvent{static_cast<std::int8_t>(rng.rangeInt(-2, 2))};
  }
}

replay::Recording randomRecording(Rng& rng) {
  replay::Recording rec;
  rec.world.datasetSeed = rng.next();
  rec.world.trajectoryCount = static_cast<std::uint32_t>(rng.below(200));
  rec.world.wireDropProbability = rng.uniform();
  rec.world.wireFaultSeed = rng.next();
  const std::uint32_t tenants = 1 + static_cast<std::uint32_t>(rng.below(4));
  double t = 0.0;
  for (std::uint32_t s = 0; s < tenants; ++s) rec.admit(s, t += 0.25);
  const std::size_t n = rng.below(16);
  for (std::size_t i = 0; i < n; ++i) {
    const auto tenant = static_cast<std::uint32_t>(rng.below(tenants));
    t += rng.uniform(0.0, 2.0);
    if (rng.chance(0.05)) {
      rec.close(tenant, t);
    } else {
      std::string note;
      if (rng.chance(0.2)) note = std::string(rng.below(10), 'm');
      rec.event(tenant, t, randomEvent(rng), std::move(note));
    }
  }
  return rec;
}

void flipBits(Rng& rng, std::vector<std::uint8_t>& bytes) {
  const std::size_t flips = 1 + rng.below(4);
  for (std::size_t f = 0; f < flips; ++f) {
    bytes[rng.below(bytes.size())] ^= static_cast<std::uint8_t>(
        1u << rng.below(8));
  }
}

TEST(RecordingFuzzTest, RandomRecordingsRoundTripBitIdentically) {
  Rng rng(kFuzzSeed ^ 0x10);
  for (int iter = 0; iter < kIterations; ++iter) {
    const replay::Recording rec = randomRecording(rng);
    const net::MessageBuffer bytes = rec.serialize();
    const auto restored = replay::Recording::deserialize(bytes);
    ASSERT_TRUE(restored.has_value()) << "iteration " << iter;
    ASSERT_EQ(restored->size(), rec.size()) << "iteration " << iter;
    EXPECT_EQ(restored->serialize().bytes(), bytes.bytes())
        << "re-encode differs at iteration " << iter;
  }
}

TEST(RecordingFuzzTest, RandomTruncationsNeverCrash) {
  Rng rng(kFuzzSeed ^ 0x11);
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::vector<std::uint8_t> bytes =
        randomRecording(rng).serialize().bytes();
    const std::size_t cut = rng.below(bytes.size());
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(
        replay::Recording::deserialize(net::MessageBuffer(std::move(prefix)))
            .has_value())
        << "iteration " << iter << " cut " << cut;
  }
}

TEST(RecordingFuzzTest, RandomBitFlipsNeverCrashOrOverAllocate) {
  Rng rng(kFuzzSeed ^ 0x12);
  for (int iter = 0; iter < kIterations; ++iter) {
    std::vector<std::uint8_t> bytes = randomRecording(rng).serialize().bytes();
    flipBits(rng, bytes);
    const std::size_t payload = bytes.size();
    const auto result =
        replay::Recording::deserialize(net::MessageBuffer(std::move(bytes)));
    if (result.has_value()) {
      // Steps are at least 18 serialized bytes each: a parse that
      // "succeeded" off a corrupt count would violate this bound.
      EXPECT_LE(result->size(), payload / 18) << "iteration " << iter;
      for (const replay::RecordedStep& s : result->steps()) {
        ASSERT_TRUE(std::isfinite(s.timeS)) << "iteration " << iter;
      }
    }
  }
}

TEST(RecordingFuzzTest, OversizedCountFieldsAreRejectedWithoutAllocating) {
  Rng rng(kFuzzSeed ^ 0x13);
  for (int iter = 0; iter < kIterations; ++iter) {
    std::vector<std::uint8_t> bytes = randomRecording(rng).serialize().bytes();
    const std::uint32_t huge =
        0x40000000u | static_cast<std::uint32_t>(rng.next());
    // Step count sits after the 8-byte header + 92-byte v2 world block.
    std::memcpy(bytes.data() + 100, &huge, sizeof huge);
    EXPECT_FALSE(
        replay::Recording::deserialize(net::MessageBuffer(std::move(bytes)))
            .has_value())
        << "iteration " << iter;
  }
}

}  // namespace
}  // namespace svq
