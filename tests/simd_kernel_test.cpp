// simd_kernel_test.cpp — SIMD/scalar kernel equivalence and the SoA
// PointsView contract.
//
// The dispatch contract (util/simd.h) is that every vector variant is
// bit-identical to its scalar fallback; the determinism gates (thread
// sweeps, delta-on/off, content-hash goldens) all lean on it. These fuzz
// suites hammer the equivalence on random spans with unaligned heads,
// short tails and SoA block boundaries, and pin PointsView round-trips
// against the legacy AoS representation.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/brush.h"
#include "core/querykernel.h"
#include "render/kernels.h"
#include "traj/trajectory.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/simd.h"

namespace svq {
namespace {

using core::BrushGridView;
using render::Color;
using util::Isa;

constexpr int kFuzzIterations = 1000;

/// Span lengths that exercise empty spans, sub-lane tails, exact lane
/// multiples, and SoA block boundaries (traj::kPointBlock = 64).
std::size_t fuzzLength(Rng& rng) {
  static constexpr std::size_t kEdges[] = {0,   1,   3,   4,   5,   7,
                                           8,   15,  16,  63,  64,  65,
                                           127, 128, 129, 255, 256, 257};
  if (rng.chance(0.5)) {
    return kEdges[rng.below(sizeof(kEdges) / sizeof(kEdges[0]))];
  }
  return static_cast<std::size_t>(rng.below(300));
}

/// ISA variants the running CPU can actually execute.
std::vector<Isa> testableIsas() {
  std::vector<Isa> isas = {Isa::kScalar};
  if (util::detectIsa() >= Isa::kSse2) isas.push_back(Isa::kSse2);
  if (util::detectIsa() >= Isa::kAvx2) isas.push_back(Isa::kAvx2);
  return isas;
}

// ---- point-in-brush kernel ----------------------------------------------

TEST(PointBrushKernelFuzzTest, AllVariantsBitIdenticalToScalarAndBrushAt) {
  Rng rng(0xb1255ULL);
  const auto isas = testableIsas();
  for (int iter = 0; iter < kFuzzIterations; ++iter) {
    const float radius = rng.uniform(10.0f, 80.0f);
    const int resolution = 8 + rng.rangeInt(0, 119);
    core::BrushGrid grid(radius, resolution);
    const int strokes = rng.rangeInt(1, 4);
    for (int s = 0; s < strokes; ++s) {
      grid.paint({static_cast<std::int8_t>(rng.below(6)),
                  {rng.uniform(-radius, radius), rng.uniform(-radius, radius)},
                  rng.uniform(1.0f, radius * 0.5f)});
    }

    const std::size_t n = fuzzLength(rng);
    // Offset the span start inside a bigger buffer so vector loads see
    // unaligned heads, not just allocator-aligned bases.
    const std::size_t offset = static_cast<std::size_t>(rng.below(8));
    std::vector<float> x(n + offset), y(n + offset);
    for (std::size_t i = 0; i < n + offset; ++i) {
      // Straddle the grid edge (|coord| up to 2R) and land some points
      // exactly on texel boundaries where floor() is most brittle.
      x[i] = rng.uniform(-2.0f * radius, 2.0f * radius);
      y[i] = rng.uniform(-2.0f * radius, 2.0f * radius);
      if (rng.chance(0.1)) {
        x[i] = static_cast<float>(static_cast<int>(x[i]));
        y[i] = -radius + static_cast<float>(static_cast<int>(y[i] + radius));
      }
    }

    const BrushGridView view = grid.view();
    std::vector<std::int8_t> scalar(n + 1, 99);
    core::pointBrushScalar(view, x.data() + offset, y.data() + offset,
                           scalar.data(), n);

    // Scalar kernel must equal the original per-point BrushGrid::brushAt.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scalar[i], grid.brushAt({x[i + offset], y[i + offset]}))
          << "iter " << iter << " point " << i;
    }

    for (Isa isa : isas) {
      std::vector<std::int8_t> out(n + 1, 77);
      core::pointBrushVariant(isa, view, x.data() + offset, y.data() + offset,
                              out.data(), n);
      ASSERT_EQ(std::memcmp(out.data(), scalar.data(), n), 0)
          << "iter " << iter << " isa " << util::toString(isa);
      EXPECT_EQ(out[n], 77) << "variant wrote past the span";
    }
  }
}

TEST(PointBrushKernelTest, DispatchMatchesScalarOnDenseSweep) {
  core::BrushGrid grid(50.0f, 256);
  grid.paint({2, {10.0f, -5.0f}, 20.0f});
  const BrushGridView view = grid.view();
  std::vector<float> x, y;
  for (float fy = -60.0f; fy <= 60.0f; fy += 0.7f) {
    for (float fx = -60.0f; fx <= 60.0f; fx += 0.7f) {
      x.push_back(fx);
      y.push_back(fy);
    }
  }
  std::vector<std::int8_t> scalar(x.size()), dispatched(x.size());
  core::pointBrushScalar(view, x.data(), y.data(), scalar.data(), x.size());
  core::pointBrushKernel(view, x.data(), y.data(), dispatched.data(),
                         x.size());
  EXPECT_EQ(std::memcmp(scalar.data(), dispatched.data(), x.size()), 0);
}

TEST(SegmentMidpointsTest, MatchesScalarProbeExpression) {
  Rng rng(0x71dULL);
  std::vector<float> c(130);
  for (auto& v : c) v = rng.uniform(-100.0f, 100.0f);
  std::vector<float> mid(c.size() - 1);
  core::segmentMidpoints(c.data(), mid.data(), mid.size());
  for (std::size_t s = 0; s < mid.size(); ++s) {
    EXPECT_EQ(mid[s], (c[s] + c[s + 1]) * 0.5f);
  }
}

// ---- render span kernels -------------------------------------------------

Color randomColor(Rng& rng) {
  return {static_cast<std::uint8_t>(rng.below(256)),
          static_cast<std::uint8_t>(rng.below(256)),
          static_cast<std::uint8_t>(rng.below(256)),
          static_cast<std::uint8_t>(rng.below(256))};
}

TEST(BlendSpanKernelFuzzTest, AllVariantsBitIdenticalToScalar) {
  Rng rng(0xb1e9dULL);
  const auto isas = testableIsas();
  for (int iter = 0; iter < kFuzzIterations; ++iter) {
    const std::size_t n = fuzzLength(rng);
    const std::size_t offset = static_cast<std::size_t>(rng.below(8));
    Color src = randomColor(rng);
    // Keep the 0/255 alpha extremes in the mix — variants must match
    // scalar there too, even though Canvas::fillSpan fast-paths them.
    if (rng.chance(0.1)) src.a = rng.chance(0.5) ? 0 : 255;

    std::vector<Color> base(n + offset + 1);
    for (auto& px : base) px = randomColor(rng);

    std::vector<Color> scalar = base;
    render::blendSpanScalar(scalar.data() + offset, n, src);

    for (Isa isa : isas) {
      std::vector<Color> out = base;
      render::blendSpanVariant(isa, out.data() + offset, n, src);
      ASSERT_EQ(
          std::memcmp(out.data(), scalar.data(), out.size() * sizeof(Color)),
          0)
          << "iter " << iter << " isa " << util::toString(isa) << " alpha "
          << static_cast<int>(src.a) << " n " << n;
    }
  }
}

TEST(FillCopyRowKernelFuzzTest, AllVariantsBitIdenticalToScalar) {
  Rng rng(0xf111ULL);
  const auto isas = testableIsas();
  for (int iter = 0; iter < kFuzzIterations; ++iter) {
    const std::size_t n = fuzzLength(rng);
    const std::size_t offset = static_cast<std::size_t>(rng.below(8));
    const Color src = randomColor(rng);
    std::vector<Color> base(n + offset + 1);
    std::vector<Color> srcRow(n + offset + 1);
    for (auto& px : base) px = randomColor(rng);
    for (auto& px : srcRow) px = randomColor(rng);

    std::vector<Color> fillScalar = base;
    render::fillRowScalar(fillScalar.data() + offset, n, src);
    std::vector<Color> copyScalar = base;
    render::copyRowScalar(copyScalar.data() + offset, srcRow.data() + offset,
                          n);

    for (Isa isa : isas) {
      std::vector<Color> fillOut = base;
      render::fillRowVariant(isa, fillOut.data() + offset, n, src);
      ASSERT_EQ(std::memcmp(fillOut.data(), fillScalar.data(),
                            base.size() * sizeof(Color)),
                0)
          << "fill iter " << iter << " isa " << util::toString(isa);

      std::vector<Color> copyOut = base;
      render::copyRowVariant(isa, copyOut.data() + offset,
                             srcRow.data() + offset, n);
      ASSERT_EQ(std::memcmp(copyOut.data(), copyScalar.data(),
                            base.size() * sizeof(Color)),
                0)
          << "copy iter " << iter << " isa " << util::toString(isa);
    }
  }
}

// ---- PointsView / SoA round-trip ----------------------------------------

TEST(PointsViewRoundTripTest, SoAStorageMatchesLegacyAoS) {
  Rng rng(0x50aULL);
  for (int iter = 0; iter < 200; ++iter) {
    // Cover sub-block, exact-block and multi-block sizes.
    const std::size_t n = fuzzLength(rng);
    std::vector<traj::TrajPoint> aos;
    aos.reserve(n);
    float t = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      aos.push_back(
          {{rng.uniform(-50.0f, 50.0f), rng.uniform(-50.0f, 50.0f)}, t});
      t += rng.uniform(0.01f, 1.0f);
    }

    const traj::Trajectory traj({}, aos);
    ASSERT_EQ(traj.size(), n);

    // Channel view matches the AoS source sample for sample.
    const traj::PointsView v = traj.view();
    ASSERT_EQ(v.count, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(v.x[i], aos[i].pos.x);
      ASSERT_EQ(v.y[i], aos[i].pos.y);
      ASSERT_EQ(v.t[i], aos[i].t);
      ASSERT_EQ(v[i], aos[i]);
      ASSERT_EQ(traj[i], aos[i]);
    }
    if (n > 0) {
      EXPECT_EQ(traj.front(), aos.front());
      EXPECT_EQ(traj.back(), aos.back());
    }

    // appendPoint builds the same trajectory as bulk construction.
    traj::Trajectory incremental;
    for (const auto& p : aos) incremental.appendPoint(p);
    ASSERT_EQ(incremental.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(incremental[i], aos[i]);
    }
  }
}

TEST(PointsViewTest, ChannelsAreContiguousAndDisjoint) {
  traj::Trajectory t;
  for (std::size_t i = 0; i < 3 * traj::kPointBlock + 5; ++i) {
    t.appendPoint({{static_cast<float>(i), -static_cast<float>(i)},
                   static_cast<float>(i)});
  }
  const traj::PointsView v = t.view();
  // Each channel is one dense span; spans never interleave.
  EXPECT_GE(v.y, v.x + v.count);
  EXPECT_GE(v.t, v.y + v.count);
  for (std::size_t i = 0; i < v.count; ++i) {
    EXPECT_EQ(v.x[i], static_cast<float>(i));
    EXPECT_EQ(v.y[i], -static_cast<float>(i));
    EXPECT_EQ(v.t[i], static_cast<float>(i));
  }
}

// ---- arena ---------------------------------------------------------------

TEST(ArenaTest, AlignsAndRewindsAndReusesMemory) {
  util::Arena arena(256);
  float* a = arena.allocate<float>(10);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % util::Arena::kAlign, 0u);
  {
    util::ArenaScope scope(arena);
    // Force growth past the first chunk.
    std::int8_t* big = arena.allocate<std::int8_t>(1 << 12);
    ASSERT_NE(big, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % util::Arena::kAlign, 0u);
    big[0] = 1;
    big[(1 << 12) - 1] = 2;
  }
  const std::size_t capAfterScope = arena.capacityBytes();
  {
    util::ArenaScope scope(arena);
    // Same shape of allocations must reuse retained chunks, not grow.
    (void)arena.allocate<std::int8_t>(1 << 12);
  }
  EXPECT_EQ(arena.capacityBytes(), capAfterScope);

  // Distinct live allocations never overlap.
  util::ArenaScope scope(arena);
  float* p1 = arena.allocate<float>(16);
  float* p2 = arena.allocate<float>(16);
  EXPECT_GE(reinterpret_cast<std::uintptr_t>(p2),
            reinterpret_cast<std::uintptr_t>(p1 + 16));
}

TEST(SimdDispatchTest, DetectionIsSaneAndStable) {
  const Isa detected = util::detectIsa();
  EXPECT_EQ(util::detectIsa(), detected);
  const Isa active = util::activeIsa();
  EXPECT_EQ(util::activeIsa(), active);
  // The active ISA never exceeds what the hardware supports.
  EXPECT_LE(static_cast<int>(active), static_cast<int>(detected));
  EXPECT_STRNE(util::toString(detected), "?");
  EXPECT_STRNE(util::toString(active), "?");
}

}  // namespace
}  // namespace svq
