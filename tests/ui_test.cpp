// Tests for ui/events.h (serialization) and ui/controls.h.
#include "ui/controls.h"
#include "ui/events.h"

#include <gtest/gtest.h>

namespace svq::ui {
namespace {

Event roundTrip(const Event& e) {
  net::MessageBuffer buf;
  serializeEvent(buf, e);
  buf.rewind();
  return deserializeEvent(buf);
}

TEST(EventSerdeTest, BrushStroke) {
  BrushStrokeEvent e;
  e.brushIndex = 2;
  e.centerCm = {-3.5f, 7.25f};
  e.radiusCm = 4.5f;
  const Event out = roundTrip(e);
  EXPECT_EQ(std::get<BrushStrokeEvent>(out), e);
}

TEST(EventSerdeTest, BrushClear) {
  BrushClearEvent e;
  e.brushIndex = 255;
  EXPECT_EQ(std::get<BrushClearEvent>(roundTrip(e)), e);
}

TEST(EventSerdeTest, TimeWindow) {
  TimeWindowEvent e;
  e.t0 = 12.5f;
  e.t1 = 80.0f;
  EXPECT_EQ(std::get<TimeWindowEvent>(roundTrip(e)), e);
}

TEST(EventSerdeTest, Sliders) {
  DepthOffsetEvent d;
  d.offsetCm = -15.0f;
  EXPECT_EQ(std::get<DepthOffsetEvent>(roundTrip(d)), d);
  TimeScaleEvent s;
  s.cmPerSecond = 0.65f;
  EXPECT_EQ(std::get<TimeScaleEvent>(roundTrip(s)), s);
}

TEST(EventSerdeTest, LayoutSwitch) {
  LayoutSwitchEvent e;
  e.presetIndex = 2;
  EXPECT_EQ(std::get<LayoutSwitchEvent>(roundTrip(e)), e);
}

TEST(EventSerdeTest, GroupDefineWithFilter) {
  GroupDefineEvent e;
  e.groupId = 3;
  e.cellRect = {2, 0, 5, 4};
  e.filter.side = traj::CaptureSide::kEast;
  e.filter.minDurationS = 15.0f;
  e.colorIndex = 2;
  e.name = "EAST BIN";
  EXPECT_EQ(std::get<GroupDefineEvent>(roundTrip(e)), e);
}

TEST(EventSerdeTest, GroupClearAndPage) {
  GroupClearEvent g;
  g.groupId = 9;
  EXPECT_EQ(std::get<GroupClearEvent>(roundTrip(g)), g);
  PageEvent p;
  p.direction = -1;
  EXPECT_EQ(std::get<PageEvent>(roundTrip(p)), p);
}

TEST(EventSerdeTest, MetaFilterAllFieldsRoundTrip) {
  traj::MetaFilter f;
  f.side = traj::CaptureSide::kSouth;
  f.direction = traj::JourneyDirection::kReturning;
  f.seed = traj::SeedState::kDroppedAtCapture;
  f.minDurationS = 1.5f;
  f.maxDurationS = 99.0f;
  net::MessageBuffer buf;
  serializeMetaFilter(buf, f);
  buf.rewind();
  EXPECT_EQ(deserializeMetaFilter(buf), f);
}

TEST(EventSerdeTest, EmptyMetaFilterRoundTrip) {
  net::MessageBuffer buf;
  serializeMetaFilter(buf, traj::MetaFilter{});
  buf.rewind();
  EXPECT_TRUE(deserializeMetaFilter(buf).isUnconstrained());
}

TEST(EventTypeNameTest, DistinctNames) {
  EXPECT_EQ(eventTypeName(BrushStrokeEvent{}), "brush_stroke");
  EXPECT_EQ(eventTypeName(TimeWindowEvent{}), "time_window");
  EXPECT_EQ(eventTypeName(LayoutSwitchEvent{}), "layout_switch");
  EXPECT_EQ(eventTypeName(GroupDefineEvent{}), "group_define");
  EXPECT_EQ(eventTypeName(PageEvent{}), "page");
}

TEST(SliderTest, ClampsToRange) {
  Slider s(0.0f, 10.0f, 5.0f);
  s.set(-3.0f);
  EXPECT_FLOAT_EQ(s.value(), 0.0f);
  s.set(42.0f);
  EXPECT_FLOAT_EQ(s.value(), 10.0f);
}

TEST(SliderTest, StepQuantizes) {
  Slider s(0.0f, 10.0f, 0.0f, 0.5f);
  s.set(3.3f);
  EXPECT_FLOAT_EQ(s.value(), 3.5f);
  s.set(3.2f);
  EXPECT_FLOAT_EQ(s.value(), 3.0f);
}

TEST(SliderTest, NormalizedRoundTrip) {
  Slider s(-10.0f, 10.0f, 0.0f);
  EXPECT_FLOAT_EQ(s.normalized(), 0.5f);
  s.setNormalized(0.75f);
  EXPECT_FLOAT_EQ(s.value(), 5.0f);
}

TEST(RangeSliderTest, MaintainsOrdering) {
  RangeSlider r(0.0f, 100.0f);
  EXPECT_TRUE(r.isFullRange());
  r.setRange(30.0f, 60.0f);
  EXPECT_FLOAT_EQ(r.lo(), 30.0f);
  EXPECT_FLOAT_EQ(r.hi(), 60.0f);
  EXPECT_FALSE(r.isFullRange());
  r.setRange(80.0f, 20.0f);  // swapped input
  EXPECT_LE(r.lo(), r.hi());
}

TEST(RangeSliderTest, ThumbsCannotCross) {
  RangeSlider r(0.0f, 100.0f);
  r.setRange(40.0f, 60.0f);
  r.setLo(70.0f);  // clamped to hi
  EXPECT_FLOAT_EQ(r.lo(), 60.0f);
  r.setHi(10.0f);  // clamped to lo
  EXPECT_FLOAT_EQ(r.hi(), 60.0f);
}

TEST(RangeSliderTest, ResetRestoresFullRange) {
  RangeSlider r(0.0f, 50.0f);
  r.setRange(10.0f, 20.0f);
  r.reset();
  EXPECT_TRUE(r.isFullRange());
}

TEST(StereoControlsTest, ApplyToSettings) {
  StereoControls controls;
  controls.depthOffsetCm().set(-12.0f);
  controls.timeScaleCmPerS().set(0.4f);
  render::StereoSettings s;
  controls.applyTo(s);
  EXPECT_FLOAT_EQ(s.depthOffsetCm, -12.0f);
  EXPECT_FLOAT_EQ(s.timeScaleCmPerS, 0.4f);
}

TEST(StereoControlsTest, ComfortCheckReflectsSliders) {
  StereoControls controls;
  render::StereoSettings base;
  base.parallaxPxPerCm = 1.0f;
  base.maxComfortParallaxPx = 20.0f;
  controls.timeScaleCmPerS().set(0.05f);
  EXPECT_TRUE(controls.comfortable(base, 180.0f));  // 9 px
  controls.timeScaleCmPerS().set(1.0f);
  EXPECT_FALSE(controls.comfortable(base, 180.0f));
}

}  // namespace
}  // namespace svq::ui
