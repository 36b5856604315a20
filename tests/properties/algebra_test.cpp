// The Section 6/7 stack algebra, checked against the registered layers'
// actual Table 3 rows -- including the paper's worked example: the stack
// TOTAL:MBRSHIP:FRAG:NAK:COM over a network providing only P1 "results in
// the properties P3, P4, P6, P8, P9, P10, P11, P12, and P15".
#include "horus/properties/algebra.hpp"

#include <gtest/gtest.h>

#include "horus/layers/registry.hpp"

namespace horus::props {
namespace {

using layers::layer_spec;

std::vector<LayerSpec> specs_for(const std::string& spec_string) {
  std::vector<LayerSpec> out;
  for (const auto& name : layers::split_spec(spec_string)) {
    out.push_back(layer_spec(name));
  }
  return out;
}

constexpr PropertySet kP1 = make_set({Property::kBestEffort});

TEST(Algebra, Section7WorkedExample) {
  auto result = derive(specs_for("TOTAL:MBRSHIP:FRAG:NAK:COM"), kP1);
  ASSERT_TRUE(result.has_value());
  PropertySet expected = make_set(
      {Property::kFifoUnicast, Property::kFifoMulticast, Property::kTotalOrder,
       Property::kVirtualSemiSync, Property::kVirtualSync,
       Property::kGarblingDetect, Property::kSourceAddress,
       Property::kLargeMessages, Property::kConsistentViews});
  EXPECT_EQ(to_string(*result), to_string(expected))
      << "Section 7 derivation mismatch";
}

TEST(Algebra, ComAloneProvidesP10P11) {
  auto result = derive(specs_for("COM"), kP1);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(has(*result, Property::kGarblingDetect));
  EXPECT_TRUE(has(*result, Property::kSourceAddress));
  EXPECT_TRUE(has(*result, Property::kBestEffort));  // inherited
}

TEST(Algebra, NakReplacesBestEffort) {
  auto result = derive(specs_for("NAK:COM"), kP1);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(has(*result, Property::kFifoUnicast));
  EXPECT_TRUE(has(*result, Property::kFifoMulticast));
  EXPECT_FALSE(has(*result, Property::kBestEffort))
      << "NAK must not inherit P1: delivery is no longer best-effort";
}

TEST(Algebra, IllFormedWhenRequirementMissing) {
  // FRAG requires FIFO; stacking it directly on COM must be rejected.
  StackCheck c = check_stack(specs_for("FRAG:COM"), kP1);
  EXPECT_FALSE(c.well_formed);
  EXPECT_NE(c.error.find("FRAG"), std::string::npos);
  EXPECT_NE(c.error.find("P3"), std::string::npos);
}

TEST(Algebra, OrderMatters) {
  // MBRSHIP above FRAG works; below it does not (MBRSHIP needs P12).
  EXPECT_TRUE(derive(specs_for("MBRSHIP:FRAG:NAK:COM"), kP1).has_value());
  EXPECT_FALSE(derive(specs_for("FRAG:MBRSHIP:NAK:COM"), kP1).has_value());
}

TEST(Algebra, RawComNeedsChksumForNak) {
  // RAWCOM lacks the checksum, so NAK's P10 requirement fails...
  EXPECT_FALSE(derive(specs_for("NAK:RAWCOM"), kP1).has_value());
  // ...until a CHKSUM layer is composed in between.
  auto fixed = derive(specs_for("NAK:CHKSUM:RAWCOM"), kP1);
  ASSERT_TRUE(fixed.has_value());
  EXPECT_TRUE(has(*fixed, Property::kFifoMulticast));
}

TEST(Algebra, EmptyNetworkFailsCom) {
  EXPECT_FALSE(derive(specs_for("COM"), 0).has_value());
}

TEST(Algebra, CausalStack) {
  auto result = derive(specs_for("CAUSAL:MBRSHIP:FRAG:NAK:COM"), kP1);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(has(*result, Property::kCausal));
  EXPECT_TRUE(has(*result, Property::kCausalTimestamps));
  EXPECT_FALSE(has(*result, Property::kTotalOrder));
}

TEST(Algebra, SafeDeliveryNeedsStability) {
  EXPECT_FALSE(derive(specs_for("SAFE:MBRSHIP:FRAG:NAK:COM"), kP1).has_value())
      << "SAFE requires P14, which nothing below provides";
  auto with = derive(specs_for("SAFE:STABLE:MBRSHIP:FRAG:NAK:COM"), kP1);
  ASSERT_TRUE(with.has_value());
  EXPECT_TRUE(has(*with, Property::kSafe));
  auto pin = derive(specs_for("SAFE:PINWHEEL:MBRSHIP:FRAG:NAK:COM"), kP1);
  ASSERT_TRUE(pin.has_value()) << "PINWHEEL is an interchangeable P14 source";
}

TEST(Algebra, MergeProvidesP16) {
  auto result = derive(specs_for("MERGE:MBRSHIP:FRAG:NAK:COM"), kP1);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(has(*result, Property::kAutoMerge));
}

TEST(Algebra, AfterLayerTraceIsBottomUp) {
  StackCheck c = check_stack(specs_for("NAK:COM"), kP1);
  ASSERT_TRUE(c.well_formed);
  ASSERT_EQ(c.after_layer.size(), 2u);
  // after COM: P1 + P10 + P11; after NAK: FIFO added, P1 removed.
  EXPECT_TRUE(has(c.after_layer[0], Property::kBestEffort));
  EXPECT_TRUE(has(c.after_layer[1], Property::kFifoMulticast));
  EXPECT_FALSE(has(c.after_layer[1], Property::kBestEffort));
}

// ---------------------------------------------------------------------------
// Minimal stack search ("Horus actually builds a single protocol for the
// particular application on the fly")
// ---------------------------------------------------------------------------

TEST(MinimalStack, FindsFifoStack) {
  auto lib = layers::all_layer_specs();
  auto res = find_minimal_stack(lib, kP1,
                                make_set({Property::kFifoMulticast}));
  ASSERT_TRUE(res.found);
  // Cheapest FIFO multicast: NAK over COM; the bottom is a COM variant
  // and the result is well-formed.
  ASSERT_GE(res.stack.size(), 2u);
  EXPECT_TRUE(res.stack.back() == "COM" || res.stack.back() == "RAWCOM");
  std::vector<LayerSpec> chosen;
  for (const auto& n : res.stack) chosen.push_back(layer_spec(n));
  auto derived = derive(chosen, kP1);
  ASSERT_TRUE(derived.has_value());
  EXPECT_TRUE(has(*derived, Property::kFifoMulticast));
}

TEST(MinimalStack, FindsTotalOrderStack) {
  auto lib = layers::all_layer_specs();
  auto res = find_minimal_stack(lib, kP1, make_set({Property::kTotalOrder}));
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.stack.front(), "TOTAL");
  // It must have picked a membership layer to satisfy TOTAL's P9/P15.
  bool has_mbrship = false;
  for (const auto& n : res.stack) has_mbrship |= (n == "MBRSHIP");
  EXPECT_TRUE(has_mbrship);
}

TEST(MinimalStack, CostDrivesChoice) {
  // Two providers of P14 exist (STABLE, PINWHEEL); search must pick the
  // cheaper path and still satisfy SAFE's requirements.
  auto lib = layers::all_layer_specs();
  auto res = find_minimal_stack(lib, kP1, make_set({Property::kSafe}));
  ASSERT_TRUE(res.found);
  std::vector<LayerSpec> chosen;
  for (const auto& n : res.stack) chosen.push_back(layer_spec(n));
  auto derived = derive(chosen, kP1);
  ASSERT_TRUE(derived.has_value());
  EXPECT_TRUE(has(*derived, Property::kSafe));
}

TEST(MinimalStack, UnsatisfiableFails) {
  // Nothing provides P2 (prioritized delivery) in the library.
  auto lib = layers::all_layer_specs();
  auto res = find_minimal_stack(lib, kP1, make_set({Property::kPrioritized}));
  EXPECT_FALSE(res.found);
}

TEST(MinimalStack, AlreadySatisfiedIsEmpty) {
  auto lib = layers::all_layer_specs();
  auto res = find_minimal_stack(lib, kP1, kP1);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.stack.empty());
  EXPECT_EQ(res.cost, 0);
}

TEST(MinimalStack, EveryRegisteredLayerHasConsistentSpec) {
  // Sanity over the whole Table 3: requires/provides/inherits stay within
  // the property universe, and provides does not overlap requires... a
  // layer shouldn't require what it claims to newly provide.
  for (const auto& name : layers::layer_names()) {
    LayerSpec s = layer_spec(name);
    EXPECT_EQ(s.requires_below & ~kAllProperties, 0u) << name;
    EXPECT_EQ(s.provides & ~kAllProperties, 0u) << name;
    EXPECT_EQ(s.inherits & ~kAllProperties, 0u) << name;
    EXPECT_GE(s.cost, 0) << name;
  }
}

}  // namespace
}  // namespace horus::props
