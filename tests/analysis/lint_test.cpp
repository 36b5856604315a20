// horus-lint engine: every class of ill-formed stack is detected with the
// offending layer named, fix suggestions point at real insertions, and the
// warning rules (redundant layer, dead guarantee) fire on stacks built to
// trip them.
#include <gtest/gtest.h>

#include <stdexcept>

#include "horus/analysis/lint.hpp"
#include "horus/api/system.hpp"
#include "horus/layers/registry.hpp"

namespace horus::analysis {
namespace {

using props::Property;

const LintDiagnostic* find_rule(const LintReport& rep, const std::string& rule) {
  for (const LintDiagnostic& d : rep.diagnostics) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

// -- table-driven: each class of ill-formed stack ----------------------------

struct BadSpecCase {
  const char* spec;
  const char* rule;        // expected diagnostic rule id
  const char* layer;       // expected offending layer name ("" = whole stack)
  std::size_t index;       // expected top-to-bottom position
};

class IllFormedSpecs : public ::testing::TestWithParam<BadSpecCase> {};

TEST_P(IllFormedSpecs, NamesTheOffendingLayer) {
  const BadSpecCase& c = GetParam();
  LintReport rep = lint_spec(c.spec);
  EXPECT_FALSE(rep.ok()) << rep.to_string();
  const LintDiagnostic* d = find_rule(rep, c.rule);
  ASSERT_NE(d, nullptr) << "expected rule " << c.rule << " in:\n"
                        << rep.to_string();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->layer, c.layer) << rep.to_string();
  EXPECT_EQ(d->index, c.index) << rep.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Lint, IllFormedSpecs,
    ::testing::Values(
        // Missing requirement: FRAG needs FIFO (P3,P4) under it.
        BadSpecCase{"FRAG:COM", "missing-requirement", "FRAG", 0},
        BadSpecCase{"TOTAL:FRAG:COM", "missing-requirement", "FRAG", 1},
        // Missing requirement at the top: TOTAL over plain reliable FIFO.
        BadSpecCase{"TOTAL:NAK:COM", "missing-requirement", "TOTAL", 0},
        // Unknown layer name (with did-you-mean, asserted below).
        BadSpecCase{"TOTALL:COM", "unknown-layer", "TOTALL", 0},
        // Transport misplacement, both directions.
        BadSpecCase{"COM:NAK", "transport-placement", "COM", 0},
        BadSpecCase{"NAK:COM:COM", "transport-placement", "COM", 1},
        // PACK placement: below an ordering layer a train of casts would
        // ride one ordering stamp; without FRAG below, a full train plus
        // lower headers can exceed the MTU.
        BadSpecCase{"TOTAL:PACK:MBRSHIP:FRAG:NAK:COM", "pack-below-ordering",
                    "PACK", 1},
        BadSpecCase{"PACK:NAK:COM", "pack-needs-frag", "PACK", 0},
        // Syntactic problems.
        BadSpecCase{"TOTAL::COM", "empty-name", "", 1},
        BadSpecCase{"", "empty-spec", "",
                    LintDiagnostic::kWholeStack}));

// -- diagnostics carry actionable fix suggestions ----------------------------

TEST(Lint, MissingRequirementSuggestsInsertion) {
  LintReport rep = lint_spec("TOTAL:NAK:COM");
  const LintDiagnostic* d = find_rule(rep, "missing-requirement");
  ASSERT_NE(d, nullptr);
  // TOTAL needs virtual synchrony: the minimal-stack search must propose
  // inserting a membership layer below it.
  EXPECT_NE(d->suggestion.find("insert"), std::string::npos) << d->suggestion;
  EXPECT_NE(d->suggestion.find("below TOTAL"), std::string::npos)
      << d->suggestion;
}

TEST(Lint, UnknownLayerSuggestsClosestName) {
  LintReport rep = lint_spec("TOTALL:COM");
  const LintDiagnostic* d = find_rule(rep, "unknown-layer");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->suggestion, "did you mean TOTAL?");
}

TEST(Lint, StructuredOffenderInStackCheck) {
  // The algebra itself reports the offender index and missing set, so
  // tooling does not parse error strings.
  auto rows = std::vector<props::LayerSpec>{
      layers::layer_spec("TOTAL"), layers::layer_spec("NAK"),
      layers::layer_spec("COM")};
  props::StackCheck chk =
      props::check_stack(rows, props::make_set({Property::kBestEffort}));
  ASSERT_FALSE(chk.well_formed);
  ASSERT_TRUE(chk.offender.has_value());
  EXPECT_EQ(*chk.offender, 0u);  // TOTAL, in top-to-bottom indexing
  EXPECT_EQ(chk.missing,
            props::make_set({Property::kVirtualSemiSync,
                             Property::kVirtualSync,
                             Property::kConsistentViews}));
}

// -- well-formed stacks lint clean -------------------------------------------

TEST(Lint, CanonicalPaperStackIsClean) {
  LintReport rep = lint_spec("TOTAL:MBRSHIP:FRAG:NAK:COM");
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.diagnostics.size(), 0u) << rep.to_string();
}

TEST(Lint, PackAtTopOfOrderedStackIsClean) {
  LintReport rep = lint_spec("PACK:TOTAL:MBRSHIP:FRAG:NAK:COM");
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.diagnostics.size(), 0u) << rep.to_string();
}

TEST(Lint, PackPlacementSuggestionsAreActionable) {
  LintReport ordered = lint_spec("TOTAL:PACK:MBRSHIP:FRAG:NAK:COM");
  const LintDiagnostic* below = find_rule(ordered, "pack-below-ordering");
  ASSERT_NE(below, nullptr);
  EXPECT_NE(below->suggestion.find("move PACK above TOTAL"),
            std::string::npos)
      << below->suggestion;
  LintReport bare = lint_spec("PACK:NAK:COM");
  const LintDiagnostic* frag = find_rule(bare, "pack-needs-frag");
  ASSERT_NE(frag, nullptr);
  EXPECT_NE(frag->suggestion.find("FRAG"), std::string::npos)
      << frag->suggestion;
}

TEST(Lint, EveryRegisteredLayerNameResolves) {
  for (const std::string& name : layers::layer_names()) {
    EXPECT_NO_THROW((void)layers::layer_info(name)) << name;
  }
}

// -- warning rules ------------------------------------------------------------

TEST(Lint, FlagsDeliberatelyRedundantLayer) {
  // COM already provides P10 (it appends a CRC trailer); a CHKSUM above it
  // re-provides a guarantee the stack below already has.
  LintReport rep = lint_spec("CHKSUM:COM");
  EXPECT_TRUE(rep.ok()) << rep.to_string();  // a warning, not an error
  const LintDiagnostic* d = find_rule(rep, "redundant-layer");
  ASSERT_NE(d, nullptr) << rep.to_string();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->layer, "CHKSUM");
  // ... while the same CHKSUM over the trailer-less RAWCOM is load-bearing.
  EXPECT_EQ(find_rule(lint_spec("CHKSUM:RAWCOM"), "redundant-layer"), nullptr);
}

TEST(Lint, FlagsDeadGuaranteeMaskedByLayerAbove) {
  // Synthetic rows: PROV provides P2, but MASK above it neither inherits
  // nor re-provides P2 -- PROV's guarantee is dead weight.
  props::PropertySet p1 = props::make_set({Property::kBestEffort});
  LintLayer xport{"XPORT",
                  {"XPORT", /*requires*/ p1,
                   /*inherits*/ props::kAllProperties, /*provides*/ 0, 1},
                  /*is_transport=*/true};
  LintLayer prov{"PROV",
                 {"PROV", 0, props::kAllProperties,
                  props::make_set({Property::kPrioritized}), 1},
                 false};
  LintLayer mask{"MASK",
                 {"MASK", 0,
                  props::kAllProperties &
                      ~props::make_set({Property::kPrioritized}),
                  0, 1},
                 false};

  LintReport rep = lint_stack({mask, prov, xport}, {}, p1);
  const LintDiagnostic* d = find_rule(rep, "dead-guarantee");
  ASSERT_NE(d, nullptr) << rep.to_string();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->layer, "MASK");  // the masking layer is the offender
  EXPECT_NE(d->message.find("PROV"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("{P2}"), std::string::npos) << d->message;

  // Masking a NETWORK-provided property is environment, not a stack
  // smell: MASK directly over the transport must not warn.
  LintReport quiet = lint_stack({mask, xport}, {}, p1);
  EXPECT_EQ(find_rule(quiet, "dead-guarantee"), nullptr) << quiet.to_string();
}

// -- live-switch transition check (horus-lint --diff) -------------------------

std::vector<props::LayerSpec> rows(const std::string& spec) {
  std::vector<props::LayerSpec> out;
  for (const std::string& name : layers::split_spec(spec)) {
    out.push_back(layers::layer_spec(name));
  }
  return out;
}

const props::PropertySet kNet = props::make_set({Property::kBestEffort});

TEST(Lint, TransitionLegalWhenRequiredPreserved) {
  // The acceptance switch NAK -> MCAST:NNAK: every property the old stack
  // provided survives, and the MCAST transport adds best-effort multicast.
  auto old_rows = rows("TOTAL:MBRSHIP:FRAG:NAK:COM");
  auto new_rows = rows("TOTAL:MBRSHIP:FRAG:MCAST:NNAK:COM");
  props::PropertySet required = props::check_stack(old_rows, kNet).result;
  props::TransitionCheck tc =
      props::check_transition(old_rows, new_rows, kNet, required);
  EXPECT_TRUE(tc.legal) << tc.error;
  EXPECT_EQ(tc.missing, 0u);
  EXPECT_EQ(tc.lost, 0u);
  EXPECT_EQ(tc.gained, props::make_set({Property::kBestEffort}));
}

TEST(Lint, TransitionMayDropUnrequiredProperties) {
  // Dropping TOTAL loses P6, but an application that never asked for total
  // order is allowed to shed it live.
  auto old_rows = rows("TOTAL:MBRSHIP:FRAG:NAK:COM");
  auto new_rows = rows("MBRSHIP:FRAG:NAK:COM");
  props::PropertySet required =
      props::make_set({Property::kFifoMulticast, Property::kVirtualSync});
  props::TransitionCheck tc =
      props::check_transition(old_rows, new_rows, kNet, required);
  EXPECT_TRUE(tc.legal) << tc.error;
  EXPECT_EQ(tc.lost, props::make_set({Property::kTotalOrder}));
  EXPECT_EQ(tc.missing, 0u);
}

TEST(Lint, TransitionDroppingRequiredPropertyIsIllegal) {
  auto old_rows = rows("TOTAL:MBRSHIP:FRAG:NAK:COM");
  auto new_rows = rows("MBRSHIP:FRAG:NAK:COM");
  // Endpoint::set_required's default: require everything the joined stack
  // provided, which includes P6.
  props::PropertySet required = props::check_stack(old_rows, kNet).result;
  props::TransitionCheck tc =
      props::check_transition(old_rows, new_rows, kNet, required);
  EXPECT_FALSE(tc.legal);
  EXPECT_EQ(tc.missing, props::make_set({Property::kTotalOrder}));
  // The diagnosis names the dropped set so the operator sees the delta.
  EXPECT_NE(tc.error.find("drops required"), std::string::npos) << tc.error;
  EXPECT_NE(tc.error.find("{P6}"), std::string::npos) << tc.error;
}

TEST(Lint, TransitionToIllFormedStackIsIllegal) {
  auto old_rows = rows("TOTAL:MBRSHIP:FRAG:NAK:COM");
  auto new_rows = rows("TOTAL:FRAG:COM");  // FRAG lacks FIFO below it
  props::TransitionCheck tc = props::check_transition(
      old_rows, new_rows, kNet, /*required=*/0);
  EXPECT_FALSE(tc.legal);
  EXPECT_EQ(tc.new_provided, 0u);
  EXPECT_NE(tc.error.find("ill-formed"), std::string::npos) << tc.error;
}

TEST(Lint, TransitionFromIllFormedOldStackReportsFullGain) {
  // An ill-formed old stack provides nothing; switching to a well-formed
  // stack is legal (if the requirement is met) and the whole new set is
  // reported as gained.
  auto old_rows = rows("TOTAL:FRAG:COM");
  auto new_rows = rows("TOTAL:MBRSHIP:FRAG:NAK:COM");
  props::TransitionCheck tc = props::check_transition(
      old_rows, new_rows, kNet, props::make_set({Property::kTotalOrder}));
  EXPECT_TRUE(tc.legal) << tc.error;
  EXPECT_EQ(tc.old_provided, 0u);
  EXPECT_EQ(tc.gained, tc.new_provided);
}

// -- runtime wiring: endpoint creation lints ---------------------------------

TEST(Lint, EndpointCreationRejectsIllFormedSpecNamingOffender) {
  HorusSystem sys;
  try {
    sys.create_endpoint("TOTAL:FRAG:COM");
    FAIL() << "ill-formed spec must be rejected at endpoint creation";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("FRAG"), std::string::npos) << msg;
    EXPECT_NE(msg.find("missing-requirement"), std::string::npos) << msg;
  }
}

TEST(Lint, EndpointCreationAcceptsWarningOnlySpecs) {
  HorusSystem sys;
  EXPECT_NO_THROW(sys.create_endpoint("CHKSUM:COM"));
}

TEST(Lint, MakeStackNamesPositionAndSuggestsFix) {
  try {
    (void)layers::make_stack("TOTAL:MBRSHIPP:COM");
    FAIL() << "unknown layer must be rejected";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("MBRSHIPP"), std::string::npos) << msg;
    EXPECT_NE(msg.find("position 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("TOTAL:MBRSHIPP:COM"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean MBRSHIP?"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace horus::analysis
