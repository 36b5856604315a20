// horus-lint: static verification of stack spec strings against the
// Section 6 property algebra, before any endpoint is created.
//
// Beyond the runtime's own well-formedness check (which rejects a bad
// stack with one error string), the linter explains: which layer is the
// offender, what it is missing, what to insert to fix it (via the
// minimal-stack search), which layers are redundant, and which provided
// guarantees are dead because a layer above masks them. It also catches
// typos with a did-you-mean suggestion.
//
// The same engine runs in three places: the `horus-lint` CLI (tools/),
// the CI spec sweep (scripts/lint_specs.sh), and endpoint creation
// (HorusSystem and net::NodeRuntime, unless a stack_factory supplies the
// layers).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "horus/properties/algebra.hpp"

namespace horus::analysis {

enum class Severity { kError, kWarning };

/// One finding. `index` is the position of the offending layer in the
/// top-to-bottom spec (kWholeStack when the finding is not tied to one
/// layer).
struct LintDiagnostic {
  static constexpr std::size_t kWholeStack = static_cast<std::size_t>(-1);

  Severity severity = Severity::kError;
  std::string rule;        ///< stable id: "unknown-layer", "missing-requirement", ...
  std::size_t index = kWholeStack;
  std::string layer;       ///< offending layer name ("" when whole-stack)
  std::string message;     ///< what is wrong
  std::string suggestion;  ///< how to fix it ("" when no fix is known)
};

struct LintReport {
  std::string spec;
  std::vector<LintDiagnostic> diagnostics;

  [[nodiscard]] std::size_t errors() const;
  [[nodiscard]] std::size_t warnings() const;
  /// True when the spec may be instantiated (no errors; warnings allowed).
  [[nodiscard]] bool ok() const { return errors() == 0; }
  /// Multi-line human-readable rendering, one diagnostic per line.
  [[nodiscard]] std::string to_string() const;
  /// Machine-readable rendering for CI tooling
  /// (scripts/lint_annotations.py): one JSON object
  ///   {"spec":...,"ok":...,"errors":N,"warnings":N,"findings":[...]}
  /// where each finding carries the stable rule id, severity, offending
  /// layer name and zero-based position (-1 for whole-stack findings).
  [[nodiscard]] std::string to_json() const;
};

/// A layer row as the linter sees it. Mirrors what the registry knows
/// about each layer; exposed so tests can lint synthetic layer libraries
/// (e.g. rows engineered to trip the dead-guarantee rule) without
/// registering real layers.
struct LintLayer {
  std::string name;
  props::LayerSpec spec;
  bool is_transport = false;
};

/// Lint a resolved stack (top to bottom) against a layer library used for
/// fix suggestions. All names must already be resolved; unknown-name
/// checks happen in the spec-string overload.
LintReport lint_stack(const std::vector<LintLayer>& stack,
                      const std::vector<LintLayer>& library,
                      props::PropertySet network);

/// Lint a colon-separated spec string ("TOTAL:MBRSHIP:FRAG:NAK:COM")
/// against the live layer registry.
LintReport lint_spec(const std::string& spec, props::PropertySet network);

/// As above with the default simulated-network property set (P1).
LintReport lint_spec(const std::string& spec);

}  // namespace horus::analysis
