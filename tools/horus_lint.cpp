// horus-lint: check Horus stack spec strings against the Section 6
// property algebra and report ill-formedness, redundancy and masked
// guarantees with fix suggestions.
//
// Usage:
//   horus-lint [options] SPEC...          lint each spec argument
//   horus-lint [options] -                lint one spec per stdin line
//   horus-lint [options] --diff OLD NEW   check a live-switch transition
//
// Options:
//   --network=P1,P3,...   property set of the transport (default: P1)
//   --require=P1,P4,...   app-required set for --diff (default: what the
//                         old stack provides -- the endpoint's default)
//   --werror              treat warnings as errors
//   --quiet               print only failing specs
//   --json                emit one JSON array of lint reports (see
//                         LintReport::to_json) instead of prose; CI feeds
//                         this to scripts/lint_annotations.py to produce
//                         GitHub ::error annotations
//   --list-layers         print the registered layers (with their
//                         up_emits contract flag) and exit
//
// --diff prints the provided-property delta between the two stacks and the
// reconfiguration-legality verdict Endpoint::reconfigure would apply: the
// transition is legal iff the new stack is well-formed and still provides
// every required property.
//
// Exit status: 0 when every spec lints clean (and any --diff transition is
// legal), 1 when any spec has errors (or, with --werror, warnings) or the
// transition is illegal, 2 on usage errors.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "horus/analysis/lint.hpp"
#include "horus/core/events.hpp"
#include "horus/layers/registry.hpp"
#include "horus/properties/algebra.hpp"
#include "horus/properties/property.hpp"

namespace {

int usage() {
  std::cerr << "usage: horus-lint [--network=P1,P2,...] [--require=P1,...] "
               "[--werror] [--quiet] [--json] [--list-layers] SPEC... | - | "
               "--diff OLD_SPEC NEW_SPEC\n";
  return 2;
}

/// Collect the Table 3 rows of a spec's layers (top to bottom); throws
/// std::invalid_argument on unknown layer names.
std::vector<horus::props::LayerSpec> spec_rows(const std::string& spec) {
  std::vector<horus::props::LayerSpec> rows;
  for (const std::string& name : horus::layers::split_spec(spec)) {
    rows.push_back(horus::layers::layer_spec(name));
  }
  return rows;
}

/// Print the provided-property delta and legality verdict for a live
/// switch OLD_SPEC -> NEW_SPEC. Returns the process exit code.
int diff_specs(const std::string& old_spec, const std::string& new_spec,
               horus::props::PropertySet network,
               horus::props::PropertySet required, bool have_required) {
  namespace props = horus::props;
  std::vector<props::LayerSpec> old_rows;
  std::vector<props::LayerSpec> new_rows;
  try {
    old_rows = spec_rows(old_spec);
    new_rows = spec_rows(new_spec);
  } catch (const std::invalid_argument& e) {
    std::cout << "error: " << e.what() << "\n";
    return 1;
  }
  if (!have_required) {
    // Mirror Endpoint::set_required's default: the application is assumed
    // to rely on everything the stack it joined with provided.
    required = props::check_stack(old_rows, network).result;
  }
  props::TransitionCheck tc =
      props::check_transition(old_rows, new_rows, network, required);
  std::cout << "old:      " << old_spec << " provides "
            << props::to_string(tc.old_provided) << "\n";
  std::cout << "new:      " << new_spec << " provides "
            << props::to_string(tc.new_provided) << "\n";
  std::cout << "required: " << props::to_string(required) << "\n";
  if (tc.gained != 0) {
    std::cout << "gained:   " << props::to_string(tc.gained) << "\n";
  }
  if (tc.lost != 0) {
    std::cout << "lost:     " << props::to_string(tc.lost) << "\n";
  }
  if (tc.gained == 0 && tc.lost == 0) {
    std::cout << "delta:    none\n";
  }
  if (tc.legal) {
    std::cout << "transition: LEGAL\n";
    return 0;
  }
  std::cout << "transition: ILLEGAL (" << tc.error << ")\n";
  return 1;
}

/// One line per registered layer with its HCPI contract flag.
void list_layers() {
  for (const std::string& n : horus::layers::layer_names()) {
    horus::LayerInfo li = horus::layers::layer_info(n);
    std::cout << n << " up_emits=";
    if (li.up_emits == horus::LayerInfo::kEmitsUndeclared) {
      std::cout << "undeclared";
    } else if (li.up_emits == 0) {
      std::cout << "none";
    } else {
      bool first = true;
      for (horus::UpType t : horus::all_upcalls()) {
        if ((li.up_emits & horus::up_mask(t)) == 0) continue;
        if (!first) std::cout << ',';
        std::cout << horus::to_string(t);
        first = false;
      }
    }
    std::cout << '\n';
  }
}

/// Parse "P1,P3" into a property set; returns false on a bad token.
bool parse_network(const std::string& arg, horus::props::PropertySet& out) {
  out = 0;
  std::stringstream ss(arg);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.size() < 2 || (tok[0] != 'P' && tok[0] != 'p')) return false;
    int n = 0;
    try {
      n = std::stoi(tok.substr(1));
    } catch (...) {
      return false;
    }
    if (n < 1 || n > horus::props::kPropertyCount) return false;
    out |= horus::props::PropertySet{1} << (n - 1);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  horus::props::PropertySet network =
      horus::props::make_set({horus::props::Property::kBestEffort});
  horus::props::PropertySet required = 0;
  bool have_required = false;
  bool werror = false;
  bool quiet = false;
  bool json = false;
  bool from_stdin = false;
  bool diff = false;
  std::vector<std::string> specs;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--network=", 0) == 0) {
      if (!parse_network(arg.substr(10), network)) return usage();
    } else if (arg.rfind("--require=", 0) == 0) {
      if (!parse_network(arg.substr(10), required)) return usage();
      have_required = true;
    } else if (arg == "--diff") {
      diff = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--list-layers") {
      list_layers();
      return 0;
    } else if (arg == "-") {
      from_stdin = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      specs.push_back(arg);
    }
  }
  if (from_stdin) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty() && line[0] != '#') specs.push_back(line);
    }
  }
  if (diff) {
    if (specs.size() != 2 || from_stdin) return usage();
    return diff_specs(specs[0], specs[1], network, required, have_required);
  }
  if (specs.empty()) return usage();

  bool failed = false;
  bool first = true;
  if (json) std::cout << "[";
  for (const std::string& spec : specs) {
    horus::analysis::LintReport rep = horus::analysis::lint_spec(spec, network);
    bool bad = !rep.ok() || (werror && rep.warnings() > 0);
    failed = failed || bad;
    if (json) {
      // JSON output is a complete machine-readable record: every report is
      // emitted, --quiet notwithstanding, so the consumer sees clean specs.
      if (!first) std::cout << ",";
      std::cout << "\n" << rep.to_json();
      first = false;
    } else if (!quiet || bad) {
      std::cout << rep.to_string();
    }
  }
  if (json) std::cout << "\n]\n";
  return failed ? 1 : 0;
}
