#include "horus/layers/registry.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <stdexcept>

#include "horus/layers/com.hpp"
#include "horus/layers/causal.hpp"
#include "horus/layers/frag.hpp"
#include "horus/layers/mbrship.hpp"
#include "horus/layers/mcast.hpp"
#include "horus/layers/merge.hpp"
#include "horus/layers/nak.hpp"
#include "horus/layers/nfrag.hpp"
#include "horus/layers/nnak.hpp"
#include "horus/layers/pack.hpp"
#include "horus/layers/pinwheel.hpp"
#include "horus/layers/safe.hpp"
#include "horus/layers/stable.hpp"
#include "horus/layers/total.hpp"
#include "horus/layers/transform.hpp"
#include "horus/layers/bms.hpp"
#include "horus/layers/vss.hpp"
#include "horus/layers/observe.hpp"

namespace horus::layers {
namespace {

using Factory = std::function<std::unique_ptr<Layer>()>;

const std::vector<std::pair<std::string, Factory>>& registry() {
  static const std::vector<std::pair<std::string, Factory>> reg = {
      {"COM", [] { return std::make_unique<Com>(true); }},
      {"RAWCOM", [] { return std::make_unique<Com>(false); }},
      {"NAK", [] { return std::make_unique<Nak>(); }},
      {"NNAK", [] { return std::make_unique<Nnak>(); }},
      {"MCAST", [] { return std::make_unique<Mcast>(); }},
      {"FRAG", [] { return std::make_unique<Frag>(); }},
      {"PACK", [] { return std::make_unique<Pack>(); }},
      {"NFRAG", [] { return std::make_unique<Nfrag>(); }},
      {"MBRSHIP", [] { return std::make_unique<Mbrship>(); }},
      {"BMS", [] { return std::make_unique<Bms>(); }},
      {"VSS", [] { return std::make_unique<Vss>(); }},
      {"TOTAL", [] { return std::make_unique<Total>(); }},
      {"CAUSAL", [] { return std::make_unique<Causal>(); }},
      {"STABLE", [] { return std::make_unique<Stable>(); }},
      {"PINWHEEL", [] { return std::make_unique<Pinwheel>(); }},
      {"SAFE", [] { return std::make_unique<Safe>(); }},
      {"MERGE", [] { return std::make_unique<Merge>(); }},
      {"CHKSUM", [] { return std::make_unique<Chksum>(); }},
      {"SIGN", [] { return std::make_unique<Sign>(); }},
      {"ENCRYPT", [] { return std::make_unique<Encrypt>(); }},
      {"COMPRESS", [] { return std::make_unique<Compress>(); }},
      {"LOG", [] { return std::make_unique<LogLayer>(); }},
      {"TRACE", [] { return std::make_unique<Trace>(); }},
      {"ACCOUNT", [] { return std::make_unique<Account>(); }},
  };
  return reg;
}

}  // namespace

std::unique_ptr<Layer> make_layer(const std::string& name) {
  for (const auto& [n, f] : registry()) {
    if (n == name) return f();
  }
  throw std::invalid_argument("unknown protocol layer: " + name);
}

std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(spec.substr(start));
      break;
    }
    parts.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
  return parts;
}

std::vector<std::unique_ptr<Layer>> make_stack(const std::string& spec) {
  std::vector<std::unique_ptr<Layer>> out;
  std::size_t pos = 0;
  for (const std::string& name : split_spec(spec)) {
    ++pos;
    if (name.empty()) throw std::invalid_argument("empty layer name in: " + spec);
    try {
      out.push_back(make_layer(name));
    } catch (const std::invalid_argument&) {
      std::string msg = "unknown protocol layer \"" + name + "\" at position " +
                        std::to_string(pos) + " of spec \"" + spec + "\"";
      std::string near = closest_layer_name(name);
      if (!near.empty()) msg += " (did you mean " + near + "?)";
      throw std::invalid_argument(msg);
    }
  }
  return out;
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& [n, f] : registry()) v.push_back(n);
    return v;
  }();
  return names;
}

props::LayerSpec layer_spec(const std::string& name) {
  return make_layer(name)->info().spec;
}

LayerInfo layer_info(const std::string& name) {
  return make_layer(name)->info();
}

std::string closest_layer_name(const std::string& name) {
  // Classic Levenshtein over the (small) registry; case-insensitive so a
  // lowercase spec still gets a useful suggestion.
  auto upper = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
  };
  const std::string target = upper(name);
  auto distance = [](const std::string& a, const std::string& b) {
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      std::size_t diag = row[0];
      row[0] = i;
      for (std::size_t j = 1; j <= b.size(); ++j) {
        std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
        diag = row[j];
        row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
      }
    }
    return row[b.size()];
  };

  std::string best;
  std::size_t best_d = std::max<std::size_t>(2, target.size() / 2) + 1;
  for (const auto& [n, f] : registry()) {
    std::size_t d = distance(target, n);
    if (d < best_d) {
      best_d = d;
      best = n;
    }
  }
  return best;
}

std::vector<props::LayerSpec> all_layer_specs() {
  std::vector<props::LayerSpec> out;
  for (const auto& [n, f] : registry()) {
    props::LayerSpec s = f()->info().spec;
    // Disambiguate variants whose Table 3 name differs from the registry
    // name (ORDER(causal), ORDER(safe)): keep the registry name searchable.
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace horus::layers
