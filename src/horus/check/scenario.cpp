#include "horus/check/scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "horus/util/rng.hpp"

namespace horus::check {

std::string oracle_name(Oracle o) {
  switch (o) {
    case Oracle::kNoDupNoCreation: return "no-dup-no-creation";
    case Oracle::kVirtualSynchrony: return "virtual-synchrony";
    case Oracle::kTotalOrder: return "total-order";
    case Oracle::kCausal: return "causal";
    case Oracle::kStability: return "stability";
    case Oracle::kViewAgreement: return "view-agreement";
    case Oracle::kCrossEpoch: return "cross-epoch";
    case Oracle::kDelivery: return "delivery";
  }
  return "unknown";
}

namespace {

const Oracle kAll[] = {Oracle::kNoDupNoCreation, Oracle::kVirtualSynchrony,
                       Oracle::kTotalOrder,      Oracle::kCausal,
                       Oracle::kStability,       Oracle::kViewAgreement,
                       Oracle::kCrossEpoch,      Oracle::kDelivery};

}  // namespace

OracleSet parse_oracles(const std::string& csv) {
  if (csv.empty() || csv == "auto") return kAutoOracles;
  if (csv == "all") return kAllOracles;
  OracleSet set = 0;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    std::string tok = csv.substr(pos, comma - pos);
    bool found = false;
    for (Oracle o : kAll) {
      if (tok == oracle_name(o)) {
        set |= static_cast<OracleSet>(o);
        found = true;
      }
    }
    if (!found) {
      std::string names;
      for (Oracle o : kAll) {
        if (!names.empty()) names += ", ";
        names += oracle_name(o);
      }
      throw std::invalid_argument("unknown oracle '" + tok + "' (one of: " +
                                  names + ", auto, all)");
    }
    pos = comma + 1;
  }
  return set;
}

std::string oracles_to_string(OracleSet set) {
  if (set == kAutoOracles) return "auto";
  std::string out;
  for (Oracle o : kAll) {
    if (set & static_cast<OracleSet>(o)) {
      if (!out.empty()) out += ',';
      out += oracle_name(o);
    }
  }
  return out;
}

void Scenario::sanitize() {
  if (members < 2) members = 2;
  // Keep at least two live members (one is the never-crashed anchor).
  int max_crashes = static_cast<int>(members) - 2;
  crashes = std::clamp(crashes, 0, std::max(0, max_crashes));
  if (members < 3) partitions = 0;  // a 2-member split never remerges cleanly
  if (rounds < 1) rounds = 1;
  if (casts_per_round < 0) casts_per_round = 0;
  if (delay_max < delay_min) delay_max = delay_min;
}

Json Scenario::to_json() const {
  Json j = Json::object();
  j["stack"] = stack;
  j["members"] = members;
  j["rounds"] = rounds;
  j["casts_per_round"] = casts_per_round;
  j["round_gap_us"] = round_gap;
  j["form_us"] = form;
  j["settle_us"] = settle;
  j["loss"] = loss;
  j["duplicate"] = duplicate;
  j["corrupt"] = corrupt;
  j["delay_min_us"] = delay_min;
  j["delay_max_us"] = delay_max;
  j["crashes"] = crashes;
  j["partitions"] = partitions;
  if (!switch_spec.empty()) {
    j["switch_spec"] = switch_spec;
    j["switch_at_us"] = switch_at;
  }
  j["oracles"] = oracles_to_string(oracles);
  return j;
}

Scenario Scenario::from_json(const Json& j) {
  Scenario s;
  s.stack = j.at("stack").as_string();
  s.members = j.at("members").as_u64();
  s.rounds = static_cast<int>(j.at("rounds").as_u64());
  s.casts_per_round = static_cast<int>(j.at("casts_per_round").as_u64());
  s.round_gap = j.at("round_gap_us").as_u64();
  s.form = j.at("form_us").as_u64();
  s.settle = j.at("settle_us").as_u64();
  s.loss = j.at("loss").as_double();
  s.duplicate = j.at("duplicate").as_double();
  s.corrupt = j.at("corrupt").as_double();
  s.delay_min = j.at("delay_min_us").as_u64();
  s.delay_max = j.at("delay_max_us").as_u64();
  s.crashes = static_cast<int>(j.at("crashes").as_u64());
  s.partitions = static_cast<int>(j.at("partitions").as_u64());
  // Optional (absent in pre-reconfiguration artifacts).
  if (const Json* sw = j.find("switch_spec")) s.switch_spec = sw->as_string();
  if (const Json* at = j.find("switch_at_us")) s.switch_at = at->as_u64();
  s.oracles = parse_oracles(j.at("oracles").as_string());
  return s;
}

std::string FaultEvent::to_string() const {
  std::string out = "@" + std::to_string(at) + "us ";
  switch (kind) {
    case Kind::kCrash:
      out += "crash m" + std::to_string(member);
      break;
    case Kind::kPartition: {
      out += "partition {";
      for (std::size_t i = 0; i < cell.size(); ++i) {
        if (i) out += ',';
        out += "m" + std::to_string(cell[i]);
      }
      out += "} | rest";
      break;
    }
    case Kind::kHeal:
      out += "heal";
      break;
    case Kind::kSwitch:
      out += "switch to " + spec;
      break;
  }
  return out;
}

Json FaultEvent::to_json() const {
  Json j = Json::object();
  switch (kind) {
    case Kind::kCrash:
      j["kind"] = "crash";
      j["member"] = member;
      break;
    case Kind::kPartition: {
      j["kind"] = "partition";
      Json c = Json::array();
      for (std::size_t m : cell) c.push(m);
      j["cell"] = std::move(c);
      break;
    }
    case Kind::kHeal:
      j["kind"] = "heal";
      break;
    case Kind::kSwitch:
      j["kind"] = "switch";
      j["spec"] = spec;
      break;
  }
  j["at_us"] = at;
  return j;
}

FaultEvent FaultEvent::from_json(const Json& j) {
  FaultEvent e;
  const std::string& kind = j.at("kind").as_string();
  e.at = j.at("at_us").as_u64();
  if (kind == "crash") {
    e.kind = Kind::kCrash;
    e.member = j.at("member").as_u64();
  } else if (kind == "partition") {
    e.kind = Kind::kPartition;
    for (const Json& m : j.at("cell").items()) e.cell.push_back(m.as_u64());
  } else if (kind == "heal") {
    e.kind = Kind::kHeal;
  } else if (kind == "switch") {
    e.kind = Kind::kSwitch;
    e.spec = j.at("spec").as_string();
  } else {
    throw std::runtime_error("unknown fault event kind '" + kind + "'");
  }
  return e;
}

Plan derive_plan(const Scenario& scn, std::uint64_t seed) {
  Plan plan;
  const sim::Duration window =
      static_cast<sim::Duration>(scn.rounds) * scn.round_gap;

  // Crashes: distinct victims, never member 0 (the anchor every joiner and
  // merge retry rendezvouses with), at times spread over the middle of the
  // workload.
  Rng crash_rng(stream_seed(seed, fnv1a64("plan-crash")));
  std::vector<std::size_t> victims;
  for (std::size_t m = 1; m < scn.members; ++m) victims.push_back(m);
  for (int c = 0; c < scn.crashes && !victims.empty(); ++c) {
    std::size_t pick = crash_rng.next_below(victims.size());
    FaultEvent e;
    e.kind = FaultEvent::Kind::kCrash;
    e.member = victims[pick];
    victims.erase(victims.begin() + static_cast<std::ptrdiff_t>(pick));
    e.at = window / 5 + crash_rng.next_below(std::max<sim::Duration>(
                            1, (window * 3) / 5));
    plan.push_back(e);
  }

  // Partition episodes: a random bipartition with both cells non-empty,
  // held for 0.5-2.5 simulated seconds, then healed. Episodes are laid out
  // sequentially so they never overlap (overlapping cells would make the
  // heal events ambiguous to shrink).
  Rng part_rng(stream_seed(seed, fnv1a64("plan-partition")));
  sim::Duration cursor = window / 10;
  for (int p = 0; p < scn.partitions; ++p) {
    FaultEvent split;
    split.kind = FaultEvent::Kind::kPartition;
    for (;;) {
      split.cell.clear();
      for (std::size_t m = 0; m < scn.members; ++m) {
        if (part_rng.chance(0.5)) split.cell.push_back(m);
      }
      if (!split.cell.empty() && split.cell.size() < scn.members) break;
    }
    split.at = cursor + part_rng.next_below(std::max<sim::Duration>(
                            1, window / 4));
    FaultEvent heal;
    heal.kind = FaultEvent::Kind::kHeal;
    heal.at = split.at + sim::kSecond / 2 +
              part_rng.next_below(2 * sim::kSecond);
    plan.push_back(split);
    plan.push_back(heal);
    cursor = heal.at;
  }

  // Live switch: one event, at a seed-dependent time inside the middle of
  // the workload unless the scenario pins it. Its own stream, so adding a
  // switch leaves the crash/partition schedules untouched.
  if (!scn.switch_spec.empty()) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kSwitch;
    e.spec = scn.switch_spec;
    if (scn.switch_at != 0) {
      e.at = scn.switch_at;
    } else {
      Rng sw_rng(stream_seed(seed, fnv1a64("plan-switch")));
      e.at = window / 4 +
             sw_rng.next_below(std::max<sim::Duration>(1, window / 2));
    }
    plan.push_back(e);
  }

  std::stable_sort(plan.begin(), plan.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

Json plan_to_json(const Plan& plan) {
  Json j = Json::array();
  for (const FaultEvent& e : plan) j.push(e.to_json());
  return j;
}

Plan plan_from_json(const Json& j) {
  Plan plan;
  for (const Json& e : j.items()) plan.push_back(FaultEvent::from_json(e));
  return plan;
}

}  // namespace horus::check
