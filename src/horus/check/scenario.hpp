// Scenario specifications for horus-check (docs/check.md).
//
// A Scenario plus a 64-bit seed deterministically derives *every*
// nondeterministic choice of a simulated multi-member run: the workload,
// the crash times and victims, the partition/heal windows, and (via the
// SimNetwork fault policy's split streams) every per-datagram
// drop/duplicate/corrupt/latency draw. Exploring a scenario is therefore
// just iterating seeds, and any failing seed replays bit-identically.
//
// The scenario-level fault choices are reified into an explicit Plan --
// a list of timed FaultEvents -- so that the shrinker can delete events
// one by one while everything else stays fixed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "horus/check/json.hpp"
#include "horus/sim/scheduler.hpp"

namespace horus::check {

/// The oracle catalogue. Each oracle checks one composition guarantee the
/// stack claims (docs/check.md has the catalogue with definitions).
enum class Oracle : std::uint32_t {
  kNoDupNoCreation = 1u << 0,  ///< every delivery unique and actually sent
  kVirtualSynchrony = 1u << 1, ///< same delivery set per shared closed view
  kTotalOrder = 1u << 2,       ///< identical delivery order per view
  kCausal = 1u << 3,           ///< delivery respects happens-before
  kStability = 1u << 4,        ///< stability matrices never overclaim acks
  kViewAgreement = 1u << 5,    ///< live members converge on one final view
  kCrossEpoch = 1u << 6,       ///< live reconfiguration loses/dups/reorders
                               ///< nothing; members agree on the final epoch
  kDelivery = 1u << 7,         ///< on clean runs every cast reaches every
                               ///< live member
};
using OracleSet = std::uint32_t;

/// Empty set means "select automatically from the stack's provided
/// properties" (the runner resolves it once the stack is built).
constexpr OracleSet kAutoOracles = 0;
constexpr OracleSet kAllOracles = (1u << 8) - 1;

[[nodiscard]] std::string oracle_name(Oracle o);
/// Parse "total-order,causal" (or "auto" / "all"); throws
/// std::invalid_argument naming the unknown oracle.
[[nodiscard]] OracleSet parse_oracles(const std::string& csv);
[[nodiscard]] std::string oracles_to_string(OracleSet set);

struct Scenario {
  /// Stack spec, top to bottom. A token with a trailing '!' is replaced by
  /// the real layer with a deliberately-broken chaos shim spliced directly
  /// above it (check/broken.hpp) -- "TOTAL!:MBRSHIP:..." runs a stack whose
  /// total order is subtly wrong, for validating that the oracles catch it.
  std::string stack = "MBRSHIP:FRAG:NAK:COM";
  std::size_t members = 4;

  // Workload: every live member multicasts casts_per_round messages each
  // round, rounds are round_gap apart, then the world settles.
  int rounds = 8;
  int casts_per_round = 1;
  sim::Duration round_gap = 150 * sim::kMillisecond;
  sim::Duration form = 4 * sim::kSecond;    ///< group formation budget
  sim::Duration settle = 8 * sim::kSecond;  ///< quiesce after the workload

  // Fault budget. Rates feed the network's per-datagram split streams;
  // crashes/partitions become explicit Plan events.
  double loss = 0.05;
  double duplicate = 0.02;
  double corrupt = 0.0;
  sim::Duration delay_min = 50;
  sim::Duration delay_max = 400;
  int crashes = 1;     ///< fail-stop crashes (victims never include member 0)
  int partitions = 0;  ///< partition/heal episodes during the workload

  /// Live reconfiguration: when non-empty, the plan gains one kSwitch event
  /// that reconfigures the group to this spec mid-workload (the lowest
  /// live member initiates). switch_at = 0 derives a seed-dependent time
  /// inside the workload window; non-zero pins the offset.
  std::string switch_spec;
  sim::Duration switch_at = 0;

  OracleSet oracles = kAutoOracles;

  /// Clamp impossible budgets (crashes that would leave < 2 live members,
  /// partitions with < 2 members) instead of failing mid-run.
  void sanitize();

  [[nodiscard]] Json to_json() const;
  static Scenario from_json(const Json& j);
};

/// One scenario-level fault, scheduled relative to workload start (the
/// simulated time of the first round, after group formation).
struct FaultEvent {
  enum class Kind : std::uint8_t { kCrash, kPartition, kHeal, kSwitch };
  Kind kind = Kind::kCrash;
  sim::Duration at = 0;            ///< offset from workload start
  std::size_t member = 0;          ///< kCrash: victim index
  std::vector<std::size_t> cell;   ///< kPartition: members of cell A
                                   ///< (everyone else forms cell B)
  std::string spec;                ///< kSwitch: the stack to switch to

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] Json to_json() const;
  static FaultEvent from_json(const Json& j);
};

using Plan = std::vector<FaultEvent>;

/// Derive the scenario-level fault schedule from (scenario, seed). Uses
/// split streams (util/rng.hpp), so the plan never depends on how many
/// per-datagram draws the network makes and vice versa.
[[nodiscard]] Plan derive_plan(const Scenario& scn, std::uint64_t seed);

[[nodiscard]] Json plan_to_json(const Plan& plan);
[[nodiscard]] Plan plan_from_json(const Json& j);

}  // namespace horus::check
