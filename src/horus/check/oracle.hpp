// Oracles for horus-check: post-hoc checkers over per-member observation
// logs (docs/check.md has the catalogue).
//
// The runner records every application-visible upcall (views, casts,
// stability matrices) per member; oracles then evaluate composition
// guarantees over the completed logs. Checking after the fact keeps the
// run itself unperturbed and lets one execution be judged against any
// subset of oracles.
//
// Workload casts carry a structured Payload with an embedded causal
// context: the sender's per-member count of same-view deliveries at cast
// time. Causal delivery is then a pure dominance check at the receiver --
// no protocol cooperation needed. Causality is scoped per view (the
// vocabulary of extended virtual synchrony): messages are delivered in the
// view they were cast in, so a receiver only checks contexts tagged with
// its current view.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "horus/check/scenario.hpp"
#include "horus/util/bytes.hpp"

namespace horus::check {

/// The payload of every workload cast. (sender, round, index) names the
/// message globally; view_seq + ctx carry the causal context.
struct Payload {
  std::uint64_t sender = 0;  ///< member index of the caster
  std::uint32_t round = 0;
  std::uint32_t index = 0;             ///< cast index within the round
  std::uint64_t view_seq = 0;          ///< sender's view when casting
  std::vector<std::uint64_t> ctx;      ///< sender's same-view deliveries,
                                       ///< counted per member index

  [[nodiscard]] Bytes encode() const;
  /// nullopt if the bytes are not a workload payload (garbled or foreign).
  static std::optional<Payload> decode(ByteSpan b);
};

/// One application-visible upcall, as observed by one member.
struct Obs {
  enum class Kind : std::uint8_t { kView, kCast, kStable };
  Kind kind = Kind::kCast;
  sim::Time at = 0;
  std::uint32_t epoch = 0;  ///< the group's stack epoch at this upcall

  // kView: the installed view.
  std::uint64_t view_seq = 0;
  std::uint64_t view_coord = 0;             ///< coordinator address
  std::vector<std::uint64_t> view_members;  ///< member addresses, rank order

  // kCast: the delivery.
  std::uint64_t source = 0;  ///< sender address
  std::uint64_t msg_id = 0;
  bool decoded = false;      ///< payload parsed as a workload Payload
  Payload payload;

  // kStable: the matrix (rows/cols rank-indexed by stable_view_members).
  std::vector<std::uint64_t> stable_view_members;
  std::vector<std::vector<std::uint64_t>> acked;
};

/// Everything one run produced, as fed to the oracles.
struct RunLog {
  struct Member {
    std::size_t index = 0;
    std::uint64_t address = 0;
    bool crashed = false;
    std::vector<Obs> obs;
  };
  std::vector<Member> members;
  /// Casts actually issued per member: a prefix of the deterministic cast
  /// sequence (round-major), so cast (round, i) was issued iff
  /// round * casts_per_round + i < sent[member].
  std::vector<std::uint64_t> sent;
  int casts_per_round = 1;
  /// True when the plan injected no crashes and no partitions: the
  /// delivery oracle then demands full delivery (loss, duplication and
  /// reordering are recoverable faults; a reliable stack owes every cast
  /// to every member once the run settles).
  bool clean = false;
};

struct Violation {
  Oracle oracle = Oracle::kNoDupNoCreation;
  std::size_t member = 0;  ///< the member at which the violation is visible
  std::string detail;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] Json to_json() const;
};

/// Evaluate the selected oracles over a completed run. Violations are
/// capped per oracle (the first few plus a count) so a badly broken layer
/// cannot produce megabyte artifacts.
[[nodiscard]] std::vector<Violation> evaluate(OracleSet set,
                                              const RunLog& log);

/// Order-sensitive FNV-1a hash of every observation of every member: the
/// run's identity for replay verification. Two runs with equal hashes saw
/// identical application-visible histories.
[[nodiscard]] std::uint64_t log_hash(const RunLog& log);

}  // namespace horus::check
