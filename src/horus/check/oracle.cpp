#include "horus/check/oracle.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "horus/util/rng.hpp"
#include "horus/util/serialize.hpp"

namespace horus::check {

namespace {

constexpr std::uint32_t kPayloadMagic = 0x48435031;  // "HCP1"

/// (member, round, index) packed for set/map keys. Members and rounds in a
/// scenario are small; the packing is only for bookkeeping, never wire.
std::uint64_t pack_id(std::uint64_t member, std::uint32_t round,
                      std::uint32_t index) {
  return (member << 44) | (std::uint64_t{round} << 16) | index;
}

std::string id_str(std::uint64_t packed) {
  return "m" + std::to_string(packed >> 44) + " r" +
         std::to_string((packed >> 16) & 0xfffffff) + "#" +
         std::to_string(packed & 0xffff);
}

}  // namespace

Bytes Payload::encode() const {
  Writer w;
  w.u32(kPayloadMagic);
  w.varint(sender);
  w.varint(round);
  w.varint(index);
  w.varint(view_seq);
  w.varint(ctx.size());
  for (std::uint64_t c : ctx) w.varint(c);
  return w.take();
}

std::optional<Payload> Payload::decode(ByteSpan b) {
  try {
    Reader r(b);
    if (r.u32() != kPayloadMagic) return std::nullopt;
    Payload p;
    p.sender = r.varint();
    p.round = static_cast<std::uint32_t>(r.varint());
    p.index = static_cast<std::uint32_t>(r.varint());
    p.view_seq = r.varint();
    std::uint64_t n = r.varint();
    if (n > 4096) return std::nullopt;
    p.ctx.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) p.ctx.push_back(r.varint());
    if (r.remaining() != 0) return std::nullopt;
    return p;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::string Violation::to_string() const {
  return "[" + oracle_name(oracle) + "] member " + std::to_string(member) +
         ": " + detail;
}

Json Violation::to_json() const {
  Json j = Json::object();
  j["oracle"] = oracle_name(oracle);
  j["member"] = member;
  j["detail"] = detail;
  return j;
}

namespace {

/// Collector that caps the report per oracle: a pathologically broken
/// layer violates on every delivery, and the artifact must stay small.
class Report {
 public:
  static constexpr std::size_t kCapPerOracle = 8;

  void add(Oracle o, std::size_t member, std::string detail) {
    std::size_t& n = counts_[static_cast<OracleSet>(o)];
    ++n;
    if (n <= kCapPerOracle) {
      out_.push_back({o, member, std::move(detail)});
    }
  }

  std::vector<Violation> take() {
    for (const auto& [bit, n] : counts_) {
      if (n > kCapPerOracle) {
        out_.push_back({static_cast<Oracle>(bit), 0,
                        std::to_string(n - kCapPerOracle) +
                            " further violations suppressed"});
      }
    }
    return std::move(out_);
  }

 private:
  std::vector<Violation> out_;
  std::map<OracleSet, std::size_t> counts_;
};

std::string view_key(std::uint64_t seq, std::uint64_t coord,
                     const std::vector<std::uint64_t>& members) {
  std::string k = std::to_string(seq) + "@" + std::to_string(coord) + ":";
  for (std::uint64_t m : members) k += std::to_string(m) + ",";
  return k;
}

/// One member's deliveries, split into view epochs. The final epoch is
/// open (no successor view was installed), so set-equality oracles skip
/// it: the member may simply not have finished receiving.
struct Epoch {
  std::string key;  ///< empty: deliveries before the first view
  bool closed = false;
  std::string next_key;  ///< the view that closed this epoch (if closed)
  std::vector<const Obs*> casts;
};

std::vector<Epoch> epochs_of(const RunLog::Member& m) {
  std::vector<Epoch> out;
  out.push_back({});
  for (const Obs& o : m.obs) {
    if (o.kind == Obs::Kind::kView) {
      std::string key = view_key(o.view_seq, o.view_coord, o.view_members);
      if (!out.back().key.empty() || !out.back().casts.empty()) {
        out.back().closed = true;
        out.back().next_key = key;
        out.push_back({});
      }
      out.back().key = key;
    } else if (o.kind == Obs::Kind::kCast) {
      out.back().casts.push_back(&o);
    }
  }
  return out;
}

/// Address -> member index (addresses are unique per run).
std::unordered_map<std::uint64_t, std::size_t> address_index(
    const RunLog& log) {
  std::unordered_map<std::uint64_t, std::size_t> map;
  for (const auto& m : log.members) map[m.address] = m.index;
  return map;
}

void check_no_dup_no_creation(
    const RunLog& log,
    const std::unordered_map<std::uint64_t, std::size_t>& addr_idx,
    Report& rep) {
  for (const auto& m : log.members) {
    std::set<std::uint64_t> seen;
    for (const Obs& o : m.obs) {
      if (o.kind != Obs::Kind::kCast) continue;
      if (!o.decoded) {
        rep.add(Oracle::kNoDupNoCreation, m.index,
                "delivered an undecodable payload (msg_id " +
                    std::to_string(o.msg_id) + " from address " +
                    std::to_string(o.source) + ")");
        continue;
      }
      auto src = addr_idx.find(o.source);
      if (src == addr_idx.end() || src->second != o.payload.sender) {
        rep.add(Oracle::kNoDupNoCreation, m.index,
                "delivery claims sender m" +
                    std::to_string(o.payload.sender) +
                    " but came from address " + std::to_string(o.source));
        continue;
      }
      std::uint64_t id =
          pack_id(o.payload.sender, o.payload.round, o.payload.index);
      std::uint64_t linear =
          std::uint64_t{o.payload.round} *
              static_cast<std::uint64_t>(log.casts_per_round) +
          o.payload.index;
      if (o.payload.sender >= log.sent.size() ||
          linear >= log.sent[o.payload.sender]) {
        rep.add(Oracle::kNoDupNoCreation, m.index,
                "delivered " + id_str(id) + " which was never cast");
        continue;
      }
      if (!seen.insert(id).second) {
        rep.add(Oracle::kNoDupNoCreation, m.index,
                "delivered " + id_str(id) + " twice");
      }
    }
  }
}

/// The per-epoch delivery set of workload messages (decoded only).
std::vector<std::uint64_t> epoch_ids(const Epoch& e) {
  std::vector<std::uint64_t> ids;
  for (const Obs* o : e.casts) {
    if (o->decoded) {
      ids.push_back(pack_id(o->payload.sender, o->payload.round,
                            o->payload.index));
    }
  }
  return ids;
}

void check_virtual_synchrony(const RunLog& log, Report& rep) {
  // Extended virtual synchrony: members that transition TOGETHER -- same
  // closed view AND same successor view -- must agree on the delivery set.
  // A partitioned minority closes the shared view into a different
  // successor; it owes the majority nothing for that epoch.
  // (view key, successor key) -> (member, sorted delivery set).
  std::map<std::string,
           std::vector<std::pair<std::size_t, std::vector<std::uint64_t>>>>
      closed;
  for (const auto& m : log.members) {
    for (const Epoch& e : epochs_of(m)) {
      if (e.key.empty() || !e.closed) continue;
      std::vector<std::uint64_t> ids = epoch_ids(e);
      std::sort(ids.begin(), ids.end());
      closed[e.key + " -> " + e.next_key].push_back(
          {m.index, std::move(ids)});
    }
  }
  for (const auto& [key, sets] : closed) {
    for (std::size_t i = 1; i < sets.size(); ++i) {
      if (sets[i].second == sets[0].second) continue;
      std::vector<std::uint64_t> diff;
      std::set_symmetric_difference(sets[0].second.begin(),
                                    sets[0].second.end(),
                                    sets[i].second.begin(),
                                    sets[i].second.end(),
                                    std::back_inserter(diff));
      std::string ex = diff.empty() ? "?" : id_str(diff.front());
      rep.add(Oracle::kVirtualSynchrony, sets[i].first,
              "closed view " + key + " with a different delivery set than m" +
                  std::to_string(sets[0].first) + " (" +
                  std::to_string(diff.size()) + " differ, e.g. " + ex + ")");
    }
  }
}

void check_total_order(const RunLog& log, Report& rep) {
  // view key -> (member, delivery sequence in that epoch, open or closed).
  std::map<std::string,
           std::vector<std::pair<std::size_t, std::vector<std::uint64_t>>>>
      seqs;
  for (const auto& m : log.members) {
    for (const Epoch& e : epochs_of(m)) {
      if (e.key.empty()) continue;
      seqs[e.key].push_back({m.index, epoch_ids(e)});
    }
  }
  for (const auto& [key, members] : seqs) {
    for (std::size_t a = 0; a < members.size(); ++a) {
      std::unordered_map<std::uint64_t, std::size_t> pos;
      for (std::size_t i = 0; i < members[a].second.size(); ++i) {
        pos[members[a].second[i]] = i;
      }
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        // Messages delivered by both must appear in the same relative
        // order; a position inversion is a total-order violation even when
        // one member has not (yet) delivered everything.
        std::size_t last_pos = 0;
        std::uint64_t last_id = 0;
        bool have_last = false;
        for (std::uint64_t id : members[b].second) {
          auto it = pos.find(id);
          if (it == pos.end()) continue;
          if (have_last && it->second < last_pos) {
            rep.add(Oracle::kTotalOrder, members[b].first,
                    "delivered " + id_str(last_id) + " before " +
                        id_str(id) + " in view " + key + " but m" +
                        std::to_string(members[a].first) +
                        " delivered them in the opposite order");
            break;
          }
          last_pos = it->second;
          last_id = id;
          have_last = true;
        }
      }
    }
  }
}

void check_causal(const RunLog& log, Report& rep) {
  for (const auto& m : log.members) {
    std::uint64_t cur_seq = 0;
    bool in_view = false;
    std::vector<std::uint64_t> counts(log.members.size(), 0);
    for (const Obs& o : m.obs) {
      if (o.kind == Obs::Kind::kView) {
        cur_seq = o.view_seq;
        in_view = true;
        std::fill(counts.begin(), counts.end(), 0);
        continue;
      }
      if (o.kind != Obs::Kind::kCast || !o.decoded) continue;
      // Causality is scoped per view: only judge deliveries tagged with
      // the receiver's current view (see the header comment).
      if (!in_view || o.payload.view_seq != cur_seq) continue;
      for (std::size_t k = 0;
           k < o.payload.ctx.size() && k < counts.size(); ++k) {
        if (counts[k] < o.payload.ctx[k]) {
          rep.add(Oracle::kCausal, m.index,
                  "delivered " +
                      id_str(pack_id(o.payload.sender, o.payload.round,
                                     o.payload.index)) +
                      " whose context requires " +
                      std::to_string(o.payload.ctx[k]) +
                      " deliveries from m" + std::to_string(k) +
                      " but only " + std::to_string(counts[k]) +
                      " had been delivered");
          break;
        }
      }
      if (o.payload.sender < counts.size()) ++counts[o.payload.sender];
    }
  }
}

void check_stability(
    const RunLog& log,
    const std::unordered_map<std::uint64_t, std::size_t>& addr_idx,
    Report& rep) {
  for (const auto& m : log.members) {
    std::unordered_map<std::uint64_t, std::uint64_t> delivered_from;
    for (const Obs& o : m.obs) {
      if (o.kind == Obs::Kind::kCast) {
        ++delivered_from[o.source];
        continue;
      }
      if (o.kind != Obs::Kind::kStable) continue;
      std::size_t self_rank = o.stable_view_members.size();
      for (std::size_t r = 0; r < o.stable_view_members.size(); ++r) {
        if (o.stable_view_members[r] == m.address) self_rank = r;
      }
      for (std::size_t i = 0; i < o.acked.size(); ++i) {
        for (std::size_t j = 0;
             j < o.acked[i].size() && j < o.stable_view_members.size();
             ++j) {
          std::uint64_t addr_j = o.stable_view_members[j];
          // A member's own row can never exceed the acks it issued, which
          // (the runner acks exactly once per delivery) never exceed its
          // deliveries from that source.
          if (i == self_rank && o.acked[i][j] > delivered_from[addr_j]) {
            rep.add(Oracle::kStability, m.index,
                    "stability matrix claims " +
                        std::to_string(o.acked[i][j]) +
                        " own acks for address " + std::to_string(addr_j) +
                        " but only " +
                        std::to_string(delivered_from[addr_j]) +
                        " casts were delivered");
          }
          // No row may claim more acks for a source than it ever cast.
          auto src = addr_idx.find(addr_j);
          if (src != addr_idx.end() && src->second < log.sent.size() &&
              o.acked[i][j] > log.sent[src->second]) {
            rep.add(Oracle::kStability, m.index,
                    "stability matrix row " + std::to_string(i) +
                        " claims " + std::to_string(o.acked[i][j]) +
                        " acks for m" + std::to_string(src->second) +
                        " which only cast " +
                        std::to_string(log.sent[src->second]));
          }
        }
      }
    }
  }
}

void check_view_agreement(const RunLog& log, Report& rep) {
  std::set<std::uint64_t> live;
  for (const auto& m : log.members) {
    if (!m.crashed) live.insert(m.address);
  }
  const RunLog::Member* first_live = nullptr;
  std::string first_key;
  for (const auto& m : log.members) {
    if (m.crashed) continue;
    const Obs* last_view = nullptr;
    for (const Obs& o : m.obs) {
      if (o.kind == Obs::Kind::kView) last_view = &o;
    }
    if (!last_view) {
      rep.add(Oracle::kViewAgreement, m.index,
              "never installed any view");
      continue;
    }
    std::set<std::uint64_t> vm(last_view->view_members.begin(),
                               last_view->view_members.end());
    if (vm != live) {
      rep.add(Oracle::kViewAgreement, m.index,
              "final view has " + std::to_string(vm.size()) +
                  " members but " + std::to_string(live.size()) +
                  " members are live");
      continue;
    }
    std::string key = view_key(last_view->view_seq, last_view->view_coord,
                               last_view->view_members);
    if (!first_live) {
      first_live = &m;
      first_key = key;
    } else if (key != first_key) {
      rep.add(Oracle::kViewAgreement, m.index,
              "final view " + key + " differs from m" +
                  std::to_string(first_live->index) + "'s " + first_key);
    }
  }
}

void check_cross_epoch(const RunLog& log, Report& rep) {
  // Live reconfiguration must be invisible to the application except for
  // the epoch bump (docs/reconfig.md):
  //  1. a member's stack epoch never goes backwards;
  //  2. per-sender deliveries stay strictly increasing in (round, index) --
  //     nothing is duplicated or reordered across the epoch boundary;
  //  3. live members settle on the same final epoch (the switch completed
  //     everywhere or nowhere).
  // evaluate() adds check_delivery under this oracle's name when the
  // delivery oracle is off: on a clean run nothing may be lost even when
  // the switch raced a cast.
  for (const auto& m : log.members) {
    std::uint32_t last_epoch = 0;
    for (const Obs& o : m.obs) {
      if (o.epoch < last_epoch) {
        rep.add(Oracle::kCrossEpoch, m.index,
                "stack epoch went backwards (" +
                    std::to_string(last_epoch) + " -> " +
                    std::to_string(o.epoch) + ")");
        break;
      }
      last_epoch = o.epoch;
    }
    std::map<std::uint64_t, std::uint64_t> next_linear;  // sender -> floor
    for (const Obs& o : m.obs) {
      if (o.kind != Obs::Kind::kCast || !o.decoded) continue;
      std::uint64_t linear =
          std::uint64_t{o.payload.round} *
              static_cast<std::uint64_t>(log.casts_per_round) +
          o.payload.index;
      std::uint64_t id =
          pack_id(o.payload.sender, o.payload.round, o.payload.index);
      auto it = next_linear.find(o.payload.sender);
      if (it != next_linear.end() && linear < it->second) {
        rep.add(Oracle::kCrossEpoch, m.index,
                "delivered " + id_str(id) +
                    " after a later cast of the same sender (duplicated or "
                    "reordered across the switch)");
        continue;  // keep the floor: report every out-of-order delivery
      }
      next_linear[o.payload.sender] = linear + 1;
    }
  }

  const RunLog::Member* first_live = nullptr;
  std::uint32_t first_final = 0;
  for (const auto& m : log.members) {
    if (m.crashed || m.obs.empty()) continue;
    std::uint32_t final_epoch = 0;
    for (const Obs& o : m.obs) final_epoch = std::max(final_epoch, o.epoch);
    if (!first_live) {
      first_live = &m;
      first_final = final_epoch;
    } else if (final_epoch != first_final) {
      rep.add(Oracle::kCrossEpoch, m.index,
              "final stack epoch " + std::to_string(final_epoch) +
                  " differs from m" + std::to_string(first_live->index) +
                  "'s " + std::to_string(first_final));
    }
  }
}

void check_delivery(const RunLog& log, Report& rep, Oracle as) {
  // On clean runs (no crash/partition in the plan) nothing is lost:
  // loss/duplication/delay are recoverable faults, so every cast must
  // reach every live member. This is the liveness check: a stack that
  // starves a sender's casts violates no ordering rule, but fails here.
  if (!log.clean) return;
  for (const auto& m : log.members) {
    if (m.crashed) continue;
    std::map<std::uint64_t, std::set<std::uint64_t>> got;  // sender -> ids
    for (const Obs& o : m.obs) {
      if (o.kind != Obs::Kind::kCast || !o.decoded) continue;
      got[o.payload.sender].insert(
          pack_id(o.payload.sender, o.payload.round, o.payload.index));
    }
    for (std::size_t s = 0; s < log.sent.size(); ++s) {
      std::uint64_t have = got[s].size();
      if (have < log.sent[s]) {
        rep.add(as, m.index,
                "lost " + std::to_string(log.sent[s] - have) + " of " +
                    std::to_string(log.sent[s]) + " casts from m" +
                    std::to_string(s) + " on a clean run");
      }
    }
  }
}

}  // namespace

std::vector<Violation> evaluate(OracleSet set, const RunLog& log) {
  Report rep;
  auto addr_idx = address_index(log);
  if (set & static_cast<OracleSet>(Oracle::kNoDupNoCreation)) {
    check_no_dup_no_creation(log, addr_idx, rep);
  }
  if (set & static_cast<OracleSet>(Oracle::kVirtualSynchrony)) {
    check_virtual_synchrony(log, rep);
  }
  if (set & static_cast<OracleSet>(Oracle::kTotalOrder)) {
    check_total_order(log, rep);
  }
  if (set & static_cast<OracleSet>(Oracle::kCausal)) {
    check_causal(log, rep);
  }
  if (set & static_cast<OracleSet>(Oracle::kStability)) {
    check_stability(log, addr_idx, rep);
  }
  if (set & static_cast<OracleSet>(Oracle::kViewAgreement)) {
    check_view_agreement(log, rep);
  }
  if (set & static_cast<OracleSet>(Oracle::kCrossEpoch)) {
    check_cross_epoch(log, rep);
  }
  if (set & static_cast<OracleSet>(Oracle::kDelivery)) {
    check_delivery(log, rep, Oracle::kDelivery);
  } else if (set & static_cast<OracleSet>(Oracle::kCrossEpoch)) {
    check_delivery(log, rep, Oracle::kCrossEpoch);
  }
  return rep.take();
}

std::uint64_t log_hash(const RunLog& log) {
  std::uint64_t h = kFnvBasis;
  for (const auto& m : log.members) {
    h = fnv1a64_step(h, m.index);
    h = fnv1a64_step(h, m.address);
    h = fnv1a64_step(h, m.crashed ? 1 : 0);
    for (const Obs& o : m.obs) {
      h = fnv1a64_step(h, static_cast<std::uint64_t>(o.kind));
      h = fnv1a64_step(h, o.at);
      h = fnv1a64_step(h, o.epoch);
      switch (o.kind) {
        case Obs::Kind::kView:
          h = fnv1a64_step(h, o.view_seq);
          h = fnv1a64_step(h, o.view_coord);
          for (std::uint64_t a : o.view_members) h = fnv1a64_step(h, a);
          break;
        case Obs::Kind::kCast:
          h = fnv1a64_step(h, o.source);
          h = fnv1a64_step(h, o.msg_id);
          h = fnv1a64_step(h, o.decoded ? 1 : 0);
          if (o.decoded) {
            h = fnv1a64_step(h, o.payload.sender);
            h = fnv1a64_step(h, o.payload.round);
            h = fnv1a64_step(h, o.payload.index);
            h = fnv1a64_step(h, o.payload.view_seq);
            for (std::uint64_t c : o.payload.ctx) h = fnv1a64_step(h, c);
          }
          break;
        case Obs::Kind::kStable:
          for (std::uint64_t a : o.stable_view_members) {
            h = fnv1a64_step(h, a);
          }
          for (const auto& row : o.acked) {
            for (std::uint64_t v : row) h = fnv1a64_step(h, v);
          }
          break;
      }
    }
  }
  return h;
}

}  // namespace horus::check
