#include "horus/layers/stable.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "STABLE";
  li.fields = {{"kind", 1}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kFifoUnicast, Property::kFifoMulticast,
       Property::kVirtualSemiSync, Property::kVirtualSync,
       Property::kGarblingDetect, Property::kSourceAddress,
       Property::kLargeMessages, Property::kConsistentViews});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kStabilityInfo});
  li.spec.cost = 2;
  li.up_emits = make_up_emits({UpType::kStable});
  return li;
}

}  // namespace

Stable::Stable() : info_(make_info()) {}

std::unique_ptr<LayerState> Stable::make_state(Group& g) {
  auto st = std::make_unique<State>();
  State* raw = st.get();
  raw->gossip_timer = stack().schedule(
      g.gid(), stack().config().stability_gossip_interval,
      [this, raw](Group& gg) {
        send_gossip(gg, *raw);
        arm(gg, *raw);
      });
  return st;
}

void Stable::arm(Group& g, State& st) {
  st.gossip_timer = stack().schedule(
      g.gid(), stack().config().stability_gossip_interval,
      [this, &st](Group& gg) {
        send_gossip(gg, st);
        arm(gg, st);
      });
}

void Stable::record_ack(State& st, const Address& source, std::uint64_t id) {
  std::uint64_t& prefix = st.own[source];
  if (id <= prefix) return;
  auto& pend = st.pending[source];
  pend.insert(id);
  while (pend.contains(prefix + 1)) {
    pend.erase(prefix + 1);
    ++prefix;
  }
}

void Stable::down(Group& g, DownEvent& ev) {
  switch (ev.type) {
    case DownType::kAck: {
      // The application has processed (msg_source, msg_id); what
      // "processed" means is its business -- the end-to-end point.
      State& st = state<State>(g);
      record_ack(st, ev.msg_source, ev.msg_id);
      st.rows[stack().address()] = st.own;
      return;  // consumed
    }
    case DownType::kCast:
    case DownType::kSend: {
      std::uint64_t fields[] = {kPass};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    default:
      pass_down(g, ev);
      return;
  }
}

void Stable::send_gossip(Group& g, State& st) {
  if (g.view().size() <= 1 || st.own.empty()) return;
  // Gossip travels as subset sends, NOT casts: a cast would consume a
  // member's per-view sequence numbers, punching un-ackable holes into the
  // very streams whose stability we are tracking.
  Writer w;
  encode_seq_map(w, st.own);
  Message m = stack().tx_message(w.span());
  std::uint64_t fields[] = {kGossipKind};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  for (const Address& member : g.view().members()) {
    if (member != stack().address()) out.dests.push_back(member);
  }
  out.msg = std::move(m);
  pass_down(g, out);
}

void Stable::emit_matrix(Group& g, State& st) {
  StabilityMatrix sm;
  sm.view = g.view();
  sm.acked.assign(g.view().size(), std::vector<std::uint64_t>(g.view().size(), 0));
  for (std::size_t i = 0; i < g.view().size(); ++i) {
    auto rit = st.rows.find(g.view().member(i));
    if (rit == st.rows.end()) continue;
    for (std::size_t j = 0; j < g.view().size(); ++j) {
      auto sit = rit->second.find(g.view().member(j));
      if (sit != rit->second.end()) sm.acked[i][j] = sit->second;
    }
  }
  ++st.upcalls;
  UpEvent ev;
  ev.type = UpType::kStable;
  ev.stability = std::move(sm);
  pass_up(g, ev);
}

void Stable::up(Group& g, UpEvent& ev) {
  State& st = state<State>(g);
  switch (ev.type) {
    case UpType::kCast:
    case UpType::kSend: {
      PoppedHeader h;
      try {
        h = stack().pop_header(ev.msg, *this);
      } catch (const DecodeError&) {
        return;
      }
      if (h.fields[0] == kGossipKind) {
        try {
          Reader r = ev.msg.reader();
          st.rows[ev.source] = decode_seq_map(r);
        } catch (const DecodeError&) {
          return;
        }
        emit_matrix(g, st);
        return;
      }
      pass_up(g, ev);
      return;
    }
    case UpType::kView:
      st.own.clear();
      st.pending.clear();
      st.rows.clear();
      pass_up(g, ev);
      return;
    default:
      pass_up(g, ev);
      return;
  }
}

void Stable::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "STABLE: rows=" + std::to_string(st.rows.size()) +
         " upcalls=" + std::to_string(st.upcalls) + "\n";
}

}  // namespace horus::layers
