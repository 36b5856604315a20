#include "horus/layers/merge.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "MERGE";
  li.fields = {{"kind", 2}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kFifoUnicast, Property::kFifoMulticast,
       Property::kVirtualSemiSync, Property::kVirtualSync,
       Property::kConsistentViews});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kAutoMerge});
  li.spec.cost = 2;
  return li;
}

}  // namespace

Merge::Merge() : info_(make_info()) {}

std::unique_ptr<LayerState> Merge::make_state(Group& g) {
  auto st = std::make_unique<State>();
  arm(g, *st);
  return st;
}

void Merge::arm(Group& g, State& st) {
  // Probe at the flush-retry cadence: fast enough to heal promptly, slow
  // enough not to flood a stable partition.
  st.probe_timer = stack().schedule(
      g.gid(), stack().config().flush_retry * 2, [this, &st](Group& gg) {
        probe_round(gg, st);
        arm(gg, st);
      });
}

void Merge::send_ctrl(Group& g, std::uint64_t kind, const Address& dst) {
  Writer w;
  g.view().encode(w);
  Message m = stack().tx_message(w.span());
  std::uint64_t fields[] = {kind};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  out.dests = {dst};
  out.msg = std::move(m);
  pass_down(g, out);
}

void Merge::probe_round(Group& g, State& st) {
  // Only the coordinator probes, so a partition emits one probe stream.
  if (g.view().empty() || g.view().rank_of(stack().address()) != 0u) return;
  for (const Address& a : st.known) {
    if (g.view().contains(a)) continue;
    ++st.probes_sent;
    send_ctrl(g, kProbe, a);
  }
}

void Merge::down(Group& g, DownEvent& ev) {
  if (ev.type == DownType::kCast || ev.type == DownType::kSend) {
    std::uint64_t fields[] = {kPass};
    stack().push_header(ev.msg, *this, fields);
    pass_down(g, ev);
    return;
  }
  if (ev.type == DownType::kDestroy) {
    stack().cancel(state<State>(g).probe_timer);
  }
  pass_down(g, ev);
}

void Merge::up(Group& g, UpEvent& ev) {
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
      if (h.fields[0] == kPass) {
        pass_up(g, ev);
        return;
      }
      View theirs;
      try {
        Reader r = ev.msg.reader();
        theirs = View::decode(r);
      } catch (const DecodeError&) {
        return;
      }
      for (const Address& a : theirs.members()) st.known.insert(a);
      if (h.fields[0] == kProbe) {
        // Someone in another partition can reach us: tell them who we are.
        send_ctrl(g, kProbeAck, ev.source);
        return;
      }
      // kProbeAck: if the responder's view is genuinely different from
      // ours, ask MBRSHIP to merge toward their coordinator.
      if (theirs.id() != g.view().id() && !theirs.contains(stack().address())) {
        ++st.merges_initiated;
        DownEvent merge;
        merge.type = DownType::kMerge;
        merge.contact = theirs.oldest();
        pass_down(g, merge);
      }
      return;
    }
    case UpType::kView:
      for (const Address& a : ev.view.members()) st.known.insert(a);
      pass_up(g, ev);
      return;
    default:
      pass_up(g, ev);
      return;
  }
}

void Merge::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "MERGE: known=" + std::to_string(st.known.size()) +
         " probes=" + std::to_string(st.probes_sent) +
         " merges=" + std::to_string(st.merges_initiated) + "\n";
}

}  // namespace horus::layers
