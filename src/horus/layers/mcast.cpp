#include "horus/layers/mcast.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "MCAST";
  li.fields = {{"mcast", 1}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kFifoUnicast, Property::kSourceAddress});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kFifoMulticast});
  // Cost 2: the fan-out sends view-size datagrams per cast where NAK sends
  // one, so minimal-stack search must keep ranking MCAST:NNAK (2+2) above
  // NAK (3).
  li.spec.cost = 2;
  li.up_emits = make_up_emits({UpType::kCast, UpType::kSend});
  return li;
}

}  // namespace

Mcast::Mcast() : info_(make_info()) {}

std::unique_ptr<LayerState> Mcast::make_state(Group&) {
  return std::make_unique<State>();
}

void Mcast::down(Group& g, DownEvent& ev) {
  State& st = state<State>(g);
  switch (ev.type) {
    case DownType::kCast: {
      // One reliable unicast per current view member; each pair stream is
      // FIFO below, so every receiver sees my casts in the order I cast
      // them. The header bit restores the event's cast-ness on the way up.
      std::uint64_t fields[] = {1};
      stack().push_header(ev.msg, *this, fields);
      ++st.fanned_out;
      const std::vector<Address>& members = g.view().members();
      for (std::size_t i = 0; i < members.size(); ++i) {
        DownEvent out;
        out.type = DownType::kSend;
        out.dests = {members[i]};
        // The last copy consumes the entry message; earlier ones copy.
        out.msg = i + 1 == members.size() ? std::move(ev.msg) : ev.msg;
        ++st.fanout_sends;
        pass_down(g, out);
      }
      return;
    }
    case DownType::kSend: {
      std::uint64_t fields[] = {0};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    default:
      pass_down(g, ev);
      return;
  }
}

void Mcast::up(Group& g, UpEvent& ev) {
  if (ev.type == UpType::kLostMessage) {
    // A source's casts and sends share its one unicast stream below, so a
    // loss on it may be either.
    ev.lost_from = UpType::kLostMessage;
    pass_up(g, ev);
    return;
  }
  if (ev.type != UpType::kCast && ev.type != UpType::kSend) {
    pass_up(g, ev);
    return;
  }
  PoppedHeader h;
  try {
    h = stack().pop_header(ev.msg, *this);
  } catch (const DecodeError&) {
    return;
  }
  if (h.fields[0] != 0) {
    ++state<State>(g).delivered;
    ev.type = UpType::kCast;
  } else {
    ev.type = UpType::kSend;
  }
  pass_up(g, ev);
}

void Mcast::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "MCAST: fanned_out=" + std::to_string(st.fanned_out) +
         " fanout_sends=" + std::to_string(st.fanout_sends) +
         " delivered=" + std::to_string(st.delivered) + "\n";
}

}  // namespace horus::layers
