#include "horus/layers/frag.hpp"

#include <algorithm>

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "FRAG";
  li.fields = {{"last", 1}, {"bundled", 1}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kFifoUnicast, Property::kFifoMulticast,
       Property::kGarblingDetect, Property::kSourceAddress});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kLargeMessages});
  li.spec.cost = 2;
  li.up_emits = make_up_emits({UpType::kCast, UpType::kSend});
  return li;
}

// Headroom left for the framing below FRAG (frame prefix, the compacted
// region, CRC trailer) within the transport MTU.
constexpr std::size_t kLowerHeadroom = 128;

}  // namespace

Frag::Frag() : info_(make_info()) {}

std::unique_ptr<LayerState> Frag::make_state(Group&) {
  return std::make_unique<State>();
}

std::size_t Frag::threshold() const {
  std::size_t mtu = stack().config().mtu;
  return mtu > kLowerHeadroom * 2 ? mtu - kLowerHeadroom : mtu / 2;
}

void Frag::down(Group& g, DownEvent& ev) {
  if (ev.type != DownType::kCast && ev.type != DownType::kSend) {
    pass_down(g, ev);
    return;
  }
  State& st = state<State>(g);
  std::size_t limit = threshold();
  // Fast path: small message, pass through with last=1, bundled=0.
  if (ev.msg.payload_size() + ev.msg.header_overhead() <= limit) {
    std::uint64_t fields[] = {1, 0};
    stack().push_header(ev.msg, *this, fields);
    pass_down(g, ev);
    return;
  }
  // Fragmenting path: one bundle, serialized straight from the message's
  // buffer; each fragment is built from its slice of it.
  ++st.fragmented;
  Bytes bundle = bundle_of(ev.msg);
  for (std::size_t off = 0; off < bundle.size(); off += limit) {
    std::size_t len = std::min(limit, bundle.size() - off);
    bool last = off + len >= bundle.size();
    DownEvent out;
    out.type = ev.type;
    out.dests = ev.dests;
    out.msg = stack().tx_message(ByteSpan(bundle).subspan(off, len));
    std::uint64_t fields[] = {last ? 1ULL : 0ULL, 1};
    stack().push_header(out.msg, *this, fields);
    pass_down(g, out);
  }
}

void Frag::up(Group& g, UpEvent& ev) {
  State& st = state<State>(g);
  if (ev.type == UpType::kLostMessage) {
    // A fragment may have been irrecoverably lost; poison the stream it
    // was lost from (both, if the layer below cannot tell) so a partially
    // assembled message is not mis-delivered. The source's other stream
    // is untouched: its reassembly lost nothing.
    for (bool is_send : {false, true}) {
      const UpType stream = is_send ? UpType::kSend : UpType::kCast;
      if (ev.lost_from != UpType::kLostMessage && ev.lost_from != stream) {
        continue;
      }
      auto it = st.assembling.find({ev.source, is_send});
      if (it != st.assembling.end()) {
        it->second.acc.clear();
        it->second.poisoned = true;
      }
    }
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
  bool last = h.fields[0] != 0;
  bool bundled = h.fields[1] != 0;
  if (!bundled && last) {
    pass_up(g, ev);  // unfragmented fast path
    return;
  }
  Assembly& as = st.assembling[{ev.source, ev.type == UpType::kSend}];
  if (as.poisoned) {
    if (last) as.poisoned = false;  // resynchronize at message boundary
    as.acc.clear();
    return;
  }
  Bytes piece = ev.msg.payload_bytes();
  as.acc.insert(as.acc.end(), piece.begin(), piece.end());
  if (!last) return;
  Bytes whole = std::move(as.acc);
  as.acc = {};
  try {
    UpEvent out;
    out.msg = unbundle(std::move(whole));
    ++st.reassembled;
    out.type = ev.type;
    out.source = ev.source;
    out.msg_id = ev.msg_id;
    pass_up(g, out);
  } catch (const DecodeError&) {
    // Corrupt bundle framing: drop.
  }
}

void Frag::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "FRAG: threshold=" + std::to_string(threshold()) +
         " fragmented=" + std::to_string(st.fragmented) +
         " reassembled=" + std::to_string(st.reassembled) + "\n";
}

}  // namespace horus::layers
