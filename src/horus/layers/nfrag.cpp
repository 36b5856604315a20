#include "horus/layers/nfrag.hpp"

#include <algorithm>

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "NFRAG";
  li.fields = {{"msgid", 32}, {"idx", 16}, {"total", 16}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kBestEffort, Property::kGarblingDetect, Property::kSourceAddress});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kLargeMessages});
  li.spec.cost = 2;
  li.up_emits = make_up_emits({UpType::kCast, UpType::kSend});
  return li;
}

constexpr std::size_t kLowerHeadroom = 128;
constexpr sim::Duration kReassemblyTimeout = 500 * sim::kMillisecond;

}  // namespace

Nfrag::Nfrag() : info_(make_info()) {}

std::unique_ptr<LayerState> Nfrag::make_state(Group& g) {
  auto st = std::make_unique<State>();
  State* raw = st.get();
  raw->gc_timer = stack().schedule(g.gid(), kReassemblyTimeout,
                                   [this, raw](Group& gg) {
                                     sim::Time now = stack().now();
                                     for (auto it = raw->assembling.begin();
                                          it != raw->assembling.end();) {
                                       if (now - it->second.started > kReassemblyTimeout) {
                                         ++raw->expired;
                                         it = raw->assembling.erase(it);
                                       } else {
                                         ++it;
                                       }
                                     }
                                     arm_gc(gg, *raw);
                                   });
  return st;
}

void Nfrag::arm_gc(Group& g, State& st) {
  st.gc_timer = stack().schedule(g.gid(), kReassemblyTimeout,
                                 [this, &st](Group& gg) {
                                   sim::Time now = stack().now();
                                   for (auto it = st.assembling.begin();
                                        it != st.assembling.end();) {
                                     if (now - it->second.started > kReassemblyTimeout) {
                                       ++st.expired;
                                       it = st.assembling.erase(it);
                                     } else {
                                       ++it;
                                     }
                                   }
                                   arm_gc(gg, st);
                                 });
}

std::size_t Nfrag::threshold() const {
  std::size_t mtu = stack().config().mtu;
  return mtu > kLowerHeadroom * 2 ? mtu - kLowerHeadroom : mtu / 2;
}

void Nfrag::down(Group& g, DownEvent& ev) {
  if (ev.type != DownType::kCast && ev.type != DownType::kSend) {
    pass_down(g, ev);
    return;
  }
  State& st = state<State>(g);
  Bytes bundle = bundle_of(ev.msg);  // never empty: starts with a varint
  std::size_t limit = threshold();
  std::size_t total = (bundle.size() + limit - 1) / limit;
  std::uint64_t msgid = ++st.next_msgid;
  for (std::size_t i = 0; i < total; ++i) {
    std::size_t off = i * limit;
    std::size_t len = std::min(limit, bundle.size() - off);
    DownEvent out;
    out.type = ev.type;
    out.dests = ev.dests;
    out.msg = stack().tx_message(ByteSpan(bundle).subspan(off, len));
    std::uint64_t fields[] = {msgid, i, total};
    stack().push_header(out.msg, *this, fields);
    pass_down(g, out);
  }
}

void Nfrag::up(Group& g, UpEvent& ev) {
  if (ev.type != UpType::kCast && ev.type != UpType::kSend) {
    pass_up(g, ev);
    return;
  }
  State& st = state<State>(g);
  PoppedHeader h;
  try {
    h = stack().pop_header(ev.msg, *this);
  } catch (const DecodeError&) {
    return;
  }
  std::uint64_t msgid = h.fields[0];
  std::size_t idx = h.fields[1];
  std::size_t total = h.fields[2];
  if (total == 0 || idx >= total || total > 65535) return;
  Assembly& as = st.assembling[{ev.source, msgid}];
  if (as.slots.empty()) {
    as.slots.resize(total);
    as.started = stack().now();
    as.is_send = ev.type == UpType::kSend;
  }
  if (as.slots.size() != total) return;  // inconsistent: drop fragment
  if (!as.slots[idx].empty()) return;  // duplicate fragment
  // Fragments are never empty: the bundle always starts with the region
  // length varint, so emptiness doubles as the "slot unfilled" marker.
  as.slots[idx] = ev.msg.payload_bytes();
  ++as.have;
  if (as.have < total) return;
  Bytes whole;
  for (auto& s : as.slots) whole.insert(whole.end(), s.begin(), s.end());
  bool is_send = as.is_send;
  st.assembling.erase({ev.source, msgid});
  try {
    UpEvent out;
    out.msg = unbundle(std::move(whole));
    ++st.reassembled;
    out.type = is_send ? UpType::kSend : UpType::kCast;
    out.source = ev.source;
    pass_up(g, out);
  } catch (const DecodeError&) {
  }
}

void Nfrag::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "NFRAG: assembling=" + std::to_string(st.assembling.size()) +
         " reassembled=" + std::to_string(st.reassembled) +
         " expired=" + std::to_string(st.expired) + "\n";
}

}  // namespace horus::layers
