#include "horus/layers/pack.hpp"

#include "horus/layers/common.hpp"
#include "horus/util/hotpath_stats.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "PACK";
  li.fields = {{"packed", 1}};
  li.spec.name = li.name;
  // Trains must survive below even when they approach the MTU budget, so a
  // fragmentation layer (P12) is required underneath; PACK itself adds no
  // guarantee -- it is property-transparent by construction.
  li.spec.requires_below = props::make_set({Property::kLargeMessages});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = 0;
  li.spec.cost = 1;
  // Unpacked casts are originated (new events), everything else is passed
  // through from below.
  li.up_emits = make_up_emits({UpType::kCast});
  return li;
}

/// Encoded size of `m` as one train element (CapturedMsg::encode framing).
std::size_t element_size(const Message& m) {
  const std::size_t region = m.region().size();
  const std::size_t rest = m.upper_span().size();
  return varint_size(region) + region + varint_size(rest) + rest;
}

}  // namespace

Pack::Pack() : info_(make_info()) {}

std::unique_ptr<LayerState> Pack::make_state(Group&) {
  return std::make_unique<State>();
}

std::size_t Pack::budget() const {
  const PackingConfig& pc = stack().config().packing;
  if (pc.max_bytes != 0) return pc.max_bytes;
  // Auto: stay safely below FRAG's fragmentation threshold (mtu - 128),
  // leaving slack for this layer's framing, the train count prefix and the
  // headers of layers between PACK and FRAG. Trains are pre-split against
  // this budget; FRAG below must never slice mid-train.
  std::size_t mtu = stack().config().mtu;
  return mtu > 512 ? mtu - 256 : mtu / 2;
}

std::size_t Pack::lower_overhead() const {
  // Fixed per-datagram cost each coalesced cast avoids: the endpoint demux
  // prefix, the CRC trailer, the compacted header region, and the length
  // prefix of each lower layer's variable extension (counted empty, so the
  // figure never overstates the saving).
  std::size_t n = Stack::kFramePrefix + 4 + stack().region_bytes();
  const auto& ls = stack().layers();
  for (std::size_t i = index() + 1; i < ls.size(); ++i) {
    if (ls[i]->info().uses_var) n += varint_size(0);
  }
  return n;
}

void Pack::pass_through(Group& g, DownEvent& ev, State& st) {
  ++st.passthrough;
  std::uint64_t fields[] = {0};
  stack().push_header(ev.msg, *this, fields);
  pass_down(g, ev);
}

void Pack::arm_timer(Group& g, State& st) {
  if (st.timer != 0) return;
  st.timer = stack().schedule(g.gid(), stack().config().packing.flush_after,
                              [this](Group& gg) {
                                State& s = state<State>(gg);
                                s.timer = 0;  // fired; nothing to cancel
                                flush(gg, s, FlushReason::kTimer);
                              });
}

void Pack::flush(Group& g, State& st, FlushReason reason) {
  if (st.timer != 0) {
    stack().cancel(st.timer);
    st.timer = 0;
  }
  if (st.pending.empty()) return;
  MsgPathStats& hp = msg_path_stats();
  switch (reason) {
    case FlushReason::kSize:
      hp.flushes_by_size.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kCount:
      hp.flushes_by_count.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kTimer:
      hp.flushes_by_timer.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kBarrier:
      break;  // ordering barrier, not a packing decision
  }
  // The buffer is cleared before forwarding: anything the descent triggers
  // sees a consistent (empty) pending state.
  std::vector<CapturedMsg> train = std::move(st.pending);
  st.pending.clear();
  st.pending_bytes = 0;
  if (train.size() == 1) {
    // A lone cast goes out unpacked -- a train of one would only add
    // framing (the single-cast pass-through guarantee).
    ++st.passthrough;
    DownEvent out;
    out.type = DownType::kCast;
    out.msg = train[0].to_tx(stack());
    std::uint64_t fields[] = {0};
    stack().push_header(out.msg, *this, fields);
    pass_down(g, out);
    return;
  }
  Writer w;
  w.varint(train.size());
  for (const CapturedMsg& c : train) c.encode(w);
  DownEvent out;
  out.type = DownType::kCast;
  out.msg = stack().tx_message(w.span());
  std::uint64_t fields[] = {1};
  stack().push_header(out.msg, *this, fields);
  ++st.packs;
  st.packed_casts += train.size();
  hp.packs_built.fetch_add(1, std::memory_order_relaxed);
  hp.casts_packed.fetch_add(train.size(), std::memory_order_relaxed);
  hp.packed_bytes_saved.fetch_add((train.size() - 1) * lower_overhead(),
                                  std::memory_order_relaxed);
  pass_down(g, out);
}

void Pack::down(Group& g, DownEvent& ev) {
  State& st = state<State>(g);
  if (ev.type == DownType::kSend) {
    // Sends are never packed (their destination sets vary), but they are a
    // barrier: pending casts must not be reordered past them.
    flush(g, st, FlushReason::kBarrier);
    pass_through(g, ev, st);
    return;
  }
  if (ev.type != DownType::kCast) {
    // Control downcalls (flush, leave, view, destroy, ...) barrier too:
    // packed casts belong before whatever the control event starts.
    flush(g, st, FlushReason::kBarrier);
    pass_down(g, ev);
    return;
  }
  const PackingConfig& pc = stack().config().packing;
  if (pc.max_count <= 1 || pc.flush_after <= 0) {
    pass_through(g, ev, st);  // packing disabled: zero added latency
    return;
  }
  std::size_t elem = element_size(ev.msg);
  std::size_t limit = budget();
  if (elem > limit) {
    // Oversize cast: pass it through alone (FRAG below will slice it);
    // flush first so cast order is preserved.
    flush(g, st, FlushReason::kBarrier);
    pass_through(g, ev, st);
    return;
  }
  // Pre-split: if this element would push the train past the byte budget,
  // flush what is pending and start a fresh train with it.
  if (!st.pending.empty() && st.pending_bytes + elem > limit) {
    flush(g, st, FlushReason::kSize);
  }
  st.pending.push_back(CapturedMsg::capture(ev.msg));
  st.pending_bytes += elem;
  if (st.pending.size() >= pc.max_count) {
    flush(g, st, FlushReason::kCount);
    return;
  }
  if (st.pending_bytes >= limit) {
    flush(g, st, FlushReason::kSize);
    return;
  }
  arm_timer(g, st);
}

void Pack::up(Group& g, UpEvent& ev) {
  State& st = state<State>(g);
  if (ev.type == UpType::kView || ev.type == UpType::kFlush) {
    // A membership cutover seen from below: casts buffered in the old view
    // must reach the wire before the change completes above.
    flush(g, st, FlushReason::kBarrier);
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
  if (h.fields[0] == 0) {
    pass_up(g, ev);  // unpacked fast path
    return;
  }
  // Packed train: validate the whole train before delivering any element.
  // A corrupt train drops the entire datagram (counted) -- never a partial
  // delivery.
  std::vector<CapturedMsg> elems;
  try {
    Bytes payload = ev.msg.payload_bytes();
    Reader r(payload);
    std::uint64_t n = r.varint();
    if (n == 0 || n > kMaxTrain) throw DecodeError("bad train count");
    elems.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) elems.push_back(CapturedMsg::decode(r));
    if (!r.rest().empty()) throw DecodeError("trailing train bytes");
  } catch (const DecodeError&) {
    ++st.corrupt;
    msg_path_stats().corrupt_trains.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  st.unpacked += elems.size();
  MsgPathStats& hp = msg_path_stats();
  hp.trains_unpacked.fetch_add(1, std::memory_order_relaxed);
  hp.casts_unpacked.fetch_add(elems.size(), std::memory_order_relaxed);
  // One received datagram fans out into N deliveries inline -- no extra
  // executor round-trips -- in the order the sender packed them.
  for (CapturedMsg& c : elems) {
    UpEvent out;
    out.type = UpType::kCast;
    out.source = ev.source;
    out.msg_id = ev.msg_id;
    out.msg = c.to_rx();
    pass_up(g, out);
  }
}

void Pack::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "PACK: budget=" + std::to_string(budget()) +
         " pending=" + std::to_string(st.pending.size()) +
         " packs=" + std::to_string(st.packs) +
         " packed=" + std::to_string(st.packed_casts) +
         " passthrough=" + std::to_string(st.passthrough) +
         " unpacked=" + std::to_string(st.unpacked) +
         " corrupt=" + std::to_string(st.corrupt) + "\n";
}

}  // namespace horus::layers
