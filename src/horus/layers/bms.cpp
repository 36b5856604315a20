#include "horus/layers/bms.hpp"

#include <algorithm>

#include "horus/util/log.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "BMS";
  li.fields = {{"kind", 3}, {"view_seq", 32}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kFifoUnicast, Property::kFifoMulticast,
       Property::kGarblingDetect, Property::kSourceAddress,
       Property::kLargeMessages});
  li.spec.inherits = props::kAllProperties;
  // Views are agreed, but no flush: only semi-synchrony.
  li.spec.provides = props::make_set(
      {Property::kVirtualSemiSync, Property::kConsistentViews});
  li.spec.cost = 3;
  li.up_emits = make_up_emits({UpType::kExit, UpType::kView, UpType::kCast, UpType::kSend});
  return li;
}

}  // namespace

Bms::Bms() : info_(make_info()) {}

std::unique_ptr<LayerState> Bms::make_state(Group&) {
  return std::make_unique<State>();
}

Address Bms::coordinator(Group& g, const State& st) const {
  for (const Address& m : g.view().members()) {
    if (!st.failed.contains(m)) return m;
  }
  return self();
}

void Bms::send_ctl(Group& g, std::uint64_t kind, const Address& dst,
                   ByteSpan payload) {
  Message m = stack().tx_message(payload);
  std::uint64_t fields[] = {kind, g.view().id().seq};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  out.dests = {dst};
  out.msg = std::move(m);
  pass_down(g, out);
}

void Bms::down(Group& g, DownEvent& ev) {
  State& st = state<State>(g);
  switch (ev.type) {
    case DownType::kJoin: {
      if (!ev.contact.valid() || ev.contact == self()) {
        bootstrap(g, st);
        return;
      }
      st.phase = Phase::kJoining;
      st.join_contact = ev.contact;
      Writer w;
      w.u64(self().id);
      send_ctl(g, kJoinReq, ev.contact, w.data());
      st.join_timer = stack().schedule(
          g.gid(), stack().config().flush_retry, [this](Group& gg) {
            State& s2 = state<State>(gg);
            if (s2.phase != Phase::kJoining) return;
            DownEvent retry;
            retry.type = DownType::kJoin;
            retry.contact = s2.join_contact;
            down(gg, retry);
          });
      return;
    }
    case DownType::kCast: {
      if (st.phase != Phase::kNormal) return;  // semi-sync: no deferral queue
      std::uint64_t fields[] = {kData, g.view().id().seq};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    case DownType::kSend: {
      std::uint64_t fields[] = {kOob, g.view().id().seq};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    case DownType::kFlush:
      for (const Address& a : ev.dests) suspect(g, st, a);
      return;
    case DownType::kLeave: {
      if (g.view().size() <= 1) {
        st.phase = Phase::kLeft;
        UpEvent ex;
        ex.type = UpType::kExit;
        pass_up(g, ex);
        return;
      }
      Writer w;
      w.u64(self().id);
      if (coordinator(g, st) == self()) {
        st.leaving.insert(self());
        announce_new_view(g, st);
      } else {
        send_ctl(g, kLeaveReq, coordinator(g, st), w.data());
      }
      return;
    }
    case DownType::kMerge: {
      if (!ev.contact.valid() || st.phase != Phase::kNormal) return;
      Writer w;
      g.view().encode(w);
      send_ctl(g, kMergeReq, ev.contact, w.data());
      return;
    }
    case DownType::kDestroy:
      stack().cancel(st.join_timer);
      st.phase = Phase::kLeft;
      pass_down(g, ev);
      return;
    case DownType::kView:
      return;  // BMS owns views
    default:
      pass_down(g, ev);
      return;
  }
}

void Bms::suspect(Group& g, State& st, const Address& who) {
  if (st.phase != Phase::kNormal) return;
  if (who == self() || !g.view().contains(who) || st.failed.contains(who)) return;
  st.failed.insert(who);
  if (coordinator(g, st) == self()) {
    announce_new_view(g, st);
  } else {
    Writer w;
    encode_addresses(w, {st.failed.begin(), st.failed.end()});
    send_ctl(g, kFailReport, coordinator(g, st), w.data());
  }
}

void Bms::announce_new_view(Group& g, State& st) {
  const View& old = g.view();
  std::vector<Address> gone(st.failed.begin(), st.failed.end());
  gone.insert(gone.end(), st.leaving.begin(), st.leaving.end());
  std::vector<Address> in;
  for (const Address& j : st.joiners) {
    if (!st.failed.contains(j)) in.push_back(j);
  }
  View nv = old.successor(gone, in, self());
  if (nv.id().seq <= st.view_seq_floor) {
    nv = View(ViewId{st.view_seq_floor + 1, self()}, nv.members());
  }
  Writer w;
  w.varint(old.id().seq);
  w.u64(old.id().coordinator.id);
  nv.encode(w);
  Bytes bundle = w.take();
  std::set<Address> dests(nv.members().begin(), nv.members().end());
  for (const Address& l : st.leaving) dests.insert(l);
  for (const Address& f : st.failed) dests.insert(f);
  for (const Address& d : dests) {
    if (d != self()) send_ctl(g, kViewCast, d, bundle);
  }
  install(g, st, bundle);
}

void Bms::install(Group& g, State& st, ByteSpan bundle) {
  Reader r(bundle);
  ViewId old_id;
  old_id.seq = r.varint();
  old_id.coordinator = Address{r.u64()};
  View nv = View::decode(r);
  bool was_in_old = st.phase == Phase::kNormal && old_id == g.view().id();
  if (nv.id().seq <= g.view().id().seq && st.phase != Phase::kJoining) {
    // Non-monotonic (a merge from a side whose seq lags ours): tell the
    // installer where we stand so its retry uses a higher floor.
    if (nv.contains(self()) && nv.id() != g.view().id() &&
        st.phase == Phase::kNormal && nv.id().coordinator != self()) {
      Writer w;
      g.view().encode(w);
      send_ctl(g, kMergeReq, nv.id().coordinator, w.data());
    }
    return;
  }
  if (!nv.contains(self())) {
    if (!was_in_old) {
      // Foreign lineage: not our exclusion -- propose a merge back instead.
      if (st.phase == Phase::kNormal && nv.id().coordinator != self()) {
        Writer w;
        g.view().encode(w);
        send_ctl(g, kMergeReq, nv.id().coordinator, w.data());
      }
      return;
    }
    st.phase = Phase::kLeft;
    UpEvent ex;
    ex.type = UpType::kExit;
    pass_up(g, ex);
    return;
  }
  g.set_view(nv);
  st.phase = Phase::kNormal;
  st.failed.clear();
  st.joiners.clear();
  st.leaving.clear();
  st.view_seq_floor = 0;
  st.last_announce.assign(bundle.begin(), bundle.end());
  stack().cancel(st.join_timer);
  ++st.views_installed;

  DownEvent dv;
  dv.type = DownType::kView;
  dv.view = nv;
  pass_down(g, dv);
  UpEvent uv;
  uv.type = UpType::kView;
  uv.view = nv;
  pass_up(g, uv);

  auto fit = st.future.find(nv.id().seq);
  if (fit != st.future.end()) {
    auto pend = std::move(fit->second);
    st.future.erase(fit);
    for (auto& [src, cap] : pend) {
      if (!g.view().contains(src)) continue;
      UpEvent ev;
      ev.type = UpType::kCast;
      ev.source = src;
      ev.msg = cap.to_rx();
      pass_up(g, ev);
    }
  }
  for (auto it = st.future.begin(); it != st.future.end();) {
    it = it->first <= nv.id().seq ? st.future.erase(it) : ++it;
  }
}

void Bms::handle_merge_req(Group& g, State& st, Reader r) {
  View theirs = View::decode(r);
  if (st.phase != Phase::kNormal) return;
  if (coordinator(g, st) != self()) {
    Writer w;
    theirs.encode(w);
    send_ctl(g, kMergeReq, coordinator(g, st), w.data());
    return;
  }
  if (theirs.contains(self()) || theirs.id() == g.view().id()) return;
  // Stable dominance: the globally oldest member's side absorbs.
  if (!(g.view().oldest().id < theirs.oldest().id)) {
    Writer w;
    g.view().encode(w);
    send_ctl(g, kMergeReq, theirs.oldest(), w.data());
    return;
  }
  for (const Address& m : theirs.members()) {
    if (!g.view().contains(m)) st.joiners.insert(m);
  }
  st.view_seq_floor = std::max(st.view_seq_floor, theirs.id().seq);
  announce_new_view(g, st);
}

void Bms::bootstrap(Group& g, State& st) {
  View nv(ViewId{1, self()}, {self()});
  Writer w;
  w.varint(0);  // no predecessor
  w.u64(0);
  nv.encode(w);
  st.phase = Phase::kJoining;  // so install() accepts seq 1
  install(g, st, w.data());
}

void Bms::up(Group& g, UpEvent& ev) {
  State& st = state<State>(g);
  if (ev.type == UpType::kProblem) {
    suspect(g, st, ev.source);
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
  std::uint64_t kind = h.fields[0];
  std::uint64_t view_seq = h.fields[1];
  try {
    switch (kind) {
      case kData: {
        std::uint64_t cur = g.view().id().seq;
        if (st.phase == Phase::kJoining || view_seq > cur) {
          auto& vec = st.future[view_seq];
          if (vec.size() < 100'000) {
            vec.emplace_back(ev.source, CapturedMsg::capture(ev.msg));
          }
          return;
        }
        if (view_seq < cur) return;       // semi-sync: late casts dropped
        if (!g.view().contains(ev.source)) return;
        pass_up(g, ev);
        return;
      }
      case kOob: {
        UpEvent out;
        out.type = UpType::kSend;
        out.source = ev.source;
        out.msg_id = ev.msg_id;
        out.msg = std::move(ev.msg);
        pass_up(g, out);
        return;
      }
      case kJoinReq: {
        Reader r = ev.msg.reader();
        Address joiner{r.u64()};
        if (st.phase != Phase::kNormal) return;
        if (g.view().contains(joiner)) {
          if (!st.last_announce.empty()) {
            send_ctl(g, kViewCast, joiner, st.last_announce);
          }
          return;
        }
        if (coordinator(g, st) == self()) {
          st.joiners.insert(joiner);
          announce_new_view(g, st);
        } else {
          Writer w;
          w.u64(joiner.id);
          send_ctl(g, kJoinReq, coordinator(g, st), w.data());
        }
        return;
      }
      case kLeaveReq: {
        Reader r = ev.msg.reader();
        Address leaver{r.u64()};
        if (!g.view().contains(leaver)) return;
        st.leaving.insert(leaver);
        if (coordinator(g, st) == self()) announce_new_view(g, st);
        return;
      }
      case kViewCast:
        install(g, st, ev.msg.reader().rest());
        return;
      case kFailReport: {
        if (view_seq != g.view().id().seq || !g.view().contains(ev.source)) return;
        Reader r = ev.msg.reader();
        for (const Address& a : decode_addresses(r)) suspect(g, st, a);
        return;
      }
      case kMergeReq:
        handle_merge_req(g, st, ev.msg.reader());
        return;
      default:
        return;
    }
  } catch (const DecodeError&) {
    HLOG_WARN("BMS") << "malformed control message";
  }
}

void Bms::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "BMS: view=" + g.view().to_string() +
         " installed=" + std::to_string(st.views_installed) + "\n";
}

}  // namespace horus::layers
