#include "horus/layers/vss.hpp"

#include <algorithm>

#include "horus/util/log.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "VSS";
  li.fields = {{"kind", 2}, {"view_seq", 32}, {"vseq", 32}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kFifoUnicast, Property::kFifoMulticast,
       Property::kVirtualSemiSync, Property::kGarblingDetect,
       Property::kSourceAddress, Property::kLargeMessages,
       Property::kConsistentViews});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kVirtualSync});
  li.spec.cost = 3;
  li.up_emits = make_up_emits({UpType::kView, UpType::kCast, UpType::kSend});
  return li;
}

void encode_log(Writer& w,
                const std::map<Address, std::map<std::uint64_t, CapturedMsg>>& log) {
  std::uint64_t n = 0;
  for (const auto& [s, m] : log) n += m.size();
  w.varint(n);
  for (const auto& [s, m] : log) {
    for (const auto& [vseq, cap] : m) {
      w.u64(s.id);
      w.varint(vseq);
      cap.encode(w);
    }
  }
}

std::vector<Vss::LogEntry> decode_log_entries(Reader& r) {
  std::uint64_t n = r.varint();
  if (n > 1'000'000) throw DecodeError("too many entries");
  std::vector<Vss::LogEntry> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Vss::LogEntry e;
    e.sender = Address{r.u64()};
    e.vseq = r.varint();
    e.content = CapturedMsg::decode(r);
    out.push_back(std::move(e));
  }
  return out;
}
}  // namespace

Vss::Vss() : info_(make_info()) {}

std::unique_ptr<LayerState> Vss::make_state(Group&) {
  return std::make_unique<State>();
}

Address Vss::exchange_coordinator(const State& st) const {
  // Oldest member of the target view that was also in the old service
  // view; only survivors can contribute old-view messages.
  for (const Address& m : st.target.members()) {
    if (st.svc_view.contains(m)) return m;
  }
  return Address{};
}

void Vss::send_ctl(Group& g, std::uint64_t kind, const Address& dst,
                   ByteSpan payload) {
  Message m = stack().tx_message(payload);
  std::uint64_t fields[] = {kind, 0, 0};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  out.dests = {dst};
  out.msg = std::move(m);
  pass_down(g, out);
}

void Vss::down(Group& g, DownEvent& ev) {
  State& st = state<State>(g);
  switch (ev.type) {
    case DownType::kCast: {
      if (!st.have_svc || st.transitioning) {
        st.deferred_casts.push_back(std::move(ev.msg));
        return;
      }
      std::uint64_t vseq = ++st.my_vseq;
      st.log[self()][vseq] = CapturedMsg::capture(ev.msg);
      std::uint64_t fields[] = {kData, st.svc_view.id().seq, vseq};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    case DownType::kSend: {
      std::uint64_t fields[] = {kOob, 0, 0};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    default:
      pass_down(g, ev);
      return;
  }
}

void Vss::up(Group& g, UpEvent& ev) {
  State& st = state<State>(g);
  switch (ev.type) {
    case UpType::kView:
      begin_transition(g, st, ev.view);
      return;  // released upward only after the exchange completes
    case UpType::kCast:
    case UpType::kSend: {
      PoppedHeader h;
      try {
        h = stack().pop_header(ev.msg, *this);
      } catch (const DecodeError&) {
        return;
      }
      std::uint64_t kind = h.fields[0];
      std::uint64_t view_seq = h.fields[1];
      std::uint64_t vseq = h.fields[2];
      try {
        switch (kind) {
          case kData: {
            std::uint64_t cur = st.have_svc ? st.svc_view.id().seq : 0;
            if (view_seq > cur) {
              auto& vec = st.future[view_seq];
              if (vec.size() < 100'000) {
                vec.push_back(
                    LogEntry{ev.source, vseq, CapturedMsg::capture(ev.msg)});
              }
              return;
            }
            if (view_seq < cur || !st.have_svc) return;
            if (!st.svc_view.contains(ev.source)) return;
            if (st.transitioning && st.state_sent &&
                !st.target.contains(ev.source)) {
              return;  // post-STATE data from a member the view dropped
            }
            deliver_data(g, st, ev.source, vseq, ev);
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
          case kState: {
            Reader r = ev.msg.reader();
            std::uint64_t old_seq = r.varint();
            std::uint64_t new_seq = r.varint();
            auto entries = decode_log_entries(r);
            if (!st.transitioning ||
                old_seq != (st.have_svc ? st.svc_view.id().seq : 0) ||
                new_seq != st.target.id().seq) {
              return;  // stale exchange
            }
            for (auto& e : entries) {
              st.collected[e.sender].emplace(e.vseq, std::move(e.content));
            }
            st.state_waiting.erase(ev.source);
            maybe_release(g, st);
            return;
          }
          case kRelease:
            apply_release(g, st, ev.msg.reader().rest());
            return;
          default:
            return;
        }
      } catch (const DecodeError&) {
        HLOG_WARN("VSS") << "malformed control message";
      }
      return;
    }
    default:
      pass_up(g, ev);
      return;
  }
}

void Vss::deliver_data(Group& g, State& st, const Address& src,
                       std::uint64_t vseq, UpEvent& ev) {
  std::uint64_t& got = st.delivered[src];
  if (vseq <= got) return;
  if (vseq != got + 1) return;  // cannot happen under FIFO; defensive
  got = vseq;
  st.log[src][vseq] = CapturedMsg::capture(ev.msg);
  UpEvent out;
  out.type = UpType::kCast;
  out.source = src;
  out.msg_id = vseq;
  out.msg = std::move(ev.msg);
  pass_up(g, out);
}

void Vss::begin_transition(Group& g, State& st, const View& nv) {
  st.transitioning = true;
  st.target = nv;
  st.state_sent = false;
  st.state_waiting.clear();
  st.collected.clear();

  Address coord = exchange_coordinator(st);
  bool survivor = st.have_svc && st.svc_view.contains(self());
  if (!coord.valid() || !survivor) {
    // Fresh member (bootstrap or joiner): nothing to reconcile on our
    // side; if survivors exist, wait for their coordinator's RELEASE.
    if (!coord.valid()) {
      release(g, st, nv, {});
    }
    return;
  }
  if (coord == self()) {
    // Collect from every other survivor in the target view.
    for (const Address& m : st.target.members()) {
      if (m != self() && st.svc_view.contains(m)) st.state_waiting.insert(m);
    }
    st.collected = st.log;
    st.state_sent = true;
    maybe_release(g, st);
  } else {
    send_state(g, st);
  }
}

void Vss::send_state(Group& g, State& st) {
  Writer w;
  w.varint(st.have_svc ? st.svc_view.id().seq : 0);
  w.varint(st.target.id().seq);
  encode_log(w, st.log);
  send_ctl(g, kState, exchange_coordinator(st), w.data());
  st.state_sent = true;
}

void Vss::maybe_release(Group& g, State& st) {
  if (!st.transitioning || exchange_coordinator(st) != self()) return;
  if (!st.state_waiting.empty()) return;
  // Broadcast the union to every target member (joiners included).
  Writer w;
  w.varint(st.have_svc ? st.svc_view.id().seq : 0);
  st.target.encode(w);
  encode_log(w, st.collected);
  Bytes bundle = w.take();
  for (const Address& m : st.target.members()) {
    if (m != self()) send_ctl(g, kRelease, m, bundle);
  }
  apply_release(g, st, bundle);
}

void Vss::apply_release(Group& g, State& st, ByteSpan bundle) {
  Reader r(bundle);
  std::uint64_t old_seq = r.varint();
  View nv = View::decode(r);
  auto entries = decode_log_entries(r);
  if (st.have_svc && nv.id().seq <= st.svc_view.id().seq) return;  // dup
  bool was_in_old = st.have_svc && old_seq == st.svc_view.id().seq &&
                    st.svc_view.contains(self());
  if (was_in_old) {
    std::sort(entries.begin(), entries.end(),
              [&](const LogEntry& a, const LogEntry& b) {
                auto ra = st.svc_view.rank_of(a.sender).value_or(SIZE_MAX);
                auto rb = st.svc_view.rank_of(b.sender).value_or(SIZE_MAX);
                if (ra != rb) return ra < rb;
                return a.vseq < b.vseq;
              });
    for (LogEntry& e : entries) {
      std::uint64_t& got = st.delivered[e.sender];
      if (e.vseq <= got) continue;
      got = e.vseq;
      UpEvent out;
      out.type = UpType::kCast;
      out.source = e.sender;
      out.msg_id = e.vseq;
      out.msg = e.content.to_rx();
      pass_up(g, out);
    }
  }
  release(g, st, nv, {});
}

void Vss::release(Group& g, State& st, const View& nv,
                  const std::vector<LogEntry>&) {
  st.svc_view = nv;
  st.have_svc = true;
  st.transitioning = false;
  st.my_vseq = 0;
  st.delivered.clear();
  for (const Address& m : nv.members()) st.delivered[m] = 0;
  st.log.clear();
  st.state_waiting.clear();
  st.collected.clear();
  ++st.exchanges_completed;

  UpEvent uv;
  uv.type = UpType::kView;
  uv.view = nv;
  pass_up(g, uv);

  auto fit = st.future.find(nv.id().seq);
  if (fit != st.future.end()) {
    std::vector<LogEntry> pend = std::move(fit->second);
    st.future.erase(fit);
    for (LogEntry& e : pend) {
      if (!nv.contains(e.sender)) continue;
      UpEvent ev;
      ev.source = e.sender;
      ev.msg = e.content.to_rx();
      deliver_data(g, st, e.sender, e.vseq, ev);
    }
  }
  for (auto it = st.future.begin(); it != st.future.end();) {
    it = it->first <= nv.id().seq ? st.future.erase(it) : ++it;
  }

  std::vector<Message> deferred = std::move(st.deferred_casts);
  st.deferred_casts.clear();
  for (Message& m : deferred) {
    DownEvent ev;
    ev.type = DownType::kCast;
    ev.msg = std::move(m);
    down(g, ev);
  }
}

void Vss::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "VSS: svc=" + (st.have_svc ? st.svc_view.to_string() : "(none)") +
         " transitioning=" + std::to_string(st.transitioning) +
         " exchanges=" + std::to_string(st.exchanges_completed) + "\n";
  (void)g;
}

}  // namespace horus::layers
