#include "horus/layers/nak.hpp"

#include <algorithm>

#include "horus/util/log.hpp"

#include "horus/obs/metrics.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "NAK";
  li.fields = {{"kind", 3}, {"stream", 1}, {"epoch", 32}, {"seq", 32}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kBestEffort, Property::kGarblingDetect, Property::kSourceAddress});
  // Reliable FIFO replaces best-effort/prioritized delivery; everything
  // else passes through.
  li.spec.inherits = props::kAllProperties &
                     ~props::make_set({Property::kBestEffort, Property::kPrioritized});
  li.spec.provides =
      props::make_set({Property::kFifoUnicast, Property::kFifoMulticast});
  li.spec.cost = 3;
  li.up_emits = make_up_emits({UpType::kCast, UpType::kSend, UpType::kLostMessage, UpType::kProblem});
  return li;
}

}  // namespace

Nak::Nak()
    : info_(make_info()),
      requests_sent_(obs::metrics().counter("nak.requests_sent")),
      retransmitted_(obs::metrics().counter("nak.retransmissions")),
      placeholders_sent_(obs::metrics().counter("nak.placeholders_sent")) {}

std::unique_ptr<LayerState> Nak::make_state(Group& g) {
  auto st = std::make_unique<State>();
  State* raw = st.get();
  // Periodic status gossip (ack propagation, flow control, failure
  // detection). Gap repair arms its own timer when a gap opens. The state
  // object lives in the group's slot; its address is stable.
  st->status_timer = stack().schedule(g.gid(), stack().config().nak_status_interval,
                                      [this, raw](Group& gg) {
                                        send_status(gg, *raw);
                                        rearm_status(gg, *raw);
                                      });
  return st;
}

void Nak::down(Group& g, DownEvent& ev) {
  State& st = state<State>(g);
  switch (ev.type) {
    case DownType::kCast: {
      ensure_epoch(g, st);
      if (st.cast_out_seq >= min_cast_acked(g, st) + stack().config().nak_window) {
        st.pending.push_back(std::move(ev.msg));  // flow control: window full
        return;
      }
      send_cast_now(g, st, std::move(ev.msg));
      return;
    }
    case DownType::kSend: {
      for (const Address& dst : ev.dests) {
        PeerState& p = peer(st, g, dst);
        std::uint64_t seq = ++p.send_out_seq;
        Message copy = ev.msg;
        p.send_buf[seq] = CapturedMsg::capture(copy);
        if (p.send_buf.size() > stack().config().nak_max_retain) {
          p.send_buf.erase(p.send_buf.begin());
        }
        std::uint64_t fields[] = {kData, 1, 0, seq};
        stack().push_header(copy, *this, fields);
        DownEvent out;
        out.type = DownType::kSend;
        out.dests = {dst};
        out.msg = std::move(copy);
        pass_down(g, out);
      }
      return;
    }
    case DownType::kView:
      on_view(g, st, ev.view);
      pass_down(g, ev);
      return;
    case DownType::kDestroy:
      stack().cancel(st.status_timer);
      stack().cancel(st.repair_timer);
      pass_down(g, ev);
      return;
    default:
      pass_down(g, ev);
      return;
  }
}

void Nak::ensure_epoch(Group& g, State& st) {
  std::uint64_t e = g.view().id().seq;
  if (e == st.epoch) return;
  st.epoch = e;
  st.cast_out_seq = 0;
  st.acked_floor = 0;
  st.asked_seq = 0;
  // Retire retransmit buffers more than one epoch old.
  for (auto it = st.cast_buf.begin(); it != st.cast_buf.end();) {
    if (it->first.first + 1 < e) {
      it = st.cast_buf.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint64_t Nak::min_cast_acked(Group& g, State& st) const {
  std::uint64_t m = UINT64_MAX;
  Address self = stack().address();
  for (const Address& a : g.view().members()) {
    if (a == self) continue;  // our own copy never travels the network
    auto it = st.peers.find(a);
    if (it == st.peers.end() || it->second.cast_acked_epoch != st.epoch) {
      return 0;
    }
    m = std::min(m, it->second.cast_acked);
  }
  return m == UINT64_MAX ? st.cast_out_seq : m;
}

void Nak::send_cast_now(Group& g, State& st, Message msg) {
  std::uint64_t seq = ++st.cast_out_seq;
  st.cast_buf[{st.epoch, seq}] = CapturedMsg::capture(msg);
  if (st.cast_buf.size() > stack().config().nak_max_retain) {
    st.cast_buf.erase(st.cast_buf.begin());
  }
  // Ask for status once half the window is in flight, unless an earlier
  // ask is still unanswered.
  std::uint64_t kind = kData;
  if (st.asked_seq <= st.acked_floor &&
      seq >= st.acked_floor + stack().config().nak_window / 2) {
    kind = kAsk;
    st.asked_seq = seq;
  }
  std::uint64_t fields[] = {kind, 0, st.epoch, seq};
  stack().push_header(msg, *this, fields);
  DownEvent out;
  out.type = DownType::kCast;
  out.msg = std::move(msg);
  pass_down(g, out);
}

void Nak::drain_pending(Group& g, State& st) {
  std::uint64_t limit = min_cast_acked(g, st) + stack().config().nak_window;
  while (!st.pending.empty() && st.cast_out_seq < limit) {
    Message m = std::move(st.pending.front());
    st.pending.pop_front();
    send_cast_now(g, st, std::move(m));
  }
}

Nak::PeerState& Nak::peer(State& st, Group& g, const Address& a) {
  auto [it, inserted] = st.peers.try_emplace(a);
  if (inserted) it->second.last_heard = g.stack().now();
  return it->second;
}

void Nak::up(Group& g, UpEvent& ev) {
  State& st = state<State>(g);
  PoppedHeader h;
  try {
    h = stack().pop_header(ev.msg, *this);
  } catch (const DecodeError&) {
    return;  // malformed: drop
  }
  std::uint64_t kind = h.fields[0];
  std::uint64_t stream = h.fields[1];
  std::uint64_t epoch = h.fields[2];
  std::uint64_t seq = h.fields[3];
  PeerState& p = peer(st, g, ev.source);
  p.last_heard = stack().now();
  switch (kind) {
    case kData:
    case kAsk:
    case kPlaceholder:
      handle_data(g, st, ev, stream, epoch, seq, kind);
      return;
    case kNakReq:
      handle_nakreq(g, st, ev.source, ev.msg.reader());
      return;
    case kStatus:
      handle_status(g, st, ev.source, ev.msg.reader());
      return;
    default:
      return;  // unknown control: drop
  }
}

void Nak::handle_data(Group& g, State& st, UpEvent& ev, std::uint64_t stream,
                      std::uint64_t epoch, std::uint64_t seq, std::uint64_t kind) {
  const Address src = ev.source;
  PeerState& p = st.peers[src];
  StreamIn& in = stream == 0 ? p.cast_in[epoch] : p.send_in;
  if (stream == 0) p.latest_epoch = std::max(p.latest_epoch, epoch);
  in.known_max = std::max(in.known_max, seq);
  if (kind == kAsk) in.ask_seq = std::max(in.ask_seq, seq);
  if (seq > in.expected) {
    in.ooo.emplace(seq, kind == kPlaceholder
                            ? std::nullopt
                            : std::optional<Message>(std::move(ev.msg)));
    watch_gap(g, st, in);
    return;
  }
  if (seq == in.expected) {
    // In order: deliver, then drain the out-of-order buffer.
    ++in.expected;
    if (kind == kPlaceholder) {
      UpEvent lost;
      lost.type = UpType::kLostMessage;
      lost.source = src;
      lost.msg_id = seq;
      lost.lost_from = stream == 0 ? UpType::kCast : UpType::kSend;
      pass_up(g, lost);
    } else {
      ++st.delivered_count;
      ev.type = stream == 0 ? UpType::kCast : UpType::kSend;
      ev.msg_id = seq;
      pass_up(g, ev);
    }
    deliver_ready(g, st, src, stream == 0, epoch, in);
    watch_gap(g, st, in);
  }  // else a duplicate: delivered already
  // Answer an ask once the stream is delivered through it, so that the
  // status acks the asked cast even if it overtook earlier ones.
  if (in.ask_seq != 0 && in.ask_seq < in.expected) {
    in.ask_seq = 0;
    if (src != stack().address()) {
      send_control(g, src, kStatus, 0, st.epoch, 0, status_report(g, st));
    }
  }
}

void Nak::deliver_ready(Group& g, State& st, const Address& src, bool is_cast,
                        std::uint64_t epoch, StreamIn& in) {
  (void)epoch;
  while (true) {
    auto it = in.ooo.find(in.expected);
    if (it == in.ooo.end()) return;
    std::optional<Message> m = std::move(it->second);
    in.ooo.erase(it);
    std::uint64_t seq = in.expected++;
    UpEvent ev;
    ev.source = src;
    ev.msg_id = seq;
    if (!m.has_value()) {
      ev.type = UpType::kLostMessage;
      ev.lost_from = is_cast ? UpType::kCast : UpType::kSend;
    } else {
      ++st.delivered_count;
      ev.type = is_cast ? UpType::kCast : UpType::kSend;
      ev.msg = std::move(*m);
    }
    pass_up(g, ev);
  }
}

void Nak::send_control(Group& g, const Address& dst, std::uint64_t kind,
                       std::uint64_t stream, std::uint64_t epoch,
                       std::uint64_t seq, ByteSpan payload) {
  Message m = stack().tx_message(payload);
  std::uint64_t fields[] = {kind, stream, epoch, seq};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  out.dests = {dst};
  out.msg = std::move(m);
  pass_down(g, out);
}

void Nak::handle_nakreq(Group& g, State& st, const Address& src, Reader r) {
  try {
    std::uint64_t stream = r.u8();
    std::uint64_t epoch = r.varint();
    std::uint64_t from = r.varint();
    std::uint64_t to = r.varint();
    if (to - from > 1024) to = from + 1024;  // bound work per request
    for (std::uint64_t s = from; s <= to; ++s) {
      const CapturedMsg* cap = nullptr;
      if (stream == 0) {
        auto it = st.cast_buf.find({epoch, s});
        if (it != st.cast_buf.end()) cap = &it->second;
      } else {
        auto pit = st.peers.find(src);
        if (pit != st.peers.end()) {
          auto it = pit->second.send_buf.find(s);
          if (it != pit->second.send_buf.end()) cap = &it->second;
        }
      }
      if (cap != nullptr) {
        ++st.retransmissions;
        if (obs::enabled()) retransmitted_.add();
        Message m = cap->to_tx(stack());
        std::uint64_t fields[] = {kData, stream, epoch, s};
        stack().push_header(m, *this, fields);
        DownEvent out;
        out.type = DownType::kSend;
        out.dests = {src};
        out.msg = std::move(m);
        pass_down(g, out);
      } else {
        // No longer buffered: the receiver gets a LOST_MESSAGE placeholder.
        if (obs::enabled()) placeholders_sent_.add();
        HLOG_DEBUG("NAK") << stack().address().id << " placeholder for "
                         << src.id << " stream=" << stream << " epoch=" << epoch
                         << " seq=" << s << " (my epoch " << st.epoch
                         << " buf=" << st.cast_buf.size() << ")";
        send_control(g, src, kPlaceholder, stream, epoch, s, {});
      }
    }
  } catch (const DecodeError&) {
    // malformed request: ignore
  }
}

Bytes Nak::status_report(Group& g, State& st) {
  ensure_epoch(g, st);
  Writer w;
  w.varint(st.epoch);
  w.varint(st.cast_out_seq);
  // Multicast reception report: per sender, contiguous prefix received in
  // their latest epoch.
  Writer casts;
  std::uint64_t ncast = 0;
  for (const auto& [addr, p] : st.peers) {
    auto it = p.cast_in.find(p.latest_epoch);
    if (it == p.cast_in.end()) continue;
    casts.u64(addr.id);
    casts.varint(p.latest_epoch);
    casts.varint(it->second.expected - 1);
    ++ncast;
  }
  w.varint(ncast);
  w.raw(casts.data());
  // Unicast reception report.
  Writer unis;
  std::uint64_t nuni = 0;
  for (const auto& [addr, p] : st.peers) {
    if (p.send_in.expected <= 1 && p.send_in.ooo.empty()) continue;
    unis.u64(addr.id);
    unis.varint(p.send_in.expected - 1);
    ++nuni;
  }
  w.varint(nuni);
  w.raw(unis.data());
  // Unicast transmission report: how far my stream *to* each peer extends.
  // Without this, a receiver that loses the only message ever sent on a
  // unicast stream has no way to learn it existed, and a one-shot control
  // message (a VIEWINSTALL, say) stays lost forever.
  Writer outs;
  std::uint64_t nout = 0;
  for (const auto& [addr, p] : st.peers) {
    if (p.send_out_seq == 0) continue;
    outs.u64(addr.id);
    outs.varint(p.send_out_seq);
    ++nout;
  }
  w.varint(nout);
  w.raw(outs.data());
  return w.take();
}

void Nak::send_status(Group& g, State& st) {
  const Bytes report = status_report(g, st);
  Address self = stack().address();
  for (const Address& m : g.view().members()) {
    if (m == self) continue;
    send_control(g, m, kStatus, 0, st.epoch, 0, report);
  }

  // Failure detection: a member whose traffic (data or status) has not been
  // heard within fail_timeout is reported upward as a PROBLEM.
  sim::Time now = stack().now();
  sim::Duration timeout = stack().config().fail_timeout;
  // Collect suspects first, report after: a PROBLEM upcall can drive the
  // membership layer to install a new view synchronously, which would free
  // the member vector this loop iterates.
  std::vector<Address> suspects;
  for (const Address& m : g.view().members()) {
    if (m == self) continue;
    PeerState& p = peer(st, g, m);
    if (!p.suspected && now > p.last_heard && now - p.last_heard > timeout) {
      p.suspected = true;
      HLOG_DEBUG("NAK") << stack().address().id << " suspects " << m.id
                        << " at t=" << now << " (quiet "
                        << (now - p.last_heard) << "us)";
      suspects.push_back(m);
    }
  }
  for (const Address& m : suspects) {
    UpEvent ev;
    ev.type = UpType::kProblem;
    ev.source = m;
    pass_up(g, ev);
  }
}

void Nak::handle_status(Group& g, State& st, const Address& src, Reader r) {
  try {
    std::uint64_t epoch = r.varint();
    std::uint64_t own_seq = r.varint();
    PeerState& p = st.peers[src];
    p.latest_epoch = std::max(p.latest_epoch, epoch);
    if (own_seq > 0 && g.view().contains(src)) {
      StreamIn& in = p.cast_in[epoch];
      in.known_max = std::max(in.known_max, own_seq);
      watch_gap(g, st, in);
    }
    Address self = stack().address();
    std::uint64_t ncast = r.varint();
    for (std::uint64_t i = 0; i < ncast; ++i) {
      Address a{r.u64()};
      std::uint64_t e = r.varint();
      std::uint64_t c = r.varint();
      if (a == self && e == st.epoch) {
        if (e > p.cast_acked_epoch ||
            (e == p.cast_acked_epoch && c > p.cast_acked)) {
          p.cast_acked = c;
          p.cast_acked_epoch = e;
        }
      }
    }
    std::uint64_t nuni = r.varint();
    for (std::uint64_t i = 0; i < nuni; ++i) {
      Address a{r.u64()};
      std::uint64_t c = r.varint();
      if (a == self) {
        p.send_acked = std::max(p.send_acked, c);
        // GC the unicast retransmit buffer.
        while (!p.send_buf.empty() && p.send_buf.begin()->first <= p.send_acked) {
          p.send_buf.erase(p.send_buf.begin());
        }
      }
    }
    std::uint64_t nout = r.varint();
    for (std::uint64_t i = 0; i < nout; ++i) {
      Address a{r.u64()};
      std::uint64_t c = r.varint();
      if (a == self) {
        // The peer's unicast stream to me reaches c: gap repair will NAK
        // anything I have not received.
        p.send_in.known_max = std::max(p.send_in.known_max, c);
        watch_gap(g, st, p.send_in);
      }
    }
    // GC the current epoch's multicast retransmit buffer and release
    // flow-controlled casts. The previous epoch's buffer stays (ensure_epoch
    // retires it): a member still flushing that view may NAK it.
    std::uint64_t acked = min_cast_acked(g, st);
    st.acked_floor = acked;
    st.cast_buf.erase(st.cast_buf.lower_bound({st.epoch, 0}),
                      st.cast_buf.upper_bound({st.epoch, acked}));
    drain_pending(g, st);
  } catch (const DecodeError&) {
    // malformed status: ignore
  }
}

void Nak::watch_gap(Group& g, State& st, StreamIn& in) {
  // Nothing to do without a gap, or for a head already timed (expected
  // only grows, so a timed head is still this gap's head).
  if (in.known_max < in.expected || in.nak_head == in.expected) return;
  in.nak_head = in.expected;
  in.nak_due = stack().now() + stack().config().nak_resend_timeout / 10;
  arm_repair(g, st, in.nak_due);
}

void Nak::arm_repair(Group& g, State& st, sim::Time at) {
  if (st.repair_timer != 0 && st.repair_at <= at) return;
  stack().cancel(st.repair_timer);
  st.repair_at = at;
  st.repair_timer = stack().schedule(g.gid(), at - stack().now(),
                                     [this, &st](Group& gg) {
                                       st.repair_timer = 0;
                                       repair(gg, st);
                                     });
}

void Nak::repair(Group& g, State& st) {
  const sim::Time now = stack().now();
  sim::Time next = UINT64_MAX;
  auto visit = [&](const Address& src, std::uint64_t stream,
                   std::uint64_t epoch, StreamIn& in) {
    if (in.known_max < in.expected) return;
    if (in.nak_due <= now) {
      nak_stream(g, src, stream, epoch, in);
      in.nak_due = now + stack().config().nak_resend_timeout;
    }
    next = std::min(next, in.nak_due);
  };
  for (auto& [addr, p] : st.peers) {
    for (auto& [epoch, in] : p.cast_in) visit(addr, 0, epoch, in);
    visit(addr, 1, 0, p.send_in);
  }
  if (next != UINT64_MAX) arm_repair(g, st, next);
}

void Nak::nak_stream(Group& g, const Address& src, std::uint64_t stream,
                     std::uint64_t epoch, const StreamIn& in) {
  // Request the first contiguous missing range.
  std::uint64_t from = in.expected;
  std::uint64_t limit = std::min(in.known_max, from + 255);
  std::uint64_t to = from;
  while (to + 1 <= limit && !in.ooo.contains(to + 1)) ++to;
  Writer w;
  w.u8(static_cast<std::uint8_t>(stream));
  w.varint(epoch);
  w.varint(from);
  w.varint(to);
  if (obs::enabled()) requests_sent_.add();
  send_control(g, src, kNakReq, stream, epoch, 0, w.data());
}

void Nak::on_view(Group& g, State& st, const View& v) {
  ensure_epoch(g, st);
  for (auto& [addr, p] : st.peers) {
    p.suspected = false;
    if (v.contains(addr)) p.last_heard = stack().now();
    // Abandon inbound streams of earlier epochs entirely: the membership
    // layer's flush already accounted for every old-view message, so
    // chasing those gaps would only produce pointless NAKs and, once the
    // sender retires its old buffers, spurious LOST_MESSAGE placeholders.
    for (auto it = p.cast_in.begin(); it != p.cast_in.end();) {
      if (it->first < st.epoch) {
        it = p.cast_in.erase(it);
      } else {
        ++it;
      }
    }
  }
  drain_pending(g, st);
}

void Nak::rearm_status(Group& g, State& st) {
  st.status_timer = stack().schedule(
      g.gid(), stack().config().nak_status_interval, [this, &st](Group& gg) {
        send_status(gg, st);
        rearm_status(gg, st);
      });
}

void Nak::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "NAK: epoch=" + std::to_string(st.epoch) +
         " cast_out=" + std::to_string(st.cast_out_seq) +
         " buffered=" + std::to_string(st.cast_buf.size()) +
         " pending=" + std::to_string(st.pending.size()) +
         " asked=" + std::to_string(st.asked_seq) +
         " delivered=" + std::to_string(st.delivered_count) +
         " retrans=" + std::to_string(st.retransmissions) + "\n";
}

}  // namespace horus::layers
