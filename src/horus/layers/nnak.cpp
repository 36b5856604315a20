#include "horus/layers/nnak.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "NNAK";
  li.fields = {{"kind", 3}, {"seq", 32}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kBestEffort, Property::kGarblingDetect, Property::kSourceAddress});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kFifoUnicast});
  li.spec.cost = 2;
  li.up_emits = make_up_emits({UpType::kCast, UpType::kSend, UpType::kLostMessage});
  return li;
}

}  // namespace

Nnak::Nnak() : info_(make_info()) {}

std::unique_ptr<LayerState> Nnak::make_state(Group& g) {
  auto st = std::make_unique<State>();
  State* raw = st.get();
  raw->timer = stack().schedule(g.gid(), stack().config().nak_resend_timeout,
                                [this, raw](Group& gg) {
                                  tick(gg, *raw);
                                  arm(gg, *raw);
                                });
  return st;
}

void Nnak::arm(Group& g, State& st) {
  st.timer = stack().schedule(g.gid(), stack().config().nak_resend_timeout,
                              [this, &st](Group& gg) {
                                tick(gg, st);
                                arm(gg, st);
                              });
}

void Nnak::down(Group& g, DownEvent& ev) {
  State& st = state<State>(g);
  switch (ev.type) {
    case DownType::kCast: {
      std::uint64_t fields[] = {kPassCast, 0};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    case DownType::kSend: {
      for (const Address& dst : ev.dests) {
        PeerState& p = st.peers[dst];
        std::uint64_t seq = ++p.out_seq;
        Message copy = ev.msg;
        p.buf[seq] = CapturedMsg::capture(copy);
        if (p.buf.size() > stack().config().nak_max_retain) {
          p.buf.erase(p.buf.begin());
        }
        std::uint64_t fields[] = {kData, seq};
        stack().push_header(copy, *this, fields);
        DownEvent out;
        out.type = DownType::kSend;
        out.dests = {dst};
        out.msg = std::move(copy);
        pass_down(g, out);
      }
      return;
    }
    case DownType::kDestroy:
      stack().cancel(st.timer);
      pass_down(g, ev);
      return;
    default:
      pass_down(g, ev);
      return;
  }
}

void Nnak::send_control(Group& g, const Address& dst, std::uint64_t kind,
                        std::uint64_t seq, ByteSpan payload) {
  Message m = stack().tx_message(payload);
  std::uint64_t fields[] = {kind, seq};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  out.dests = {dst};
  out.msg = std::move(m);
  pass_down(g, out);
}

void Nnak::drain(Group& g, State& st, const Address& src, PeerState& p) {
  while (true) {
    auto it = p.ooo.find(p.expected);
    if (it == p.ooo.end()) return;
    std::optional<Message> m = std::move(it->second);
    p.ooo.erase(it);
    std::uint64_t seq = p.expected++;
    UpEvent ev;
    ev.source = src;
    ev.msg_id = seq;
    if (m.has_value()) {
      ++st.delivered;
      ev.type = UpType::kSend;
      ev.msg = std::move(*m);
    } else {
      ev.type = UpType::kLostMessage;
      ev.lost_from = UpType::kSend;
    }
    pass_up(g, ev);
  }
}

void Nnak::up(Group& g, UpEvent& ev) {
  State& st = state<State>(g);
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
  std::uint64_t seq = h.fields[1];
  if (kind == kPassCast) {
    ev.type = UpType::kCast;
    pass_up(g, ev);
    return;
  }
  PeerState& p = st.peers[ev.source];
  switch (kind) {
    case kData:
    case kPlaceholder: {
      p.known_max = std::max(p.known_max, seq);
      if (seq < p.expected) return;  // duplicate
      if (seq > p.expected) {
        p.ooo.emplace(seq, kind == kData ? std::optional<Message>(std::move(ev.msg))
                                         : std::nullopt);
        return;
      }
      ++p.expected;
      if (kind == kData) {
        ++st.delivered;
        ev.type = UpType::kSend;
        ev.msg_id = seq;
        pass_up(g, ev);
      } else {
        UpEvent lost;
        lost.type = UpType::kLostMessage;
        lost.source = ev.source;
        lost.msg_id = seq;
        lost.lost_from = UpType::kSend;
        pass_up(g, lost);
      }
      drain(g, st, ev.source, p);
      return;
    }
    case kNakReq: {
      try {
        Reader r = ev.msg.reader();
        std::uint64_t from = r.varint();
        std::uint64_t to = r.varint();
        if (to - from > 1024) to = from + 1024;
        for (std::uint64_t s = from; s <= to; ++s) {
          auto it = p.buf.find(s);
          if (it == p.buf.end()) {
            send_control(g, ev.source, kPlaceholder, s, {});
            continue;
          }
          ++st.retransmissions;
          Message m = it->second.to_tx(stack());
          std::uint64_t fields[] = {kData, s};
          stack().push_header(m, *this, fields);
          DownEvent out;
          out.type = DownType::kSend;
          out.dests = {ev.source};
          out.msg = std::move(m);
          pass_down(g, out);
        }
      } catch (const DecodeError&) {
      }
      return;
    }
    case kStatus: {
      try {
        Reader r = ev.msg.reader();
        std::uint64_t out_seq = r.varint();  // peer's stream position to me
        std::uint64_t acked = r.varint();    // peer's ack of my stream
        p.known_max = std::max(p.known_max, out_seq);
        while (!p.buf.empty() && p.buf.begin()->first <= acked) {
          p.buf.erase(p.buf.begin());
        }
      } catch (const DecodeError&) {
      }
      return;
    }
    default:
      return;
  }
}

void Nnak::tick(Group& g, State& st) {
  for (auto& [addr, p] : st.peers) {
    // Gap repair.
    if (p.known_max >= p.expected) {
      std::uint64_t from = p.expected;
      std::uint64_t to = std::min(p.known_max, from + 255);
      while (to > from && p.ooo.contains(to)) --to;
      Writer w;
      w.varint(from);
      w.varint(to);
      send_control(g, addr, kNakReq, 0, w.data());
    }
    // Status: tell the peer where my stream to it stands and what I have
    // received from it.
    if (p.out_seq > 0 || p.expected > 1) {
      Writer w;
      w.varint(p.out_seq);
      w.varint(p.expected - 1);
      send_control(g, addr, kStatus, 0, w.data());
    }
  }
}

void Nnak::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "NNAK: peers=" + std::to_string(st.peers.size()) +
         " delivered=" + std::to_string(st.delivered) +
         " retrans=" + std::to_string(st.retransmissions) + "\n";
}

}  // namespace horus::layers
