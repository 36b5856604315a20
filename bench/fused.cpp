#include "fused.hpp"

#include <algorithm>

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "FUSED";
  li.fields = {{"kind", 2}, {"seq", 32}, {"last", 1}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kBestEffort, Property::kGarblingDetect, Property::kSourceAddress});
  li.spec.inherits = props::kAllProperties &
                     ~props::make_set({Property::kBestEffort, Property::kPrioritized});
  li.spec.provides = props::make_set(
      {Property::kFifoMulticast, Property::kLargeMessages});
  li.spec.cost = 4;
  li.up_emits = make_up_emits({UpType::kCast, UpType::kSend});
  return li;
}

constexpr std::size_t kLowerHeadroom = 96;

}  // namespace

Fused::Fused() : info_(make_info()) {}

std::unique_ptr<LayerState> Fused::make_state(Group& g) {
  auto st = std::make_unique<State>();
  State* raw = st.get();
  raw->timer = stack().schedule(g.gid(), stack().config().nak_resend_timeout,
                                [this, raw](Group& gg) {
                                  tick(gg, *raw);
                                  arm(gg, *raw);
                                });
  return st;
}

void Fused::arm(Group& g, State& st) {
  st.timer = stack().schedule(g.gid(), stack().config().nak_resend_timeout,
                              [this, &st](Group& gg) {
                                tick(gg, st);
                                arm(gg, st);
                              });
}

std::size_t Fused::threshold() const {
  std::size_t mtu = stack().config().mtu;
  return mtu > kLowerHeadroom * 2 ? mtu - kLowerHeadroom : mtu / 2;
}

void Fused::send_piece(Group& g, State& st, std::uint64_t seq, bool last,
                       ByteSpan piece, const Address* only_to) {
  Message m = stack().tx_message(piece);
  std::uint64_t fields[] = {kPiece, seq, last ? 1ULL : 0ULL};
  stack().push_header(m, *this, fields);
  DownEvent out;
  if (only_to != nullptr) {
    out.type = DownType::kSend;
    out.dests = {*only_to};
  } else {
    out.type = DownType::kCast;
  }
  out.msg = std::move(m);
  (void)st;
  pass_down(g, out);
}

void Fused::down(Group& g, DownEvent& ev) {
  State& st = state<State>(g);
  switch (ev.type) {
    case DownType::kCast: {
      // One pass: bundle, slice, sequence -- the fused fast path.
      Bytes bundle = bundle_of(ev.msg);
      std::size_t limit = threshold();
      for (std::size_t off = 0; off < bundle.size(); off += limit) {
        std::size_t len = std::min(limit, bundle.size() - off);
        bool last = off + len >= bundle.size();
        std::uint64_t seq = ++st.out_seq;
        st.buf[seq] = {last, Bytes(bundle.begin() + static_cast<std::ptrdiff_t>(off),
                                   bundle.begin() + static_cast<std::ptrdiff_t>(off + len))};
        if (st.buf.size() > stack().config().nak_max_retain) {
          st.buf.erase(st.buf.begin());
        }
        send_piece(g, st, seq, last, st.buf[seq].second, nullptr);
      }
      return;
    }
    case DownType::kSend: {
      std::uint64_t fields[] = {kPassSend, 0, 0};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
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

void Fused::accept_piece(Group& g, State& st, const Address& src, bool last,
                         const Message& msg) {
  PeerIn& in = st.in[src];
  Bytes piece = msg.payload_bytes();
  in.acc.insert(in.acc.end(), piece.begin(), piece.end());
  if (!last) return;
  Bytes whole = std::move(in.acc);
  in.acc = {};
  try {
    UpEvent out;
    out.msg = unbundle(std::move(whole));
    ++st.delivered;
    out.type = UpType::kCast;
    out.source = src;
    pass_up(g, out);
  } catch (const DecodeError&) {
  }
}

void Fused::up(Group& g, UpEvent& ev) {
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
  bool last = h.fields[2] != 0;
  switch (kind) {
    case kPassSend:
      ev.type = UpType::kSend;
      pass_up(g, ev);
      return;
    case kPiece: {
      PeerIn& in = st.in[ev.source];
      in.known_max = std::max(in.known_max, seq);
      if (seq < in.expected) return;
      if (seq > in.expected) {
        in.ooo.emplace(seq, std::make_pair(last, std::move(ev.msg)));
        return;
      }
      ++in.expected;
      accept_piece(g, st, ev.source, last, ev.msg);
      while (true) {
        auto it = in.ooo.find(in.expected);
        if (it == in.ooo.end()) break;
        auto [l, m] = std::move(it->second);
        in.ooo.erase(it);
        ++in.expected;
        accept_piece(g, st, ev.source, l, m);
      }
      return;
    }
    case kNakReq: {
      try {
        Reader r = ev.msg.reader();
        std::uint64_t from = r.varint();
        std::uint64_t to = r.varint();
        if (to - from > 1024) to = from + 1024;
        for (std::uint64_t s = from; s <= to; ++s) {
          auto it = st.buf.find(s);
          if (it == st.buf.end()) continue;  // FUSED keeps it simple: no placeholders
          send_piece(g, st, s, it->second.first, it->second.second, &ev.source);
        }
      } catch (const DecodeError&) {
      }
      return;
    }
    case kStatus: {
      try {
        Reader r = ev.msg.reader();
        std::uint64_t out_seq = r.varint();
        std::uint64_t acked = r.varint();
        PeerIn& in = st.in[ev.source];
        in.known_max = std::max(in.known_max, out_seq);
        std::uint64_t& a = st.acked[ev.source];
        a = std::max(a, acked);
        // GC: everything acknowledged by all view members.
        std::uint64_t floor = UINT64_MAX;
        for (const Address& m : g.view().members()) {
          if (m == stack().address()) continue;
          auto ait = st.acked.find(m);
          floor = std::min(floor, ait == st.acked.end() ? 0 : ait->second);
        }
        if (floor != UINT64_MAX) {
          while (!st.buf.empty() && st.buf.begin()->first <= floor) {
            st.buf.erase(st.buf.begin());
          }
        }
      } catch (const DecodeError&) {
      }
      return;
    }
    default:
      return;
  }
}

void Fused::tick(Group& g, State& st) {
  for (auto& [addr, in] : st.in) {
    if (in.known_max >= in.expected) {
      std::uint64_t from = in.expected;
      std::uint64_t to = std::min(in.known_max, from + 255);
      while (to > from && in.ooo.contains(to)) --to;
      Writer w;
      w.varint(from);
      w.varint(to);
      Message m = Message::from_payload(w.take());
      std::uint64_t fields[] = {kNakReq, 0, 0};
      stack().push_header(m, *this, fields);
      DownEvent out;
      out.type = DownType::kSend;
      out.dests = {addr};
      out.msg = std::move(m);
      pass_down(g, out);
    }
  }
  Address self = stack().address();
  for (const Address& member : g.view().members()) {
    if (member == self) continue;
    auto it = st.in.find(member);
    Writer w;
    w.varint(st.out_seq);
    w.varint(it == st.in.end() ? 0 : it->second.expected - 1);
    Message m = Message::from_payload(w.take());
    std::uint64_t fields[] = {kStatus, 0, 0};
    stack().push_header(m, *this, fields);
    DownEvent out;
    out.type = DownType::kSend;
    out.dests = {member};
    out.msg = std::move(m);
    pass_down(g, out);
  }
}

void Fused::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "FUSED: out_seq=" + std::to_string(st.out_seq) +
         " buffered=" + std::to_string(st.buf.size()) +
         " delivered=" + std::to_string(st.delivered) + "\n";
}

}  // namespace horus::layers
