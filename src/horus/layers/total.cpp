#include "horus/layers/total.hpp"

#include <algorithm>

#include "horus/util/log.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "TOTAL";
  li.fields = {{"kind", 3}, {"gseq", 32}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kFifoUnicast, Property::kVirtualSemiSync,
       Property::kVirtualSync, Property::kConsistentViews});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kTotalOrder});
  li.spec.cost = 4;
  li.up_emits = make_up_emits({UpType::kCast});
  return li;
}

}  // namespace

Total::Total() : info_(make_info()) {}

std::unique_ptr<LayerState> Total::make_state(Group&) {
  auto st = std::make_unique<State>();
  // Until the first view arrives we behave as a singleton holder.
  st->have_token = true;
  return st;
}

void Total::down(Group& g, DownEvent& ev) {
  switch (ev.type) {
    case DownType::kCast: {
      State& st = state<State>(g);
      st.pending.push_back(std::move(ev.msg));
      if (st.have_token) {
        drain_token(g, st);
      } else {
        request_token(g, st);
      }
      return;
    }
    case DownType::kSend: {
      std::uint64_t fields[] = {kPass, 0};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    default:
      pass_down(g, ev);
      return;
  }
}

void Total::take_token(Group& g, State& st, std::uint64_t idle) {
  st.have_token = true;
  st.idle_in = idle;
  st.stamped = false;
  if (!st.pending.empty()) {
    drain_token(g, st);
  } else if (!release_token(g, st) && !resting(g, st)) {
    schedule_idle_pass(g, st);
  }
}

void Total::drain_token(Group& g, State& st) {
  // Index, not pop-front: a burst of k casts stamps in O(k), in order.
  for (std::size_t i = 0; i < st.pending.size(); ++i) {
    Message m = std::move(st.pending[i]);
    HLOG_TRACE("TOTAL") << stack().address().id << " stamp gseq="
                        << st.next_stamp;
    std::uint64_t fields[] = {kOrdered, st.next_stamp++};
    stack().push_header(m, *this, fields);
    DownEvent out;
    out.type = DownType::kCast;
    out.msg = std::move(m);
    pass_down(g, out);
    st.stamped = true;
  }
  st.pending.clear();
  if (resting(g, st)) {
    release_token(g, st);
  } else {
    pass_on(g, st);
  }
}

bool Total::release_token(Group& g, State& st) {
  // Hand the token to the oldest requester still in the view. Without one
  // a resting token stays here (parked) and an idle one waits out its idle
  // delay. Before a full idle round the pass skips members in rank order,
  // so it restarts the round: a member that stamped on its last tenure
  // sent no request and counts on the token visiting it before it parks.
  while (!st.wanted.empty()) {
    Address to = st.wanted.front().member;
    if (g.view().contains(to)) {
      ++st.requests_served;
      pass_token(g, st, to, /*restart_round=*/!resting(g, st));
      return true;
    }
    st.wanted.erase(st.wanted.begin());
  }
  return false;
}

void Total::pass_on(Group& g, State& st) {
  auto my_rank = g.view().rank_of(stack().address());
  if (!my_rank.has_value() || g.view().size() <= 1) return;
  pass_token(g, st, g.view().member((*my_rank + 1) % g.view().size()));
}

void Total::pass_token(Group& g, State& st, Address to, bool restart_round) {
  stack().cancel(st.idle_timer);
  st.idle_timer = 0;
  st.have_token = false;
  ++st.tokens_passed;
  std::uint64_t idle = st.stamped || restart_round ? 0 : st.idle_in + 1;
  st.must_request = !st.stamped;
  std::erase_if(st.wanted, [&](const Want& x) { return x.member == to; });
  Writer w;
  w.varint(g.view().id().seq);
  w.varint(st.next_stamp);
  w.varint(idle);
  Message m = stack().tx_message(w.span());
  std::uint64_t fields[] = {kToken, 0};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  out.dests = {to};
  out.msg = std::move(m);
  pass_down(g, out);
}

void Total::request_token(Group& g, State& st) {
  // A member whose last pass followed a stamp needs no request: the token
  // must come back to it before it can park anywhere.
  if (!st.must_request || st.in_flush || g.view().size() <= 1) return;
  st.must_request = false;  // one request per tenure
  ++st.requests_sent;
  Writer w;
  w.varint(g.view().id().seq);
  w.varint(st.next_stamp);
  Message m = stack().tx_message(w.span());
  std::uint64_t fields[] = {kRequest, 0};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  for (const Address& a : g.view().members()) {
    if (a != stack().address()) out.dests.push_back(a);
  }
  out.msg = std::move(m);
  pass_down(g, out);
}

void Total::on_request(Group& g, State& st, const Address& from, Reader& r) {
  Want want{from, r.varint(), r.varint()};
  std::uint64_t vseq = g.view().id().seq;
  // A request for a view we have not installed yet is kept for it.
  if (want.vseq < vseq || (want.vseq == vseq && st.in_flush)) return;
  if (std::none_of(st.wanted.begin(), st.wanted.end(), [&](const Want& x) {
        return x.member == from && x.vseq == want.vseq;
      })) {
    st.wanted.push_back(want);
  }
  if (st.have_token) release_token(g, st);
}

void Total::schedule_idle_pass(Group& g, State& st) {
  if (st.idle_timer != 0 || g.view().size() <= 1) return;
  st.idle_timer = stack().schedule(
      g.gid(), stack().config().token_idle_delay, [this](Group& gg) {
        State& s2 = state<State>(gg);
        s2.idle_timer = 0;
        if (!s2.have_token) return;
        if (!s2.pending.empty()) {
          drain_token(gg, s2);
        } else {
          pass_on(gg, s2);
        }
      });
}

void Total::up(Group& g, UpEvent& ev) {
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
      std::uint64_t kind = h.fields[0];
      std::uint64_t gseq = h.fields[1];
      switch (kind) {
        case kOrdered: {
          // The sender held the token after asking for it: its request is
          // served.
          std::erase_if(st.wanted, [&](const Want& x) {
            return x.member == ev.source && gseq >= x.floor &&
                   x.vseq == g.view().id().seq;
          });
          bool fresh =
              st.ordered
                  .emplace(gseq,
                           Buffered{ev.source, ev.msg_id, std::move(ev.msg)})
                  .second;
          HLOG_TRACE("TOTAL")
              << stack().address().id << " recv gseq=" << gseq << " from "
              << ev.source.id << (fresh ? "" : " DUPLICATE-STAMP")
              << " next_deliver=" << st.next_deliver;
          deliver_in_order(g, st);
          return;
        }
        case kUnordered:
          HLOG_TRACE("TOTAL") << stack().address().id << " recv unordered from "
                              << ev.source.id;
          st.unordered.emplace_back(
              ev.source, Buffered{ev.source, ev.msg_id, std::move(ev.msg)});
          return;
        case kToken: {
          try {
            Reader r = ev.msg.reader();
            std::uint64_t vseq = r.varint();
            std::uint64_t stamp = r.varint();
            std::uint64_t idle = r.varint();
            if (vseq < g.view().id().seq) return;  // stale token: let it die
            if (vseq == g.view().id().seq && st.in_flush) {
              // This view already flushed: its token is dead. Claiming it
              // would stamp post-flush casts with gseqs the survivors can
              // never deliver after the install resets the sequence.
              HLOG_TRACE("TOTAL") << stack().address().id
                                  << " drop dead token vseq=" << vseq;
              return;
            }
            if (vseq > g.view().id().seq) {
              // Token for a view we have not installed yet (its first
              // holder installed before us): hold it, claim it at install.
              st.pending_token_view = vseq;
              st.pending_token_stamp = stamp;
              st.pending_token_idle = idle;
              return;
            }
            st.next_stamp = std::max(st.next_stamp, stamp);
            take_token(g, st, idle);
          } catch (const DecodeError&) {
          }
          return;
        }
        case kRequest:
          try {
            Reader r = ev.msg.reader();
            on_request(g, st, ev.source, r);
          } catch (const DecodeError&) {
          }
          return;
        case kPass:
        default:
          pass_up(g, ev);
          return;
      }
    }
    case UpType::kFlush: {
      // Cast everything that is still waiting for the token; MBRSHIP logs
      // these into the old view's message set. They are buffered at the
      // receivers and delivered in deterministic order at the view change.
      std::vector<Message> pend = std::move(st.pending);
      st.pending.clear();
      HLOG_TRACE("TOTAL") << stack().address().id << " flush: recast "
                          << pend.size() << " pending as unordered";
      for (Message& m : pend) {
        std::uint64_t fields[] = {kUnordered, 0};
        stack().push_header(m, *this, fields);
        DownEvent out;
        out.type = DownType::kCast;
        out.msg = std::move(m);
        pass_down(g, out);
      }
      st.have_token = false;  // the old token is dead either way
      st.in_flush = true;
      pass_up(g, ev);
      return;
    }
    case UpType::kView:
      on_view(g, st, ev);
      return;
    default:
      pass_up(g, ev);
      return;
  }
}

void Total::deliver_in_order(Group& g, State& st) {
  while (true) {
    auto it = st.ordered.find(st.next_deliver);
    if (it == st.ordered.end()) return;
    Buffered b = std::move(it->second);
    st.ordered.erase(it);
    ++st.next_deliver;
    ++st.delivered;
    UpEvent out;
    out.type = UpType::kCast;
    out.source = b.source;
    out.msg_id = b.msg_id;
    out.msg = std::move(b.msg);
    pass_up(g, out);
  }
}

void Total::on_view(Group& g, State& st, UpEvent& ev) {
  HLOG_TRACE("TOTAL") << stack().address().id << " view "
                      << ev.view.id().seq << ": deliver ordered="
                      << st.ordered.size() << " unordered="
                      << st.unordered.size() << " pending="
                      << st.pending.size();
  // 1. Remaining stamped messages: all survivors hold the same set (virtual
  //    synchrony), so delivering in gseq order -- skipping gaps, which are
  //    identical everywhere -- is deterministic.
  for (auto& [gseq, b] : st.ordered) {
    ++st.delivered;
    UpEvent out;
    out.type = UpType::kCast;
    out.source = b.source;
    out.msg_id = b.msg_id;
    out.msg = std::move(b.msg);
    pass_up(g, out);
  }
  st.ordered.clear();
  // 2. Flush-window (unordered) messages: "a deterministic order can easily
  //    be constructed (e.g., messages are delivered in the order of the
  //    rank of the source)". Stable-sort by source; per-source order is the
  //    FIFO arrival order, identical at every survivor.
  std::stable_sort(st.unordered.begin(), st.unordered.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [src, b] : st.unordered) {
    ++st.delivered;
    UpEvent out;
    out.type = UpType::kCast;
    out.source = b.source;
    out.msg_id = b.msg_id;
    out.msg = std::move(b.msg);
    pass_up(g, out);
  }
  st.unordered.clear();
  // 3. Reset: "another deterministic rule decides who the first token
  //    holder in this view is (e.g., the lowest ranked member)". It starts
  //    a fresh idle round, which visits every member before the token can
  //    park, so nobody needs to request it after an install.
  st.next_stamp = 1;
  st.next_deliver = 1;
  st.in_flush = false;
  st.must_request = false;
  std::erase_if(st.wanted,
                [&](const Want& x) { return x.vseq != ev.view.id().seq; });
  bool first = ev.view.rank_of(stack().address()) == 0u;
  std::uint64_t idle = 0;
  if (st.pending_token_view == ev.view.id().seq) {
    // The new view's token already reached us before the install did.
    first = true;
    st.next_stamp = std::max(st.next_stamp, st.pending_token_stamp);
    idle = st.pending_token_idle;
  }
  st.have_token = false;
  st.pending_token_view = 0;
  st.pending_token_stamp = 0;
  st.pending_token_idle = 0;
  stack().cancel(st.idle_timer);
  st.idle_timer = 0;
  pass_up(g, ev);
  if (first) take_token(g, st, idle);
}

void Total::export_state(Group& g, Writer& w) {
  State& st = state<State>(g);
  w.varint(st.ordered.size());
  for (auto& [gseq, b] : st.ordered) {
    w.varint(gseq);
    w.varint(b.source.id);
    w.varint(b.msg_id);
    CapturedMsg::capture(b.msg).encode(w);
  }
  w.varint(st.unordered.size());
  for (auto& [src, b] : st.unordered) {
    w.varint(src.id);
    w.varint(b.source.id);
    w.varint(b.msg_id);
    CapturedMsg::capture(b.msg).encode(w);
  }
  w.varint(st.pending.size());
  for (const Message& m : st.pending) CapturedMsg::capture(m).encode(w);
}

void Total::import_state(Group& g, Reader& r) {
  // The install-time kView upcall (from the membership layer, right after
  // this import) delivers ordered + unordered and re-seeds the token, so
  // no counters transfer: on_view resets them.
  constexpr std::uint64_t kSane = 100'000;
  State& st = state<State>(g);
  std::uint64_t n = r.varint();
  if (n > kSane) throw DecodeError("TOTAL state: ordered count");
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t gseq = r.varint();
    Buffered b;
    b.source = Address{r.varint()};
    b.msg_id = r.varint();
    b.msg = CapturedMsg::decode(r).to_rx();
    st.ordered.emplace(gseq, std::move(b));
  }
  n = r.varint();
  if (n > kSane) throw DecodeError("TOTAL state: unordered count");
  for (std::uint64_t i = 0; i < n; ++i) {
    Address key{r.varint()};
    Buffered b;
    b.source = Address{r.varint()};
    b.msg_id = r.varint();
    b.msg = CapturedMsg::decode(r).to_rx();
    st.unordered.emplace_back(key, std::move(b));
  }
  n = r.varint();
  if (n > kSane) throw DecodeError("TOTAL state: pending count");
  for (std::uint64_t i = 0; i < n; ++i) {
    st.pending.push_back(CapturedMsg::decode(r).to_tx(stack()));
  }
}

void Total::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "TOTAL: token=" + std::to_string(st.have_token) +
         " parked=" + std::to_string(st.have_token && resting(g, st)) +
         " next_stamp=" + std::to_string(st.next_stamp) +
         " next_deliver=" + std::to_string(st.next_deliver) +
         " pending=" + std::to_string(st.pending.size()) +
         " delivered=" + std::to_string(st.delivered) +
         " tokens_passed=" + std::to_string(st.tokens_passed) +
         " requests_sent=" + std::to_string(st.requests_sent) +
         " requests_served=" + std::to_string(st.requests_served) + "\n";
}

}  // namespace horus::layers
