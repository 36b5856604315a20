#include "horus/layers/mbrship.hpp"

#include <algorithm>

#include "horus/core/endpoint.hpp"
#include "horus/util/log.hpp"

namespace horus::layers {
namespace {

using props::Property;

/// A member gossips its delivery vector after this many deliveries as well
/// as on the timer, so the unstable log holds a bounded number of casts
/// whatever the cast rate.
constexpr std::uint64_t kGossipEvery = 512;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "MBRSHIP";
  li.fields = {{"kind", 4}, {"view_seq", 32}, {"vseq", 32}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kFifoUnicast, Property::kFifoMulticast,
       Property::kGarblingDetect, Property::kSourceAddress,
       Property::kLargeMessages});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kVirtualSemiSync,
                                      Property::kVirtualSync,
                                      Property::kConsistentViews});
  li.spec.cost = 5;
  li.up_emits = make_up_emits({UpType::kView, UpType::kFlush, UpType::kFlushOk, UpType::kExit, UpType::kSystemError, UpType::kMergeDenied, UpType::kMergeRequest, UpType::kCast, UpType::kSend});
  // Live reconfiguration rides this layer's view-change flush: a switch is
  // a view install whose bundle also names the next epoch's stack spec.
  li.reconfig_coordinator = true;
  return li;
}

struct Entry {
  Address sender;
  std::uint64_t vseq;
  CapturedMsg content;
};

void encode_entries(Writer& w,
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

std::vector<Entry> decode_entries(Reader& r) {
  std::uint64_t n = r.varint();
  if (n > 1'000'000) throw DecodeError("too many entries");
  std::vector<Entry> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Entry e;
    e.sender = Address{r.u64()};
    e.vseq = r.varint();
    e.content = CapturedMsg::decode(r);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

Mbrship::Mbrship() : info_(make_info()) {}

std::unique_ptr<LayerState> Mbrship::make_state(Group&) {
  return std::make_unique<State>();
}

Address Mbrship::self() const { return stack().address(); }

Address Mbrship::coordinator(Group& g, const State& st) const {
  // "One of the members (usually the oldest surviving member of the oldest
  //  view) is elected as the coordinator of the flush" -- no messages needed.
  for (const Address& m : g.view().members()) {
    if (!st.failed.contains(m)) return m;
  }
  return self();
}

bool Mbrship::i_am_coordinator(Group& g, const State& st) const {
  return coordinator(g, st) == self();
}

// ---------------------------------------------------------------------------
// Downcalls
// ---------------------------------------------------------------------------

void Mbrship::down(Group& g, DownEvent& ev) {
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
      w.varint(g.view().id().seq);
      send_oob(g, kJoinReq, ev.contact, w.data());
      // Keep knocking until a view arrives.
      st.join_timer = stack().schedule(
          g.gid(), stack().config().flush_retry, [this](Group& gg) {
            State& s2 = state<State>(gg);
            if (s2.phase != Phase::kJoining) return;
            DownEvent retry;  // resend the request and re-arm
            retry.type = DownType::kJoin;
            retry.contact = s2.join_contact;
            down(gg, retry);
          });
      return;
    }
    case DownType::kCast:
      handle_cast_down(g, st, ev);
      return;
    case DownType::kSend: {
      std::uint64_t fields[] = {kOob, g.view().id().seq, 0};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    case DownType::kFlush: {
      // External failure detector: "an external service ... decides whether
      // a process is to be considered faulty" (Section 5).
      for (const Address& a : ev.dests) suspect(g, st, a);
      return;
    }
    case DownType::kLeave: {
      if (g.view().size() <= 1) {
        st.phase = Phase::kLeft;
        stack().cancel(st.gossip_timer);
        stack().cancel(st.watchdog_timer);
        UpEvent ex;
        ex.type = UpType::kExit;
        pass_up(g, ex);
        return;
      }
      Writer w;
      w.u64(self().id);
      if (i_am_coordinator(g, st)) {
        st.leaving.insert(self());
        start_flush(g, st);
      } else {
        send_oob(g, kLeaveReq, coordinator(g, st), w.data());
      }
      return;
    }
    case DownType::kMerge: {
      if (!ev.contact.valid() || st.phase != Phase::kNormal) return;
      Writer w;
      g.view().encode(w);
      send_oob(g, kMergeReq, ev.contact, w.data());
      return;
    }
    case DownType::kFlushOk: {
      if (!st.awaiting_app_flush_ok) return;
      st.awaiting_app_flush_ok = false;
      contribute_and_reply(g, st, st.flush_reply_to);
      return;
    }
    case DownType::kMergeGranted:
      if (st.merge_pending) grant_merge(g, st);
      return;
    case DownType::kMergeDenied: {
      if (!st.merge_pending) return;
      st.merge_pending = false;
      Writer w;
      w.str(ev.info.empty() ? "merge denied" : ev.info);
      send_oob(g, kMergeDeniedCtl, st.merge_their_view.oldest(), w.data());
      return;
    }
    case DownType::kDestroy:
      stack().cancel(st.gossip_timer);
      stack().cancel(st.watchdog_timer);
      stack().cancel(st.join_timer);
      st.phase = Phase::kLeft;
      pass_down(g, ev);
      return;
    case DownType::kView:
      // MBRSHIP owns view management; an external view downcall from above
      // is absorbed (membership-less stacks route it straight to NAK/COM).
      return;
    case DownType::kReconfig:
      // Live stack switch (the endpoint already vetted legality). The
      // coordinator carries it on a flush; everyone else asks the
      // coordinator.
      if (st.phase == Phase::kNormal && !st.superseded) {
        request_reconfig(g, st, ev.info, 0);
      }
      return;
    default:
      pass_down(g, ev);
      return;
  }
}

void Mbrship::handle_cast_down(Group& g, State& st, DownEvent& ev) {
  bool allowed = st.phase == Phase::kNormal && !st.blocked &&
                 (!st.flushing || st.in_flush_upcall);
  if (!allowed) {
    if (st.blocked) {
      UpEvent err;
      err.type = UpType::kSystemError;
      err.info = "group blocked: not in the primary partition";
      pass_up(g, err);
    }
    st.deferred_casts.push_back(std::move(ev.msg));
    return;
  }
  std::uint64_t vseq = ++st.my_vseq;
  st.log[self()][vseq] = CapturedMsg::capture(ev.msg);
  std::uint64_t fields[] = {kData, g.view().id().seq, vseq};
  stack().push_header(ev.msg, *this, fields);
  pass_down(g, ev);
}

// ---------------------------------------------------------------------------
// Upcalls
// ---------------------------------------------------------------------------

void Mbrship::up(Group& g, UpEvent& ev) {
  State& st = state<State>(g);
  if (ev.type == UpType::kProblem) {
    suspect(g, st, ev.source);
    return;  // consumed: converted into membership action
  }
  if (ev.type == UpType::kLostMessage) {
    // NAK gave up on a message (buffer retired). Any message that matters
    // is recovered by the next flush's unstable-message exchange, so this
    // is not a failure indication -- absorb it.
    HLOG_DEBUG("MBRSHIP") << "LOST_MESSAGE from " << ev.source.id
                          << " absorbed (flush recovers)";
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
  std::uint64_t vseq = h.fields[2];
  try {
    if (st.superseded) {
      // This epoch was switched away from. The shadow only drains data
      // stragglers (stale view seqs drop in handle_data) and re-points
      // old-spec peers at the reconfiguring install bundle.
      switch (kind) {
        case kData:
          handle_data(g, st, ev, view_seq, vseq);
          return;
        case kJoinReq: {
          Reader r = ev.msg.reader();
          Address joiner{r.u64()};
          answer_superseded(g, st, joiner, kind);
          return;
        }
        case kLeaveReq:
        case kMergeReq:
        case kFlushMsg:
        case kFlushReply:
        case kGossip:
        case kFailReport:
          answer_superseded(g, st, ev.source, kind);
          return;
        default:
          return;  // stale installs/resyncs for a dead epoch: ignore
      }
    }
    switch (kind) {
      case kData:
        handle_data(g, st, ev, view_seq, vseq);
        return;
      case kOob: {
        UpEvent out;
        out.type = UpType::kSend;
        out.source = ev.source;
        out.msg = std::move(ev.msg);
        out.msg_id = ev.msg_id;
        pass_up(g, out);
        return;
      }
      case kJoinReq:
        handle_join_req(g, st, ev.msg.reader());
        return;
      case kLeaveReq:
        handle_leave_req(g, st, ev.msg.reader());
        return;
      case kMergeReq:
        handle_merge_req(g, st, ev.source, ev.msg.reader());
        return;
      case kFlushMsg:
        handle_flush_msg(g, st, ev.source, view_seq, ev.msg.reader());
        return;
      case kFlushReply:
        handle_flush_reply(g, st, ev.source, ev.msg.reader());
        return;
      case kViewInstall:
      case kResync:
        handle_view_install(g, st, ev.source, ev.msg.reader().rest());
        return;
      case kGossip:
        handle_gossip(g, st, ev.source, ev.msg.reader());
        return;
      case kFailReport:
        handle_fail_report(g, st, ev.source, view_seq, ev.msg.reader());
        return;
      case kMergeDeniedCtl: {
        Reader r = ev.msg.reader();
        UpEvent out;
        out.type = UpType::kMergeDenied;
        out.source = ev.source;
        out.info = r.str();
        pass_up(g, out);
        return;
      }
      case kReconfigReq: {
        Reader r = ev.msg.reader();
        std::string spec = r.str();
        std::uint64_t floor = r.varint();
        if (st.phase != Phase::kNormal) return;
        if (!g.view().contains(ev.source)) return;
        // Re-check legality coordinator-side: the requester's required set
        // may differ from ours, and specs from the network are untrusted.
        if (!stack().endpoint().validate_reconfig(g, spec)) return;
        request_reconfig(g, st, spec, floor);
        return;
      }
      default:
        return;
    }
  } catch (const DecodeError&) {
    HLOG_WARN("MBRSHIP") << "malformed control message kind=" << kind;
  }
}

void Mbrship::handle_data(Group& g, State& st, UpEvent& ev,
                          std::uint64_t view_seq, std::uint64_t vseq) {
  if (st.phase == Phase::kLeft) return;
  std::uint64_t cur = g.view().id().seq;
  if (st.phase == Phase::kJoining || view_seq > cur) {
    // Cast in a view we have not installed yet: hold it.
    auto& vec = st.future[view_seq];
    if (vec.size() < 100'000) {
      vec.push_back(LogEntry{ev.source, vseq, CapturedMsg::capture(ev.msg)});
    }
    return;
  }
  if (view_seq < cur) return;  // the flush already accounted for it
  if (!g.view().contains(ev.source)) return;  // spurious sender
  if (st.flushing && st.replied && st.failed.contains(ev.source)) {
    // "Subsequently, the members ignore messages that they may receive
    //  from supposedly failed members" (Section 5).
    return;
  }
  deliver_data(g, st, ev.source, vseq, ev);
}

void Mbrship::deliver_data(Group& g, State& st, const Address& src,
                           std::uint64_t vseq, UpEvent& ev) {
  std::uint64_t& got = st.delivered[src];
  if (vseq <= got) return;  // duplicate (e.g. NAK copy after a flush bundle)
  if (vseq != got + 1) {
    HLOG_WARN("MBRSHIP") << "vseq gap from " << src.id << ": have " << got
                         << " got " << vseq;
    return;
  }
  got = vseq;
  st.log[src][vseq] = CapturedMsg::capture(ev.msg);
  if (++st.since_gossip >= kGossipEvery) gossip_news(g, st);
  UpEvent out;
  out.type = UpType::kCast;
  out.source = src;
  out.msg_id = vseq;
  out.msg = std::move(ev.msg);
  pass_up(g, out);
}

void Mbrship::handle_gossip(Group& g, State& st, const Address& src, Reader r) {
  st.reports[src] = decode_seq_map(r);
  prune_stable(g, st);
}

void Mbrship::prune_stable(Group& g, State& st) {
  // A message is (transport-)stable once every view member has delivered
  // it; then it can never be needed by a flush again.
  for (auto& [sender, entries] : st.log) {
    std::uint64_t floor = UINT64_MAX;
    for (const Address& m : g.view().members()) {
      std::uint64_t d;
      if (m == self()) {
        auto it = st.delivered.find(sender);
        d = it != st.delivered.end() ? it->second : 0;
      } else {
        auto rit = st.reports.find(m);
        if (rit == st.reports.end()) {
          d = 0;
        } else {
          auto sit = rit->second.find(sender);
          d = sit != rit->second.end() ? sit->second : 0;
        }
      }
      floor = std::min(floor, d);
    }
    if (floor == UINT64_MAX) continue;
    while (!entries.empty() && entries.begin()->first <= floor) {
      entries.erase(entries.begin());
    }
  }
}

void Mbrship::handle_join_req(Group& g, State& st, Reader r) {
  Address joiner{r.u64()};
  std::uint64_t joiner_seq = r.remaining() > 0 ? r.varint() : 0;
  // Only a member with a view of its own admits joiners. A group object
  // whose own join has not run yet holds a placeholder singleton view;
  // admitting from it would install a view its own bootstrap then
  // overwrites, orphaning the joiner. The joiner retries every flush_retry.
  if (st.phase != Phase::kNormal) return;
  st.view_seq_floor = std::max(st.view_seq_floor, joiner_seq);
  if (g.view().contains(joiner)) {
    // It missed the install; resync it.
    if (!st.last_install.empty()) send_oob(g, kResync, joiner, st.last_install);
    return;
  }
  if (st.flushing) {
    st.joiners.insert(joiner);
    return;
  }
  if (i_am_coordinator(g, st)) {
    st.joiners.insert(joiner);
    start_flush(g, st);
  } else {
    Writer w;
    w.u64(joiner.id);
    w.varint(joiner_seq);
    send_oob(g, kJoinReq, coordinator(g, st), w.data());
  }
}

void Mbrship::handle_leave_req(Group& g, State& st, Reader r) {
  Address leaver{r.u64()};
  if (!g.view().contains(leaver)) return;
  st.leaving.insert(leaver);
  if (i_am_coordinator(g, st) && !st.flushing) start_flush(g, st);
}

void Mbrship::handle_merge_req(Group& g, State& st, const Address& src, Reader r) {
  View theirs = View::decode(r);
  if (st.phase != Phase::kNormal) return;
  if (!i_am_coordinator(g, st)) {
    Writer w;
    theirs.encode(w);
    send_oob(g, kMergeReq, coordinator(g, st), w.data());
    return;
  }
  if (theirs.contains(self()) || theirs.id() == g.view().id()) return;
  if (st.flushing) return;  // settle first; the prober will retry
  UpEvent notice;
  notice.type = UpType::kMergeRequest;
  notice.source = src;
  notice.view = theirs;
  pass_up(g, notice);
  // Dominance decides which side absorbs the other. It must be a *stable*
  // total order -- view seqs move while merges are in flight, so comparing
  // them lets both sides briefly believe they dominate and install
  // competing views. The globally oldest member's side absorbs.
  bool dominant = g.view().oldest().id < theirs.oldest().id;
  if (!dominant) {
    Writer w;
    g.view().encode(w);
    send_oob(g, kMergeReq, theirs.oldest(), w.data());
    return;
  }
  if (stack().config().app_controls_merge) {
    st.merge_pending = true;
    st.merge_requester = src;
    st.merge_their_view = theirs;
    return;  // the MERGE_REQUEST upcall above asks the application
  }
  st.merge_their_view = theirs;
  grant_merge(g, st);
}

void Mbrship::grant_merge(Group& g, State& st) {
  st.merge_pending = false;
  for (const Address& m : st.merge_their_view.members()) {
    if (!g.view().contains(m)) st.joiners.insert(m);
  }
  st.view_seq_floor =
      std::max(st.view_seq_floor, st.merge_their_view.id().seq);
  start_flush(g, st);
}

// ---------------------------------------------------------------------------
// Suspicion and the flush protocol
// ---------------------------------------------------------------------------

void Mbrship::suspect(Group& g, State& st, const Address& who) {
  if (st.phase != Phase::kNormal) return;
  if (who == self() || !g.view().contains(who)) return;
  if (st.failed.contains(who)) return;
  st.failed.insert(who);
  HLOG_DEBUG("MBRSHIP") << self().id << " suspects " << who.id << " in view "
                        << g.view().to_string() << " t=" << stack().now();
  if (i_am_coordinator(g, st)) {
    // Either I was the coordinator already, or the coordinator itself is
    // now suspected and I am the oldest survivor: start (or restart) the
    // flush.
    start_flush(g, st);
  } else {
    // Feed the suspicion to the coordinator ("the output of this service
    // can be fed to all instances of the MBRSHIP layer"), and arm a
    // backstop in case the report or the flush stalls.
    report_failures(g, st);
    arm_watchdog(g, st);
  }
}

void Mbrship::report_failures(Group& g, State& st) {
  Writer w;
  encode_addresses(w, {st.failed.begin(), st.failed.end()});
  send_oob(g, kFailReport, coordinator(g, st), w.data());
}

void Mbrship::handle_fail_report(Group& g, State& st, const Address& src,
                                 std::uint64_t view_seq, Reader r) {
  auto failed = decode_addresses(r);
  if (st.phase != Phase::kNormal) return;
  // Suspicions are only meaningful within the view they were raised in; a
  // report that crossed a view change (e.g. one queued up during a
  // partition and delivered after the heal) must not poison the new view.
  if (view_seq != g.view().id().seq || !g.view().contains(src)) return;
  bool news = false;
  for (const Address& a : failed) {
    if (a == self() || !g.view().contains(a) || st.failed.contains(a)) continue;
    st.failed.insert(a);
    news = true;
  }
  if (!news) return;
  if (i_am_coordinator(g, st)) {
    start_flush(g, st);
  } else {
    report_failures(g, st);  // forward to whoever coordinates now
    arm_watchdog(g, st);
  }
}

void Mbrship::start_flush(Group& g, State& st) {
  st.attempt += 1;
  st.flushing = true;
  st.replied = false;
  st.reply_waiting.clear();
  st.reply_delivered.clear();
  st.collected.clear();
  emit_flush_upcall(g, st);
  Writer w;
  w.varint(st.attempt);
  encode_addresses(w, {st.failed.begin(), st.failed.end()});
  encode_addresses(w, {st.joiners.begin(), st.joiners.end()});
  encode_addresses(w, {st.leaving.begin(), st.leaving.end()});
  for (const Address& m : g.view().members()) {
    if (m == self() || st.failed.contains(m)) continue;
    st.reply_waiting.insert(m);
    send_oob(g, kFlushMsg, m, w.data());
    ++st.flush_msgs;
  }
  arm_watchdog(g, st);
  if (stack().config().app_controls_flush) {
    // Table 1's flush_ok: the application must "go along with" the flush
    // before we contribute our reply.
    st.awaiting_app_flush_ok = true;
    st.flush_reply_to = self();
  } else {
    contribute_and_reply(g, st, self());
  }
}

void Mbrship::contribute_and_reply(Group& g, State& st, const Address& to) {
  if (to == self()) {
    // The coordinator contributes its own reply without messages.
    st.reply_delivered[self()] = st.delivered;
    for (const auto& [sender, entries] : st.log) {
      for (const auto& [vseq, cap] : entries) {
        st.collected[sender].emplace(vseq, cap);
      }
    }
    st.replied = true;
    maybe_install(g, st);
  } else {
    send_flush_reply(g, st, to);
  }
}

void Mbrship::emit_flush_upcall(Group& g, State& st) {
  // Layers above respond synchronously: e.g. TOTAL casts its not-yet-
  // ordered messages now, so they are logged into the old view's message
  // set before our reply is built.
  st.in_flush_upcall = true;
  UpEvent ev;
  ev.type = UpType::kFlush;
  ev.failed.assign(st.failed.begin(), st.failed.end());
  pass_up(g, ev);
  st.in_flush_upcall = false;
}

void Mbrship::handle_flush_msg(Group& g, State& st, const Address& src,
                               std::uint64_t view_seq, Reader r) {
  std::uint64_t attempt = r.varint();
  auto failed = decode_addresses(r);
  auto joiners = decode_addresses(r);
  auto leaving = decode_addresses(r);
  if (st.phase != Phase::kNormal) return;
  if (view_seq != g.view().id().seq || !g.view().contains(src)) {
    // A flush for a view we are not in. If we have moved on, help the
    // laggard coordinator resync to our view.
    if (view_seq < g.view().id().seq && !st.last_install.empty()) {
      send_oob(g, kResync, src, st.last_install);
    }
    return;
  }
  if (attempt < st.attempt) {
    // The flusher is behind us; if we already moved to a newer view, help
    // it resync.
    if (!st.last_install.empty()) send_oob(g, kResync, src, st.last_install);
    return;
  }
  st.attempt = attempt;
  st.flushing = true;
  for (const Address& a : failed) st.failed.insert(a);
  for (const Address& a : joiners) st.joiners.insert(a);
  for (const Address& a : leaving) st.leaving.insert(a);
  emit_flush_upcall(g, st);
  if (stack().config().app_controls_flush) {
    st.awaiting_app_flush_ok = true;
    st.flush_reply_to = src;
  } else {
    send_flush_reply(g, st, src);
  }
  arm_watchdog(g, st);
}

void Mbrship::send_flush_reply(Group& g, State& st, const Address& to) {
  // "All members first return any messages from failed members that are
  //  not known to have been delivered everywhere ... Finally, each member
  //  returns a FLUSH_OK reply message." We bundle the unstable messages and
  //  the FLUSH_OK into one reply.
  Writer w;
  w.varint(st.attempt);
  encode_seq_map(w, st.delivered);
  encode_entries(w, st.log);
  send_oob(g, kFlushReply, to, w.data());
  st.replied = true;
  ++st.flush_msgs;
}

void Mbrship::handle_flush_reply(Group& g, State& st, const Address& src, Reader r) {
  std::uint64_t attempt = r.varint();
  auto delivered = decode_seq_map(r);
  auto entries = decode_entries(r);
  if (!st.flushing || attempt != st.attempt) return;
  st.reply_delivered[src] = std::move(delivered);
  for (auto& e : entries) {
    st.collected[e.sender].emplace(e.vseq, std::move(e.content));
  }
  st.reply_waiting.erase(src);
  maybe_install(g, st);
}

void Mbrship::maybe_install(Group& g, State& st) {
  if (!st.flushing || !i_am_coordinator(g, st)) return;
  // The coordinator's own contribution counts too -- and may be gated on
  // the application's flush_ok.
  if (st.awaiting_app_flush_ok || !st.replied) return;
  // Drop replies we will never get.
  for (auto it = st.reply_waiting.begin(); it != st.reply_waiting.end();) {
    if (st.failed.contains(*it)) {
      it = st.reply_waiting.erase(it);
    } else {
      ++it;
    }
  }
  if (!st.reply_waiting.empty()) return;
  install_view(g, st);
}

void Mbrship::install_view(Group& g, State& st) {
  const View& old = g.view();
  std::vector<Address> failed_or_leaving(st.failed.begin(), st.failed.end());
  failed_or_leaving.insert(failed_or_leaving.end(), st.leaving.begin(),
                           st.leaving.end());
  std::vector<Address> joiners;
  for (const Address& j : st.joiners) {
    if (!st.failed.contains(j)) joiners.push_back(j);
  }
  View nv = old.successor(failed_or_leaving, joiners, self());
  if (nv.id().seq <= st.view_seq_floor) {
    nv = View(ViewId{st.view_seq_floor + 1, self()}, nv.members());
  }

  // Primary-partition policy (Section 9's Isis-style progress restriction):
  // a view is primary iff it contains a majority of the last primary view
  // -- the classic dynamic-quorum rule. Merging fragments that jointly
  // reassemble a majority of the old primary unblock together.
  bool blocked = false;
  if (stack().config().partition_policy == PartitionPolicy::kPrimaryPartition) {
    const View& basis = st.blocked && !st.last_primary.empty()
                            ? st.last_primary
                            : old;
    std::size_t surviving = 0;
    for (const Address& m : basis.members()) {
      if (nv.contains(m)) ++surviving;
    }
    blocked = surviving * 2 <= basis.size();
  }

  Writer w;
  w.varint(old.id().seq);
  w.u64(old.id().coordinator.id);
  w.u8(blocked ? 1 : 0);
  nv.encode(w);
  encode_entries(w, st.collected);
  // Reconfiguration tail: if this flush carries a live stack switch, the
  // bundle also names the next epoch's spec and number. Old decoders never
  // read past the entries, so the tail is backward-compatible.
  bool reconfig = !st.pending_spec.empty();
  w.u8(reconfig ? 1 : 0);
  if (reconfig) {
    w.str(st.pending_spec);
    w.varint(std::max<std::uint64_t>(g.epoch_number() + 1,
                                     st.pending_epoch_floor));
  }
  Bytes bundle = w.take();

  std::set<Address> dests(nv.members().begin(), nv.members().end());
  for (const Address& l : st.leaving) dests.insert(l);
  // Best-effort notification to the excluded members too: a suspected
  // member "may still be alive" (Section 5) and deserves to learn it was
  // dropped (it gets an EXIT upcall and can rejoin or merge later).
  for (const Address& f : st.failed) dests.insert(f);
  for (const Address& d : dests) {
    if (d == self()) continue;
    send_oob(g, kViewInstall, d, bundle);
  }
  ++st.flushes_completed;
  handle_view_install(g, st, self(), bundle);
}

void Mbrship::handle_view_install(Group& g, State& st, const Address& src,
                                  ByteSpan bundle) {
  Reader r(bundle);
  ViewId old_id;
  old_id.seq = r.varint();
  old_id.coordinator = Address{r.u64()};
  bool blocked = r.u8() != 0;
  View nv = View::decode(r);
  auto entries = decode_entries(r);
  // Reconfiguration tail (absent in pre-switch bundles).
  bool reconfig = r.remaining() > 0 && r.u8() != 0;
  std::string rspec;
  std::uint64_t repoch = 0;
  if (reconfig) {
    rspec = r.str();
    repoch = r.varint();
  }
  bool switching = reconfig && repoch > g.epoch_number();
  if (nv.id().seq <= g.view().id().seq && st.phase != Phase::kJoining) {
    // Non-monotonic install: typically a merge where the absorbing side's
    // view seq lags ours (both partitions flushed independently). We cannot
    // adopt it, but we can tell the installer where we stand so its retry
    // uses a higher floor.
    if (src != self() && nv.contains(self()) && nv.id() != g.view().id() &&
        st.phase == Phase::kNormal) {
      Writer w;
      g.view().encode(w);
      send_oob(g, kMergeReq, src, w.data());
    }
    return;
  }

  if (switching && st.phase == Phase::kJoining) {
    // The group switched stacks while we were knocking. Adopt the new
    // (spec, epoch) locally, then re-run this install in the new epoch's
    // membership layer -- or re-knock there if this view predates us.
    stack().cancel(st.join_timer);
    st.join_timer = 0;
    Address contact = st.join_contact.valid() ? st.join_contact : src;
    if (!stack().endpoint().adopt_epoch_for_join(
            g, rspec, static_cast<std::uint32_t>(repoch))) {
      return;  // cannot build the new spec here
    }
    Layer* found = g.stack().find_layer("MBRSHIP");
    auto* nm = found != nullptr ? dynamic_cast<Mbrship*>(found->innermost())
                                : nullptr;
    if (nm == nullptr) return;  // new spec is membership-less: nothing to do
    State& ns = nm->state<State>(g);
    ns.join_contact = contact;
    if (nv.contains(self())) {
      nm->handle_view_install(g, ns, src, bundle);
    } else {
      DownEvent knock;
      knock.type = DownType::kJoin;
      knock.contact = contact;
      nm->down(g, knock);
    }
    return;
  }

  bool was_in_old =
      st.phase == Phase::kNormal && old_id == g.view().id();
  if (was_in_old) {
    // Deliver every old-view message we are missing, in a deterministic
    // order (sender rank, then sequence), before the new view takes effect.
    std::sort(entries.begin(), entries.end(), [&](const Entry& a, const Entry& b) {
      auto ra = g.view().rank_of(a.sender).value_or(SIZE_MAX);
      auto rb = g.view().rank_of(b.sender).value_or(SIZE_MAX);
      if (ra != rb) return ra < rb;
      return a.vseq < b.vseq;
    });
    for (Entry& e : entries) {
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

  if (!nv.contains(self())) {
    if (!was_in_old) {
      // An install from a foreign lineage (another partition's view chain)
      // that does not include us is not our exclusion -- it is just news
      // that the other side exists.
      if (switching && st.phase == Phase::kNormal) {
        // The other side already switched stacks. Converge: switch our own
        // partition to the same spec (aiming at the same epoch number, so
        // the stamps line up), then the usual merge machinery heals the
        // partition inside the new epoch.
        if (stack().endpoint().validate_reconfig(g, rspec)) {
          request_reconfig(g, st, rspec, repoch);
        }
        return;
      }
      // Propose a merge toward the installer instead of abandoning our own
      // group.
      if (st.phase == Phase::kNormal && src != self() && !st.flushing) {
        Writer w;
        g.view().encode(w);
        send_oob(g, kMergeReq, src, w.data());
      }
      return;
    }
    // We were excluded (left voluntarily, or dropped as suspected-faulty
    // even though we may be alive -- virtual synchrony is a fail-stop
    // simulation, Section 5).
    st.phase = Phase::kLeft;
    stack().cancel(st.gossip_timer);
    stack().cancel(st.watchdog_timer);
    UpEvent ex;
    ex.type = UpType::kExit;
    pass_up(g, ex);
    return;
  }

  if (switching) {
    // The flush drained the old epoch: every survivor delivered the same
    // old-view message set (just replayed above). Hand the group over to
    // the new stack; this state becomes a draining shadow. State that must
    // survive (deferred casts, the install bundle) crosses via
    // export_state/import_state during complete_reconfig.
    bool flush_done = st.flushing;
    st.flushing = false;
    st.replied = false;
    st.attempt = 0;
    st.failed.clear();
    st.leaving.clear();
    st.joiners.clear();
    st.reply_waiting.clear();
    st.reply_delivered.clear();
    st.collected.clear();
    st.awaiting_app_flush_ok = false;
    st.merge_pending = false;
    st.pending_spec.clear();
    st.pending_epoch_floor = 0;
    st.superseded = true;
    st.last_install.assign(bundle.begin(), bundle.end());
    stack().cancel(st.gossip_timer);
    st.gossip_timer = 0;
    stack().cancel(st.watchdog_timer);
    st.watchdog_timer = 0;
    stack().cancel(st.join_timer);
    st.join_timer = 0;
    ReconfigInstall inst;
    inst.view = nv;
    inst.epoch = static_cast<std::uint32_t>(repoch);
    inst.coordinated = true;
    inst.completed_flush = flush_done;
    inst.blocked = blocked;
    stack().endpoint().complete_reconfig(g, rspec, inst.epoch, inst);
    return;
  }

  bool completed_flush = st.flushing;
  g.set_view(nv);
  st.phase = Phase::kNormal;
  st.my_vseq = 0;
  st.delivered.clear();
  for (const Address& m : nv.members()) st.delivered[m] = 0;
  st.gossiped.clear();
  st.log.clear();
  st.reports.clear();
  st.flushing = false;
  st.replied = false;
  st.attempt = 0;
  st.failed.clear();
  st.leaving.clear();
  st.joiners.clear();
  st.reply_waiting.clear();
  st.reply_delivered.clear();
  st.collected.clear();
  st.awaiting_app_flush_ok = false;
  st.merge_pending = false;
  st.view_seq_floor = 0;
  st.blocked = blocked;
  if (!blocked) st.last_primary = nv;
  st.last_install.assign(bundle.begin(), bundle.end());
  stack().cancel(st.watchdog_timer);
  st.watchdog_timer = 0;
  stack().cancel(st.join_timer);
  st.join_timer = 0;

  // Tell the layers below (NAK prunes per-peer state and rolls its epoch).
  DownEvent dv;
  dv.type = DownType::kView;
  dv.view = nv;
  pass_down(g, dv);

  UpEvent uv;
  uv.type = UpType::kView;
  uv.view = nv;
  pass_up(g, uv);
  if (completed_flush) {
    UpEvent done;
    done.type = UpType::kFlushOk;  // Table 2: "flush completed"
    pass_up(g, done);
  }

  arm_gossip(g, st);

  // Casts that raced into views we have now installed.
  auto fit = st.future.find(nv.id().seq);
  if (fit != st.future.end()) {
    std::vector<LogEntry> pend = std::move(fit->second);
    st.future.erase(fit);
    for (LogEntry& e : pend) {
      if (!g.view().contains(e.sender)) continue;
      UpEvent ev;
      ev.source = e.sender;
      ev.msg = e.content.to_rx();
      deliver_data(g, st, e.sender, e.vseq, ev);
    }
  }
  for (auto it = st.future.begin(); it != st.future.end();) {
    if (it->first <= nv.id().seq) {
      it = st.future.erase(it);
    } else {
      ++it;
    }
  }

  // Application casts deferred during the flush go out in the new view.
  if (!st.blocked) {
    std::vector<Message> deferred = std::move(st.deferred_casts);
    st.deferred_casts.clear();
    for (Message& m : deferred) {
      DownEvent ev;
      ev.type = DownType::kCast;
      ev.msg = std::move(m);
      handle_cast_down(g, st, ev);
    }
  }
}

void Mbrship::bootstrap(Group& g, State& st) {
  // Never replace a live view that already has other members in it.
  if (st.phase == Phase::kNormal && g.view().size() > 1) return;
  View nv(ViewId{1, self()}, {self()});
  g.set_view(nv);
  st.phase = Phase::kNormal;
  st.my_vseq = 0;
  st.delivered.clear();
  st.delivered[self()] = 0;
  st.gossiped.clear();
  DownEvent dv;
  dv.type = DownType::kView;
  dv.view = nv;
  pass_down(g, dv);
  UpEvent uv;
  uv.type = UpType::kView;
  uv.view = nv;
  pass_up(g, uv);
  arm_gossip(g, st);
}

void Mbrship::send_oob(Group& g, std::uint64_t kind, const Address& dst,
                       ByteSpan payload) {
  Message m = stack().tx_message(payload);
  std::uint64_t fields[] = {kind, g.view().id().seq, 0};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  out.dests = {dst};
  out.msg = std::move(m);
  pass_down(g, out);
}

void Mbrship::arm_watchdog(Group& g, State& st) {
  if (st.watchdog_timer != 0) return;
  // A pure retry backstop: it never demotes the coordinator by itself --
  // demotion happens only when NAK (or the external failure detector)
  // actually suspects the coordinator, which feeds suspect(). This keeps
  // false suspicions from splitting the group.
  st.watchdog_timer = stack().schedule(
      g.gid(), stack().config().flush_retry * 4, [this](Group& gg) {
        State& s2 = state<State>(gg);
        s2.watchdog_timer = 0;
        if (s2.phase != Phase::kNormal) return;
        if (!s2.flushing && s2.failed.empty()) return;
        if (i_am_coordinator(gg, s2)) {
          start_flush(gg, s2);  // re-solicit stragglers under a new attempt
        } else {
          report_failures(gg, s2);
          arm_watchdog(gg, s2);
        }
      });
}

void Mbrship::arm_gossip(Group& g, State& st) {
  stack().cancel(st.gossip_timer);
  st.gossip_timer = stack().schedule(
      g.gid(), stack().config().stability_gossip_interval, [this](Group& gg) {
        State& s2 = state<State>(gg);
        gossip_news(gg, s2);
        arm_gossip(gg, s2);
      });
}

void Mbrship::gossip_news(Group& g, State& st) {
  if (st.phase == Phase::kNormal && g.view().size() > 1 && !st.flushing &&
      st.delivered != st.gossiped) {
    send_gossip(g, st);
    st.gossiped = st.delivered;
    st.since_gossip = 0;
  }
}

void Mbrship::send_gossip(Group& g, State& st) {
  Writer w;
  encode_seq_map(w, st.delivered);
  Message m = stack().tx_message(w.span());
  std::uint64_t fields[] = {kGossip, g.view().id().seq, 0};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kCast;
  out.msg = std::move(m);
  pass_down(g, out);
}

// ---------------------------------------------------------------------------
// Live reconfiguration
// ---------------------------------------------------------------------------

void Mbrship::request_reconfig(Group& g, State& st, const std::string& spec,
                               std::uint64_t epoch_floor) {
  if (st.phase != Phase::kNormal || st.superseded) return;
  if (i_am_coordinator(g, st)) {
    st.pending_spec = spec;
    st.pending_epoch_floor = std::max(st.pending_epoch_floor, epoch_floor);
    // The switch rides a flush: a running one (its install picks up the
    // pending spec when it builds the bundle) or a fresh barrier flush.
    if (!st.flushing) start_flush(g, st);
    return;
  }
  Writer w;
  w.str(spec);
  w.varint(epoch_floor);
  send_oob(g, kReconfigReq, coordinator(g, st), w.data());
}

void Mbrship::answer_superseded(Group& g, State& st, const Address& src,
                                std::uint64_t kind) {
  (void)kind;
  // A peer still speaking this retired epoch wants protocol progress (a
  // join, merge, flush or gossip). The stored install bundle carries the
  // reconfiguration tail, so resyncing them also tells them to switch.
  if (src == self() || !src.valid()) return;
  if (!st.last_install.empty()) send_oob(g, kResync, src, st.last_install);
}

void Mbrship::export_state(Group& g, Writer& w) {
  State& st = state<State>(g);
  w.varint(st.deferred_casts.size());
  for (const Message& m : st.deferred_casts) CapturedMsg::capture(m).encode(w);
  w.bytes(st.last_install);
  w.boolean(st.blocked);
  st.last_primary.encode(w);
}

void Mbrship::import_state(Group& g, Reader& r) {
  State& st = state<State>(g);
  std::uint64_t n = r.varint();
  if (n > 100'000) throw DecodeError("too many deferred casts");
  st.deferred_casts.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    CapturedMsg c = CapturedMsg::decode(r);
    st.deferred_casts.push_back(c.to_tx(stack()));
  }
  st.last_install = r.bytes();
  st.blocked = r.boolean();
  st.last_primary = View::decode(r);
}

void Mbrship::on_reconfig_install(Group& g, const ReconfigInstall& inst) {
  State& st = state<State>(g);
  st.phase = Phase::kNormal;
  st.my_vseq = 0;
  st.delivered.clear();
  for (const Address& m : inst.view.members()) st.delivered[m] = 0;
  st.gossiped.clear();
  st.blocked = inst.blocked;
  if (!st.blocked) st.last_primary = inst.view;
  // st.last_install was imported from the old epoch: it is the very bundle
  // that announced this switch, so resyncs answered from here re-point
  // laggards at this epoch too.

  // Tell the fresh layers below (NAK seeds per-peer state for the view).
  DownEvent dv;
  dv.type = DownType::kView;
  dv.view = inst.view;
  pass_down(g, dv);

  UpEvent uv;
  uv.type = UpType::kView;
  uv.view = inst.view;
  pass_up(g, uv);
  if (inst.completed_flush) {
    UpEvent done;
    done.type = UpType::kFlushOk;
    pass_up(g, done);
  }
  arm_gossip(g, st);

  // App casts deferred during the switch go out in the new epoch.
  if (!st.blocked) {
    std::vector<Message> deferred = std::move(st.deferred_casts);
    st.deferred_casts.clear();
    for (Message& m : deferred) {
      DownEvent ev;
      ev.type = DownType::kCast;
      ev.msg = std::move(m);
      handle_cast_down(g, st, ev);
    }
  }
}

void Mbrship::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  const char* phase = st.phase == Phase::kNormal
                          ? "normal"
                          : (st.phase == Phase::kJoining ? "joining" : "left");
  std::size_t log_entries = 0;
  for (const auto& [sender, entries] : st.log) log_entries += entries.size();
  out += "MBRSHIP: phase=" + std::string(phase) +
         " view=" + g.view().to_string() +
         " my_vseq=" + std::to_string(st.my_vseq) +
         " log=" + std::to_string(log_entries) +
         " flushing=" + std::to_string(st.flushing) +
         " blocked=" + std::to_string(st.blocked) +
         " superseded=" + std::to_string(st.superseded) +
         " flushes=" + std::to_string(st.flushes_completed) + "\n";
}

}  // namespace horus::layers
