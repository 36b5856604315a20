#include "horus/layers/pinwheel.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "PINWHEEL";
  li.fields = {{"kind", 1}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kFifoUnicast, Property::kVirtualSemiSync,
       Property::kVirtualSync, Property::kGarblingDetect,
       Property::kConsistentViews});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kStabilityInfo});
  li.spec.cost = 2;
  li.up_emits = make_up_emits({UpType::kStable});
  return li;
}

void encode_rows(Writer& w,
                 const std::map<Address, std::map<Address, std::uint64_t>>& rows) {
  w.varint(rows.size());
  for (const auto& [reporter, row] : rows) {
    w.u64(reporter.id);
    encode_seq_map(w, row);
  }
}

std::map<Address, std::map<Address, std::uint64_t>> decode_rows(Reader& r) {
  std::uint64_t n = r.varint();
  if (n > 100'000) throw DecodeError("too many matrix rows");
  std::map<Address, std::map<Address, std::uint64_t>> rows;
  for (std::uint64_t i = 0; i < n; ++i) {
    Address a{r.u64()};
    rows[a] = decode_seq_map(r);
  }
  return rows;
}

}  // namespace

Pinwheel::Pinwheel() : info_(make_info()) {}

std::unique_ptr<LayerState> Pinwheel::make_state(Group& g) {
  auto st = std::make_unique<State>();
  arm_watchdog(g, *st);
  return st;
}

void Pinwheel::record_ack(State& st, const Address& source, std::uint64_t id) {
  std::uint64_t& prefix = st.own[source];
  if (id <= prefix) return;
  auto& pend = st.pending[source];
  pend.insert(id);
  while (pend.contains(prefix + 1)) {
    pend.erase(prefix + 1);
    ++prefix;
  }
}

void Pinwheel::down(Group& g, DownEvent& ev) {
  switch (ev.type) {
    case DownType::kAck: {
      State& st = state<State>(g);
      record_ack(st, ev.msg_source, ev.msg_id);
      return;  // consumed
    }
    case DownType::kCast:
    case DownType::kSend: {
      std::uint64_t fields[] = {kPass};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    case DownType::kDestroy: {
      State& st = state<State>(g);
      stack().cancel(st.hold_timer);
      stack().cancel(st.watchdog);
      pass_down(g, ev);
      return;
    }
    default:
      pass_down(g, ev);
      return;
  }
}

void Pinwheel::forward_token(Group& g, State& st) {
  st.holding = false;
  auto rank = g.view().rank_of(stack().address());
  if (!rank.has_value() || g.view().size() <= 1) return;
  st.rows[stack().address()] = st.own;
  ++st.rotations;
  Writer w;
  w.varint(g.view().id().seq);
  encode_rows(w, st.rows);
  Message m = stack().tx_message(w.span());
  std::uint64_t fields[] = {kTokenKind};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  out.dests = {g.view().member((*rank + 1) % g.view().size())};
  out.msg = std::move(m);
  pass_down(g, out);
}

void Pinwheel::emit_matrix(Group& g, State& st) {
  StabilityMatrix sm;
  sm.view = g.view();
  sm.acked.assign(g.view().size(),
                  std::vector<std::uint64_t>(g.view().size(), 0));
  for (std::size_t i = 0; i < g.view().size(); ++i) {
    auto rit = st.rows.find(g.view().member(i));
    if (rit == st.rows.end()) continue;
    for (std::size_t j = 0; j < g.view().size(); ++j) {
      auto sit = rit->second.find(g.view().member(j));
      if (sit != rit->second.end()) sm.acked[i][j] = sit->second;
    }
  }
  UpEvent ev;
  ev.type = UpType::kStable;
  ev.stability = std::move(sm);
  pass_up(g, ev);
}

void Pinwheel::arm_watchdog(Group& g, State& st) {
  sim::Duration interval = stack().config().pinwheel_interval;
  st.watchdog = stack().schedule(
      g.gid(), interval * 4, [this, &st](Group& gg) {
        // Rank 0 regenerates a token that died with a crashed member (the
        // view change already reset everyone's matrix).
        sim::Time now = stack().now();
        sim::Duration quiet =
            now > st.last_token ? now - st.last_token : 0;
        if (gg.view().rank_of(stack().address()) == 0u &&
            gg.view().size() > 1 && !st.holding &&
            quiet > stack().config().pinwheel_interval *
                        (gg.view().size() + 2)) {
          forward_token(gg, st);
        }
        arm_watchdog(gg, st);
      });
}

void Pinwheel::up(Group& g, UpEvent& ev) {
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
      if (h.fields[0] == kPass) {
        pass_up(g, ev);
        return;
      }
      // Token arrival: merge rows, report, hold briefly, forward.
      try {
        Reader r = ev.msg.reader();
        std::uint64_t vseq = r.varint();
        if (vseq != g.view().id().seq) return;  // stale token: let it die
        auto rows = decode_rows(r);
        for (auto& [reporter, row] : rows) {
          auto& mine = st.rows[reporter];
          for (auto& [sender, v] : row) {
            std::uint64_t& cur = mine[sender];
            if (v > cur) cur = v;
          }
        }
      } catch (const DecodeError&) {
        return;
      }
      st.last_token = stack().now();
      st.holding = true;
      emit_matrix(g, st);
      st.hold_timer = stack().schedule(
          g.gid(), stack().config().pinwheel_interval, [this, &st](Group& gg) {
            if (st.holding) forward_token(gg, st);
          });
      return;
    }
    case UpType::kView: {
      st.own.clear();
      st.pending.clear();
      st.rows.clear();
      st.holding = false;
      st.last_token = stack().now();
      stack().cancel(st.hold_timer);
      pass_up(g, ev);
      // Rank 0 launches the first token of the view.
      if (ev.view.rank_of(stack().address()) == 0u && ev.view.size() > 1) {
        st.hold_timer = stack().schedule(
            g.gid(), stack().config().pinwheel_interval,
            [this, &st](Group& gg) { forward_token(gg, st); });
      }
      return;
    }
    default:
      pass_up(g, ev);
      return;
  }
}

void Pinwheel::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "PINWHEEL: holding=" + std::to_string(st.holding) +
         " rotations=" + std::to_string(st.rotations) + "\n";
}

}  // namespace horus::layers
