#include "horus/check/runner.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "horus/api/system.hpp"
#include "horus/check/broken.hpp"
#include "horus/util/rng.hpp"

#include "horus/obs/flight_recorder.hpp"

namespace horus::check {
namespace {

constexpr GroupId kGroup{42};

/// RngFaultPolicy plus the shrinker's instruments: decisions whose index
/// is masked lose their fault flags (keeping their latency draws), and
/// the indices that actually injected a fault are recorded.
class InstrumentedPolicy final : public sim::FaultPolicy {
 public:
  InstrumentedPolicy(std::uint64_t seed,
                     const std::vector<std::uint64_t>& mask, bool record)
      : inner_(seed), mask_(mask.begin(), mask.end()), record_(record) {}

  sim::FaultDecision decide(std::uint64_t index, sim::NodeId src,
                            sim::NodeId dst, std::size_t size,
                            const sim::LinkParams& p) override {
    sim::FaultDecision d = inner_.decide(index, src, dst, size, p);
    if (!mask_.empty() && mask_.count(index) != 0) {
      d.drop = false;
      d.duplicate = false;
      d.corrupt_seed = 0;
    }
    if (record_ && d.faulty()) faulty_.push_back(index);
    return d;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& faulty() const {
    return faulty_;
  }

 private:
  sim::RngFaultPolicy inner_;
  std::unordered_set<std::uint64_t> mask_;
  bool record_;
  std::vector<std::uint64_t> faulty_;
};

/// Everything the runner tracks per member while the simulation runs.
struct MemberCtx {
  Endpoint* ep = nullptr;
  RunLog::Member log;
  // Causal-context bookkeeping, mirrored by the causal oracle: the
  // member's current view and its same-view delivery counts per member
  // index (docs/check.md).
  bool in_view = false;
  std::uint64_t cur_view_seq = 0;
  std::vector<std::uint64_t> in_view_counts;
};

std::uint64_t addr_of(const Address& a) { return a.id; }

}  // namespace

OracleSet auto_oracles(props::PropertySet provided) {
  using props::Property;
  OracleSet s = 0;
  if (props::has(provided, Property::kFifoMulticast)) {
    s |= static_cast<OracleSet>(Oracle::kNoDupNoCreation) |
         static_cast<OracleSet>(Oracle::kDelivery);
  }
  if (props::has(provided, Property::kVirtualSync)) {
    s |= static_cast<OracleSet>(Oracle::kVirtualSynchrony);
  }
  if (props::has(provided, Property::kTotalOrder)) {
    s |= static_cast<OracleSet>(Oracle::kTotalOrder);
  }
  if (props::has(provided, Property::kCausal)) {
    s |= static_cast<OracleSet>(Oracle::kCausal);
  }
  if (props::has(provided, Property::kStabilityInfo)) {
    s |= static_cast<OracleSet>(Oracle::kStability);
  }
  if (props::has(provided, Property::kConsistentViews)) {
    s |= static_cast<OracleSet>(Oracle::kViewAgreement);
  }
  return s;
}

RunResult run_scenario(const Scenario& scn, std::uint64_t seed,
                       const RunOptions& opts) {
  Scenario s = scn;
  s.sanitize();

  // One run per ring window: after this run the flight recorder holds
  // exactly this seed's boundary events, which is what horus-check dumps
  // next to a failing repro (it replays the artifact first).
  obs::flight_recorder().reset();

  RunResult res;
  res.plan = opts.plan ? *opts.plan : derive_plan(s, seed);

  HorusSystem::Options o;
  o.seed = seed;
  o.net.loss = s.loss;
  o.net.duplicate = s.duplicate;
  o.net.corrupt = s.corrupt;
  o.net.delay_min = s.delay_min;
  o.net.delay_max = s.delay_max;
  // Contract checking must not vary between build flavors (CI compiles a
  // flavor with HORUS_CHECK_CONTRACTS), or event hashes would diverge.
  o.check_contracts = false;
  if (has_broken_tokens(s.stack)) {
    o.stack_factory = [](const std::string& spec) {
      return make_scenario_stack(spec);
    };
  }
  HorusSystem sys(o);

  auto policy =
      std::make_shared<InstrumentedPolicy>(seed, opts.mask, opts.record);
  sys.net().set_fault_policy(policy);

  // Fold every executor dispatch decision into the dispatch hash, so a
  // replay that diverges in scheduling (not only in visible events) fails
  // hash comparison too.
  std::uint64_t dispatch_hash = kFnvBasis;

  std::vector<std::unique_ptr<MemberCtx>> ctxs;
  for (std::size_t i = 0; i < s.members; ++i) {
    auto ctx = std::make_unique<MemberCtx>();
    ctx->ep = &sys.create_endpoint(s.stack);
    ctx->log.index = i;
    ctx->log.address = addr_of(ctx->ep->address());
    ctx->in_view_counts.assign(s.members, 0);
    ctxs.push_back(std::move(ctx));
  }
  for (auto& ctx : ctxs) {
    if (auto* ge = dynamic_cast<runtime::GroupExecutor*>(
            &ctx->ep->executor())) {
      std::uint64_t member = ctx->log.index;
      ge->set_trace([&dispatch_hash, member](runtime::GroupKey k,
                                             std::uint64_t seq) {
        dispatch_hash = fnv1a64_step(dispatch_hash, member);
        dispatch_hash = fnv1a64_step(dispatch_hash, k);
        dispatch_hash = fnv1a64_step(dispatch_hash, seq);
      });
    }
    MemberCtx* c = ctx.get();
    HorusSystem* psys = &sys;
    c->ep->on_upcall([c, psys](Group& g, UpEvent& ev) {
      Obs obs;
      obs.at = psys->now();
      obs.epoch = static_cast<std::uint32_t>(g.epoch_number());
      switch (ev.type) {
        case UpType::kView: {
          obs.kind = Obs::Kind::kView;
          obs.view_seq = ev.view.id().seq;
          obs.view_coord = ev.view.id().coordinator.id;
          for (const Address& a : ev.view.members()) {
            obs.view_members.push_back(a.id);
          }
          c->in_view = true;
          c->cur_view_seq = obs.view_seq;
          std::fill(c->in_view_counts.begin(), c->in_view_counts.end(), 0);
          break;
        }
        case UpType::kCast: {
          obs.kind = Obs::Kind::kCast;
          obs.source = ev.source.id;
          obs.msg_id = ev.msg_id;
          Bytes payload = ev.msg.payload_bytes();
          if (auto p = Payload::decode(payload)) {
            obs.decoded = true;
            obs.payload = std::move(*p);
            if (c->in_view && obs.payload.view_seq == c->cur_view_seq &&
                obs.payload.sender < c->in_view_counts.size()) {
              ++c->in_view_counts[obs.payload.sender];
            }
          }
          // Application-level acknowledgement drives the stability
          // machinery; ack-from-inside-the-upcall is the accepted idiom.
          c->ep->ack(kGroup, ev.source, ev.msg_id);
          break;
        }
        case UpType::kStable: {
          obs.kind = Obs::Kind::kStable;
          for (const Address& a : ev.stability.view.members()) {
            obs.stable_view_members.push_back(a.id);
          }
          obs.acked = ev.stability.acked;
          break;
        }
        default:
          return;  // flushes, problems etc. are protocol-internal
      }
      c->log.obs.push_back(std::move(obs));
    });
  }

  // -- formation -------------------------------------------------------------
  ctxs[0]->ep->join(kGroup);
  sys.run_for(50 * sim::kMillisecond);
  for (std::size_t i = 1; i < s.members; ++i) {
    ctxs[i]->ep->join(kGroup, ctxs[0]->ep->address());
    sys.run_for(50 * sim::kMillisecond);
  }
  sys.run_for(s.form);

  // -- workload + fault schedule ---------------------------------------------
  const sim::Time t0 = sys.now();

  // Timeline of actions relative to t0: the workload rounds plus the plan
  // events, executed in time order (plan events win ties so a crash "at"
  // a round time removes the member's casts of that round).
  struct Action {
    sim::Duration at;
    int order;  // tie-break: plan events (0) before rounds (1)
    const FaultEvent* fault = nullptr;
    int round = -1;
  };
  std::vector<Action> timeline;
  for (const FaultEvent& e : res.plan) timeline.push_back({e.at, 0, &e, -1});
  for (int r = 0; r < s.rounds; ++r) {
    timeline.push_back(
        {static_cast<sim::Duration>(r) * s.round_gap, 1, nullptr, r});
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Action& a, const Action& b) {
                     return a.at != b.at ? a.at < b.at : a.order < b.order;
                   });

  std::vector<std::uint64_t> sent(s.members, 0);
  for (const Action& act : timeline) {
    sim::Time due = t0 + act.at;
    if (due > sys.now()) sys.run_for(due - sys.now());
    if (act.fault) {
      const FaultEvent& e = *act.fault;
      switch (e.kind) {
        case FaultEvent::Kind::kCrash:
          if (e.member < ctxs.size() && !ctxs[e.member]->log.crashed) {
            sys.crash(*ctxs[e.member]->ep);
            ctxs[e.member]->log.crashed = true;
          }
          break;
        case FaultEvent::Kind::kPartition: {
          std::vector<const Endpoint*> a, b;
          for (std::size_t i = 0; i < ctxs.size(); ++i) {
            bool in_a = std::find(e.cell.begin(), e.cell.end(), i) !=
                        e.cell.end();
            (in_a ? a : b).push_back(ctxs[i]->ep);
          }
          if (!a.empty() && !b.empty()) sys.partition({a, b});
          break;
        }
        case FaultEvent::Kind::kHeal:
          sys.heal();
          break;
        case FaultEvent::Kind::kSwitch:
          // The lowest live member initiates; non-coordinators relay the
          // request to MBRSHIP's coordinator, so which member fires it is
          // immaterial. A rejected spec (illegal transition) leaves the
          // group on its current stack, which the cross-epoch oracle then
          // judges as "no switch anywhere" -- still a consistent outcome.
          for (auto& ctx : ctxs) {
            if (ctx->log.crashed) continue;
            try {
              ctx->ep->reconfigure(kGroup, e.spec);
            } catch (const std::exception&) {
            }
            break;
          }
          break;
      }
      continue;
    }
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
      MemberCtx& c = *ctxs[i];
      if (c.log.crashed) continue;
      for (int k = 0; k < s.casts_per_round; ++k) {
        Payload p;
        p.sender = i;
        p.round = static_cast<std::uint32_t>(act.round);
        p.index = static_cast<std::uint32_t>(k);
        p.view_seq = c.cur_view_seq;
        p.ctx = c.in_view_counts;
        c.ep->cast(kGroup, Message::from_payload(p.encode()));
        ++sent[i];
        // Run a moment so the self-delivery (and its context bump) lands
        // before this member's next cast -- casts within a round are
        // causally chained, which is what the causal oracle leans on.
        sys.run_for(sim::kMillisecond);
      }
    }
  }

  // -- settle, with deterministic convergence nudges -------------------------
  // fail_timeout handles crashes on its own; partitions that healed need
  // the manual merge downcall (tests/integration/partition_test.cpp idiom).
  // Nudge every 2 simulated seconds: every live member whose latest view
  // differs from the anchor's (the lowest live address) merges toward it.
  sim::Time settle_end = sys.now() + s.settle;
  sys.heal();  // in case the plan ended inside a partition window
  for (;;) {
    sim::Duration slice = std::min<sim::Duration>(
        2 * sim::kSecond,
        settle_end > sys.now() ? settle_end - sys.now() : 0);
    if (slice == 0) break;
    sys.run_for(slice);

    MemberCtx* anchor = nullptr;
    for (auto& ctx : ctxs) {
      if (ctx->log.crashed) continue;
      if (!anchor || ctx->log.address < anchor->log.address) {
        anchor = ctx.get();
      }
    }
    if (!anchor) break;
    auto last_view = [](const MemberCtx& c) -> const Obs* {
      for (auto it = c.log.obs.rbegin(); it != c.log.obs.rend(); ++it) {
        if (it->kind == Obs::Kind::kView) return &*it;
      }
      return nullptr;
    };
    const Obs* av = last_view(*anchor);
    bool diverged = false;
    for (auto& ctx : ctxs) {
      if (ctx->log.crashed || ctx.get() == anchor) continue;
      const Obs* v = last_view(*ctx);
      if (!av || !v || v->view_seq != av->view_seq ||
          v->view_members != av->view_members) {
        diverged = true;
        ctx->ep->merge(kGroup, Address{anchor->log.address});
      }
    }
    if (!diverged && sys.now() >= t0) {
      // Converged: drain a final slice so in-flight stability gossip
      // lands, then stop early (deterministically -- purely a function of
      // the logs so far).
      sys.run_for(std::min<sim::Duration>(2 * sim::kSecond,
                                          settle_end > sys.now()
                                              ? settle_end - sys.now()
                                              : 0));
      break;
    }
  }

  // -- judgement -------------------------------------------------------------
  RunLog log;
  log.casts_per_round = s.casts_per_round;
  log.sent = sent;
  log.clean = std::none_of(res.plan.begin(), res.plan.end(),
                           [](const FaultEvent& e) {
                             return e.kind == FaultEvent::Kind::kCrash ||
                                    e.kind == FaultEvent::Kind::kPartition;
                           });
  for (auto& ctx : ctxs) {
    // Detach the instruments: the system outlives the contexts and the
    // hash accumulator, so nothing may fire during teardown.
    ctx->ep->on_upcall(nullptr);
    if (auto* ge = dynamic_cast<runtime::GroupExecutor*>(
            &ctx->ep->executor())) {
      ge->set_trace(nullptr);
    }
    log.members.push_back(std::move(ctx->log));
  }

  res.oracles = s.oracles == kAutoOracles
                    ? auto_oracles(ctxs[0]->ep->stack().provided_properties())
                    : s.oracles;
  // A plan with a live switch always gets the switch oracle, whatever the
  // stack provides: losing messages across an epoch boundary is a bug in
  // the reconfiguration machinery, not in any one layer.
  if (std::any_of(res.plan.begin(), res.plan.end(), [](const FaultEvent& e) {
        return e.kind == FaultEvent::Kind::kSwitch;
      })) {
    res.oracles |= static_cast<OracleSet>(Oracle::kCrossEpoch);
  }
  res.violations = evaluate(res.oracles, log);
  res.event_hash = log_hash(log);
  res.dispatch_hash = dispatch_hash;
  res.decisions = sys.net().decisions_made();
  if (opts.record) res.faulty = policy->faulty();
  if (opts.keep_log) res.log = std::move(log);
  return res;
}

}  // namespace horus::check
