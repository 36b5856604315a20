// HCPI contract checking: CheckedLayer + ContractMonitor.
//
// Two halves: (1) layers deliberately violating the HCPI discipline are
// caught, with the right counter attributed; (2) the real layer library,
// run under full fault injection (loss, duplication, corruption, crashes,
// partitions), reports ZERO violations -- the monitor is a tripwire, not
// a noise source.
#include "../common/test_util.hpp"

#include <memory>
#include <vector>

#include "horus/analysis/checked.hpp"

namespace horus::testing {
namespace {

using analysis::ContractMonitor;

props::PropertySet p1() {
  return props::make_set({props::Property::kBestEffort});
}

LayerInfo passthrough_info(const char* name) {
  LayerInfo li;
  li.name = name;
  li.fields = {{"x", 32}};
  li.spec.name = name;
  li.spec.inherits = props::kAllProperties;
  return li;
}

/// Pushes its header twice on every outgoing message (balance violation).
class DoublePusher final : public Layer {
 public:
  DoublePusher() : info_(passthrough_info("DOUBLEPUSH")) {}
  const LayerInfo& info() const override { return info_; }
  void down(Group& g, DownEvent& ev) override {
    if (ev.type == DownType::kCast || ev.type == DownType::kSend) {
      std::uint64_t fields[] = {1};
      stack().push_header(ev.msg, *this, fields);
      stack().push_header(ev.msg, *this, fields);
    }
    pass_down(g, ev);
  }
  void up(Group& g, UpEvent& ev) override {
    if (ev.type == UpType::kCast || ev.type == UpType::kSend) {
      (void)stack().pop_header(ev.msg, *this);
      (void)stack().pop_header(ev.msg, *this);
    }
    pass_up(g, ev);
  }

 private:
  LayerInfo info_;
};

/// Touches the message again after forwarding it (use-after-forward).
class LateToucher final : public Layer {
 public:
  LateToucher() : info_(passthrough_info("LATETOUCH")) {}
  const LayerInfo& info() const override { return info_; }
  void down(Group& g, DownEvent& ev) override {
    bool data = ev.type == DownType::kCast || ev.type == DownType::kSend;
    if (data) {
      std::uint64_t fields[] = {7};
      stack().push_header(ev.msg, *this, fields);
    }
    pass_down(g, ev);
    if (data) {
      std::uint64_t late[] = {8};
      stack().push_header(ev.msg, *this, late);  // message no longer ours
    }
  }
  void up(Group& g, UpEvent& ev) override {
    if (ev.type == UpType::kCast || ev.type == UpType::kSend) {
      (void)stack().pop_header(ev.msg, *this);
    }
    pass_up(g, ev);
  }

 private:
  LayerInfo info_;
};

/// Forwards its entry event twice (use-after-forward).
class DoubleForwarder final : public Layer {
 public:
  DoubleForwarder() : info_(passthrough_info("DOUBLEFWD")) {
    info_.fields.clear();
  }
  const LayerInfo& info() const override { return info_; }
  void down(Group& g, DownEvent& ev) override {
    pass_down(g, ev);
    if (ev.type == DownType::kCast) pass_down(g, ev);
  }

 private:
  LayerInfo info_;
};

/// Declares {CAST, SEND} but originates a PROBLEM upcall (undeclared).
class UndeclaredEmitter final : public Layer {
 public:
  UndeclaredEmitter() : info_(passthrough_info("UNDECL")) {
    info_.fields.clear();
    info_.up_emits = make_up_emits({UpType::kCast, UpType::kSend});
  }
  const LayerInfo& info() const override { return info_; }
  void up(Group& g, UpEvent& ev) override {
    if (ev.type == UpType::kCast) {
      UpEvent problem;
      problem.type = UpType::kProblem;
      problem.source = ev.source;
      pass_up(g, problem);
    }
    pass_up(g, ev);
  }

 private:
  LayerInfo info_;
};

/// One endpoint over the sim network, with a hand-built (possibly
/// misbehaving) layer stack wrapped in CheckedLayers. A self-only view
/// makes COM loop every cast back through the receive path.
struct CheckedWorld {
  sim::Scheduler sched;
  sim::SimNetwork net{sched, 99};
  SimTransport transport{net};
  std::shared_ptr<ContractMonitor> mon = std::make_shared<ContractMonitor>();
  std::unique_ptr<Endpoint> ep;

  explicit CheckedWorld(std::unique_ptr<Layer> bad) {
    sim::LinkParams quiet;
    quiet.loss = 0.0;
    net.set_default_params(quiet);
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(bad));
    layers.push_back(layers::make_layer("COM"));
    ep = std::make_unique<Endpoint>(Address{7}, StackConfig{},
                                    analysis::wrap_checked(std::move(layers), mon),
                                    p1(), transport, sched);
    transport.bind(*ep);
    ep->join(kGroup);
    ep->install_view(kGroup, {ep->address()});
    run();
  }

  void run() { sched.run_until(sched.now() + 200 * sim::kMillisecond); }

  std::uint64_t cast_and_count(std::atomic<std::uint64_t>& counter) {
    std::uint64_t before = counter.load();
    ep->cast(kGroup, Message::from_string("probe"));
    run();
    return counter.load() - before;
  }
};

TEST(Checked, DoublePushAndPopAreCounted) {
  CheckedWorld w(std::make_unique<DoublePusher>());
  auto& c = const_cast<ContractMonitor::Counters&>(w.mon->counters());
  EXPECT_GE(w.cast_and_count(c.push_pop), 2u)  // one per direction
      << w.mon->summary();
  EXPECT_EQ(w.mon->counters().use_after_forward.load(), 0u)
      << w.mon->summary();
}

TEST(Checked, PushAfterForwardIsUseAfterForward) {
  CheckedWorld w(std::make_unique<LateToucher>());
  auto& c = const_cast<ContractMonitor::Counters&>(w.mon->counters());
  EXPECT_GE(w.cast_and_count(c.use_after_forward), 1u) << w.mon->summary();
}

TEST(Checked, ForwardingEntryEventTwiceIsCounted) {
  CheckedWorld w(std::make_unique<DoubleForwarder>());
  auto& c = const_cast<ContractMonitor::Counters&>(w.mon->counters());
  EXPECT_GE(w.cast_and_count(c.use_after_forward), 1u) << w.mon->summary();
}

TEST(Checked, UndeclaredEmissionIsCounted) {
  CheckedWorld w(std::make_unique<UndeclaredEmitter>());
  auto& c = const_cast<ContractMonitor::Counters&>(w.mon->counters());
  EXPECT_GE(w.cast_and_count(c.undeclared_event), 1u) << w.mon->summary();
  // The violation message names the layer and the upcall type.
  bool named = false;
  for (const std::string& m : w.mon->messages()) {
    if (m.find("UNDECL") != std::string::npos &&
        m.find("PROBLEM") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << w.mon->summary();
}

TEST(Checked, ReentrantDownFromDeliveryUpcall) {
  // The monitor rule itself: a down() crossing that starts while a
  // delivery upcall is on the stack is re-entrant. (Under the executors
  // the post() discipline makes this unreachable from app code, which is
  // exactly what the rule enforces.)
  CheckedWorld w(std::make_unique<UndeclaredEmitter>());
  Group* g = w.ep->find_group(kGroup);
  ASSERT_NE(g, nullptr);
  UpEvent delivery;
  delivery.type = UpType::kCast;
  w.mon->on_app_up_begin(*g, delivery);
  DownEvent reentrant;
  reentrant.type = DownType::kCast;
  w.mon->on_forward_down(*g, HcpiMonitor::kAppSinkIndex, reentrant);
  w.mon->on_app_up_end(*g);
  EXPECT_EQ(w.mon->counters().reentrancy.load(), 1u) << w.mon->summary();
}

// -- the real layer library is contract-clean under fault injection ----------

HorusSystem::Options faulty(unsigned seed) {
  HorusSystem::Options o;
  o.seed = seed;
  o.check_contracts = true;
  o.net.loss = 0.05;
  o.net.duplicate = 0.03;
  o.net.corrupt = 0.01;
  return o;
}

void expect_clean(const HorusSystem& sys_unused, World& w) {
  (void)sys_unused;
  for (const auto& mon : w.sys.monitors()) {
    EXPECT_EQ(mon->total_violations(), 0u) << mon->summary();
  }
  EXPECT_FALSE(w.sys.monitors().empty());
}

TEST(Checked, FullStackCleanUnderFaultInjection) {
  World w(3, "TOTAL:MBRSHIP:FRAG:NAK:COM", faulty(0xfau));
  w.form_group();
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < w.eps.size(); ++i) {
      w.eps[i]->cast(kGroup, Message::from_string("m" + std::to_string(round)));
    }
    w.sys.run_for(40 * sim::kMillisecond);
  }
  // Large messages drive FRAG's chunked path.
  w.eps[0]->cast(kGroup, Message::from_string(std::string(64 * 1024, 'x')));
  w.sys.run_for(2 * sim::kSecond);
  // Crash a member mid-traffic: failure detection, flush and a new view.
  w.sys.crash(*w.eps[2]);
  for (int round = 0; round < 10; ++round) {
    w.eps[0]->cast(kGroup, Message::from_string("after-crash"));
    w.sys.run_for(100 * sim::kMillisecond);
  }
  w.sys.run_for(2 * sim::kSecond);
  expect_clean(w.sys, w);
}

TEST(Checked, PartitionHealCleanWithMergeStack) {
  World w(4, "MERGE:MBRSHIP:FRAG:NAK:COM", faulty(0x7u));
  w.form_group();
  w.sys.partition({{w.eps[0], w.eps[1]}, {w.eps[2], w.eps[3]}});
  for (int round = 0; round < 5; ++round) {
    w.eps[0]->cast(kGroup, Message::from_string("left"));
    w.eps[2]->cast(kGroup, Message::from_string("right"));
    w.sys.run_for(200 * sim::kMillisecond);
  }
  w.sys.heal();
  w.sys.run_for(5 * sim::kSecond);
  expect_clean(w.sys, w);
}

TEST(Checked, TransformAndOrderingStacksClean) {
  World w(3, "CAUSAL:ENCRYPT:MBRSHIP:COMPRESS:FRAG:NAK:CHKSUM:RAWCOM",
          faulty(0x33u));
  w.form_group();
  for (int round = 0; round < 15; ++round) {
    for (std::size_t i = 0; i < w.eps.size(); ++i) {
      w.eps[i]->cast(kGroup,
                     Message::from_string(std::string(300, 'a' + (round % 26))));
    }
    w.sys.run_for(50 * sim::kMillisecond);
  }
  w.sys.run_for(2 * sim::kSecond);
  expect_clean(w.sys, w);
}

TEST(Checked, LiveReconfigureInstallsMonitorOnNewEpoch) {
  // The wrapped layers own the monitor hand-off: a stack built by a live
  // switch is checked exactly like the one the endpoint was created with.
  HorusSystem::Options o;
  o.check_contracts = true;
  World w(3, "TOTAL:MBRSHIP:FRAG:NAK:COM", o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  std::vector<HcpiMonitor*> old_monitors;
  for (Endpoint* ep : w.eps) {
    old_monitors.push_back(ep->group(kGroup).stack().monitor());
    ASSERT_NE(old_monitors.back(), nullptr);
  }

  w.eps[1]->reconfigure(kGroup, "TOTAL:MBRSHIP:FRAG:MCAST:NNAK:COM");
  w.sys.run_for(3 * sim::kSecond);
  for (std::size_t i = 0; i < w.eps.size(); ++i) {
    w.eps[i]->cast(kGroup, Message::from_string("post-" + std::to_string(i)));
  }
  w.sys.run_for(2 * sim::kSecond);

  const auto& all = w.sys.monitors();
  ASSERT_FALSE(all.empty());
  auto registered = [&all](const HcpiMonitor* m) {
    for (const auto& mon : all) {
      if (mon.get() == m) return true;
    }
    return false;
  };
  bool newest_is_an_epoch_stack = false;
  for (std::size_t i = 0; i < w.eps.size(); ++i) {
    Stack& s = w.eps[i]->group(kGroup).stack();
    ASSERT_EQ(s.epoch(), 1u) << "member " << i;
    HcpiMonitor* m = s.monitor();
    ASSERT_NE(m, nullptr) << "member " << i;
    EXPECT_NE(m, old_monitors[i]) << "member " << i;
    EXPECT_TRUE(registered(m)) << "member " << i;
    if (m == all.back().get()) newest_is_an_epoch_stack = true;
    EXPECT_EQ(w.logs[i].casts.size(), w.eps.size()) << "member " << i;
  }
  EXPECT_TRUE(newest_is_an_epoch_stack)
      << "the last stack built must carry the newest monitor";
  expect_clean(w.sys, w);
}

}  // namespace
}  // namespace horus::testing
