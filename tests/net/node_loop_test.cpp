// The node loop (net/runtime.hpp): one thread per node runs the socket,
// the protocol timers and the tasks other threads post. These tests pin
// down what that thread promises: it keeps time by itself, it runs posts
// before the datagrams that arrive with them, it builds a joined group
// itself, it keeps per-group FIFO for joins, casts and leaves from other
// threads, it hands its leftovers to shutdown, and it is the only thread a
// node starts.
#include "horus/net/runtime.hpp"

#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "horus/analysis/race.hpp"
#include "horus/layers/registry.hpp"
#include "loopback.hpp"

namespace horus::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

/// Threads of this process, from /proc/self/task.
int thread_count() {
  int n = 0;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] != '.') ++n;
    }
    ::closedir(d);
  }
  return n;
}

/// Run `fn` on the node loop and wait for its result.
template <class F>
auto on_loop(NodeRuntime& node, F fn) -> decltype(fn()) {
  std::promise<decltype(fn())> done;
  node.endpoint().executor().post(runtime::kNoGroup,
                                  [&] { done.set_value(fn()); });
  return done.get_future().get();
}

AddressBook one_node_book() {
  return AddressBook::parse(loopback_entry(1, free_port()));
}

/// Poll until `pred` holds or `limit` passes (sanitizer builds are slow).
bool within(std::chrono::milliseconds limit,
            const std::function<bool()>& pred) {
  const Clock::time_point end = Clock::now() + limit;
  while (Clock::now() < end) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// A pass-through layer that reports the thread its per-group state is
/// made on.
class StateThreadProbe final : public Layer {
 public:
  explicit StateThreadProbe(std::promise<std::thread::id>& made_on)
      : made_on_(made_on) {
    info_.name = "PROBE";
    info_.spec.name = "PROBE";
    info_.spec.inherits = props::kAllProperties;
  }
  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override {
    made_on_.set_value(std::this_thread::get_id());
    return Layer::make_state(g);
  }

 private:
  LayerInfo info_;
  std::promise<std::thread::id>& made_on_;
};

TEST(NodeLoop, StartsExactlyOneThread) {
  AddressBook book = one_node_book();
  // A sanitizer runtime may start a helper thread at the process's first
  // thread creation; let that happen before counting.
  std::thread([] {}).join();
  const int before = thread_count();
  NodeRuntime node(book, Address{1});
  EXPECT_EQ(thread_count(), before + 1);
  node.endpoint().join(GroupId{5});
  node.run_for(50ms);
  EXPECT_EQ(thread_count(), before + 1);  // joining adds none either
  node.shutdown();
  EXPECT_EQ(thread_count(), before);
}

TEST(NodeLoop, KeepsWallClockTimeWithNobodyCallingRunFor) {
  std::atomic<int> fires{0};
  std::function<void()> arm;
  AddressBook book = one_node_book();
  const Clock::time_point t0 = Clock::now();
  NodeRuntime node(book, Address{1});
  sim::Scheduler& sched = node.scheduler();
  // A 20 ms periodic timer, armed on the loop.
  arm = [&] {
    sched.schedule(20 * sim::kMillisecond, [&] {
      fires.fetch_add(1);
      arm();
    });
  };
  const sim::Time armed_at = on_loop(node, [&] {
    arm();
    return sched.now();
  });
  std::this_thread::sleep_for(1s);
  const auto [virt_us, wall_us] = on_loop(node, [&] {
    return std::make_pair(
        sched.now(), std::chrono::duration_cast<std::chrono::microseconds>(
                         Clock::now() - t0)
                         .count());
  });
  const int fired = fires.load();
  node.shutdown();
  EXPECT_NEAR(static_cast<double>(virt_us), static_cast<double>(wall_us),
              0.02 * static_cast<double>(wall_us));
  // 50 +- 2 for the one second slept, counted against the time that really
  // passed, so a late wake-up of this test thread cannot fail it.
  const double periods =
      static_cast<double>(virt_us - armed_at) / (20 * sim::kMillisecond);
  EXPECT_NEAR(fired, periods, 2);
}

TEST(NodeLoop, PostsRunBeforeDatagramsThatArriveWithThem) {
  RawSock peer;
  AddressBook book = AddressBook::parse(loopback_entry(1, free_port()) +
                                        loopback_entry(2, peer.port));
  NodeRuntime node(book, Address{1});
  const UdpStats& s = node.udp().stats();
  // Block the loop, so that the post and the datagram below are both
  // pending when it next wakes up.
  std::atomic<bool> blocking{false};
  node.endpoint().executor().post(runtime::kNoGroup, [&] {
    blocking.store(true);
    std::this_thread::sleep_for(100ms);
  });
  ASSERT_TRUE(eventually([&] { return blocking.load(); }));
  std::atomic<bool> ran{false};
  std::atomic<std::uint64_t> rx_seen{~0ULL};
  node.endpoint().executor().post(runtime::kNoGroup, [&] {
    rx_seen.store(s.rx_datagrams.load());
    ran.store(true);
  });
  peer.send_to(node.udp().local_port(), Bytes(64, 0x22));
  ASSERT_TRUE(eventually([&] { return ran.load() && s.rx_datagrams == 1; }));
  EXPECT_EQ(rx_seen.load(), 0u) << "the datagram was read before the post";
}

TEST(NodeLoop, JoinBuildsTheGroupOnTheLoopThread) {
  AddressBook book = one_node_book();
  NodeRuntime node(book, Address{1});
  std::promise<std::thread::id> made_on;
  Stack& probed = on_loop(node, [&]() -> Stack& {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<StateThreadProbe>(made_on));
    for (auto& l : layers::make_stack("COM")) layers.push_back(std::move(l));
    return node.endpoint().add_stack(std::move(layers),
                                     node.endpoint().network_properties());
  });
  const std::thread::id loop_id =
      on_loop(node, [] { return std::this_thread::get_id(); });
  node.endpoint().join_on(probed, GroupId{9});
  std::future<std::thread::id> got = made_on.get_future();
  ASSERT_EQ(got.wait_for(2s), std::future_status::ready);
  const std::thread::id built_on = got.get();
  node.shutdown();
  EXPECT_EQ(built_on, loop_id) << "the layer state was made on the caller";
  EXPECT_NE(built_on, std::this_thread::get_id());
}

TEST(NodeLoop, ThreadsThatJoinCastAndLeaveConcurrentlyKeepPerSenderFifo) {
  // Three application threads share one node: each joins its own group
  // through the other node, casts, waits for its casts to land and leaves,
  // all at once. Nothing but the executor's inbox stands between them and
  // the loop; TSan runs this test to guard that.
  constexpr int kThreads = 3;
  constexpr int kCasts = 200;
  const std::vector<std::uint16_t> ports = free_ports(2);
  AddressBook book = AddressBook::parse(loopback_entry(1, ports[0]) +
                                        loopback_entry(2, ports[1]));
  NodeRuntime shared(book, Address{1});
  NodeRuntime peer(book, Address{2});
  auto gid_of = [](int t) {
    return GroupId{static_cast<std::uint64_t>(300 + t)};
  };

  std::mutex mu;
  std::map<std::uint64_t, std::size_t> view_size;     // shared's, per group
  std::map<std::uint64_t, std::vector<int>> at_peer;  // per group, in order
  std::map<std::uint64_t, std::vector<int>> at_self;
  auto record = [&mu](std::map<std::uint64_t, std::vector<int>>& into,
                      Group& g, UpEvent& ev) {
    if (ev.type != UpType::kCast) return;
    std::lock_guard lock(mu);
    into[g.gid().id].push_back(std::stoi(ev.msg.payload_string()));
  };
  peer.endpoint().on_upcall(
      [&](Group& g, UpEvent& ev) { record(at_peer, g, ev); });
  shared.endpoint().on_upcall([&](Group& g, UpEvent& ev) {
    if (ev.type == UpType::kView) {
      std::lock_guard lock(mu);
      view_size[g.gid().id] = ev.view.size();
    }
    record(at_self, g, ev);
  });
  for (int t = 0; t < kThreads; ++t) peer.endpoint().join(gid_of(t));

  auto delivered = [&](std::map<std::uint64_t, std::vector<int>>& at,
                       GroupId gid) {
    std::lock_guard lock(mu);
    return at[gid.id].size();
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const GroupId gid = gid_of(t);
      Endpoint& ep = shared.endpoint();
      ep.join(gid, Address{2});
      if (!within(10s, [&] {
            std::lock_guard lock(mu);
            return view_size[gid.id] == 2;
          })) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCasts; ++i) {
        ep.cast(gid, Message::from_string(std::to_string(i)));
      }
      if (!within(10s, [&] {
            return delivered(at_peer, gid) == kCasts &&
                   delivered(at_self, gid) == kCasts;
          })) {
        failures.fetch_add(1);
      }
      ep.leave(gid);
    });
  }
  for (std::thread& th : threads) th.join();
  shared.shutdown();
  peer.shutdown();
  ASSERT_EQ(failures.load(), 0) << "a view never formed or a cast was lost";
  std::vector<int> in_order(kCasts);
  for (int i = 0; i < kCasts; ++i) in_order[static_cast<std::size_t>(i)] = i;
  std::lock_guard lock(mu);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(at_peer[gid_of(t).id], in_order) << "group " << gid_of(t).id;
    EXPECT_EQ(at_self[gid_of(t).id], in_order) << "group " << gid_of(t).id;
  }
}

TEST(NodeLoop, CastsFromOtherThreadsKeepPerGroupFifo) {
  constexpr GroupId kG1{101};
  constexpr GroupId kG2{102};
  constexpr int kProducers = 2;
  constexpr int kPerProducer = 60;
  const std::vector<std::uint16_t> ports = free_ports(2);
  AddressBook book = AddressBook::parse(loopback_entry(1, ports[0]) +
                                        loopback_entry(2, ports[1]));
  NodeRuntime n1(book, Address{1});
  NodeRuntime n2(book, Address{2});

  std::mutex mu;
  std::map<std::uint64_t, std::size_t> view_size;  // n2's, per group
  std::map<std::uint64_t, std::vector<std::string>> got;
  n2.endpoint().on_upcall([&](Group& g, UpEvent& ev) {
    std::lock_guard lock(mu);
    if (ev.type == UpType::kView) view_size[g.gid().id] = ev.view.size();
    if (ev.type == UpType::kCast) {
      got[g.gid().id].push_back(ev.msg.payload_string());
    }
  });
  for (GroupId gid : {kG1, kG2}) {
    n1.endpoint().join(gid);
    n2.endpoint().join(gid, Address{1});
  }
  ASSERT_TRUE(eventually([&] {
    std::lock_guard lock(mu);
    return view_size[kG1.id] == 2 && view_size[kG2.id] == 2;
  })) << "two-member views never formed";

  // Each producer interleaves its casts to both groups.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&n1, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::string tag =
            "p" + std::to_string(p) + "-" + std::to_string(i);
        n1.endpoint().cast(kG1, Message::from_string(tag));
        n1.endpoint().cast(kG2, Message::from_string(tag));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(eventually([&] {
    std::lock_guard lock(mu);
    return got[kG1.id].size() == kProducers * kPerProducer &&
           got[kG2.id].size() == kProducers * kPerProducer;
  }));
  n1.shutdown();
  n2.shutdown();
  std::lock_guard lock(mu);
  for (GroupId gid : {kG1, kG2}) {
    // Per producer, casts arrive in the order that producer made them.
    int next[kProducers] = {};
    for (const std::string& tag : got[gid.id]) {
      const int p = tag[1] - '0';
      EXPECT_EQ(tag, "p" + std::to_string(p) + "-" + std::to_string(next[p]))
          << "group " << gid.id;
      ++next[p];
    }
  }
}

TEST(NodeLoop, ShutdownRunsTheTasksLeftInTheInbox) {
  AddressBook book = one_node_book();
  NodeRuntime node(book, Address{1});
  std::atomic<bool> blocking{false};
  node.endpoint().executor().post(runtime::kNoGroup, [&] {
    blocking.store(true);
    std::this_thread::sleep_for(100ms);
  });
  ASSERT_TRUE(eventually([&] { return blocking.load(); }));
  bool ran = false;  // read after shutdown, which orders it
  node.endpoint().executor().post(runtime::kNoGroup, [&ran] { ran = true; });
  node.shutdown();  // the loop is still busy with the first task
  EXPECT_TRUE(ran);
}

TEST(NodeLoop, AThreadedWorldIsRaceFree) {
  // The zero-violation half of horus-race on a real node loop: joins and
  // casts from application threads, timers and datagrams on the loops.
  if (!race::enabled()) GTEST_SKIP() << "built without HORUS_CHECK_RACES";
  race::reset();
  constexpr GroupId kG{7};
  const std::vector<std::uint16_t> ports = free_ports(2);
  AddressBook book = AddressBook::parse(loopback_entry(1, ports[0]) +
                                        loopback_entry(2, ports[1]));
  NodeRuntime n1(book, Address{1});
  NodeRuntime n2(book, Address{2});
  std::atomic<int> delivered{0};
  std::atomic<std::size_t> view{0};
  n2.endpoint().on_upcall([&](Group&, UpEvent& ev) {
    if (ev.type == UpType::kView) view.store(ev.view.size());
    if (ev.type == UpType::kCast) delivered.fetch_add(1);
  });
  n1.endpoint().join(kG);
  n2.endpoint().join(kG, Address{1});
  ASSERT_TRUE(eventually([&] { return view.load() == 2; }));
  std::thread other([&] {
    for (int i = 0; i < 20; ++i) n1.endpoint().cast(kG, Message::from_string("t"));
  });
  for (int i = 0; i < 20; ++i) n2.endpoint().cast(kG, Message::from_string("m"));
  other.join();
  ASSERT_TRUE(eventually([&] { return delivered.load() == 40; }));
  n1.shutdown();
  n2.shutdown();
  EXPECT_EQ(race::total_violations(), 0u) << race::summary();
}

}  // namespace
}  // namespace horus::net
