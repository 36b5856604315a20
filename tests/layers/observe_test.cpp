// LOG / TRACE / ACCOUNT: the observability protocol types of Figure 1's
// table, including LOG's headline capability -- recovering a group's
// delivered history after a TOTAL crash (every member gone).
#include <atomic>
#include <thread>

#include "../common/test_util.hpp"
#include "horus/layers/observe.hpp"

namespace horus::testing {
namespace {

HorusSystem::Options quiet() {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  return o;
}

TEST(LogLayer, JournalsDeliveredCasts) {
  auto store = std::make_shared<layers::LogStore>();
  HorusSystem::Options o = quiet();
  o.stack.log_store_erased = store;
  World w(2, "LOG:MBRSHIP:FRAG:NAK:COM", o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  for (int i = 0; i < 5; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("j" + std::to_string(i)));
  }
  w.sys.run_for(sim::kSecond);
  const auto& journal = store->journal(w.eps[1]->address(), kGroup);
  ASSERT_EQ(journal.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(to_string(journal[static_cast<std::size_t>(i)].payload),
              "j" + std::to_string(i));
    EXPECT_EQ(journal[static_cast<std::size_t>(i)].source, w.eps[0]->address());
  }
}

TEST(LogLayer, TotalCrashRecovery) {
  // "logging -- tolerance of total crash failures": every member dies;
  // a new generation recovers the application history from the store.
  auto store = std::make_shared<layers::LogStore>();
  HorusSystem::Options o = quiet();
  o.stack.log_store_erased = store;
  HorusSystem sys(o);
  Address addr_a, addr_b;
  {
    auto& a = sys.create_endpoint("LOG:MBRSHIP:FRAG:NAK:COM");
    auto& b = sys.create_endpoint("LOG:MBRSHIP:FRAG:NAK:COM");
    addr_a = a.address();
    addr_b = b.address();
    a.join(kGroup);
    sys.run_for(100 * sim::kMillisecond);
    b.join(kGroup, a.address());
    sys.run_for(2 * sim::kSecond);
    a.cast(kGroup, Message::from_string("important state 1"));
    a.cast(kGroup, Message::from_string("important state 2"));
    sys.run_for(sim::kSecond);
    // TOTAL crash: everyone dies.
    sys.crash(a);
    sys.crash(b);
    sys.run_for(sim::kSecond);
  }
  // A recovering process replays b's journal to rebuild its state.
  const auto& journal = store->journal(addr_b, kGroup);
  ASSERT_EQ(journal.size(), 2u);
  EXPECT_EQ(to_string(journal[0].payload), "important state 1");
  EXPECT_EQ(to_string(journal[1].payload), "important state 2");
  EXPECT_EQ(journal[0].source, addr_a);
}

TEST(LogLayer, JournalReplayRebuildsStateAfterTotalCrash) {
  // The recovery path end to end: a member's application state is a fold
  // over delivered casts; after a TOTAL crash, folding the journal instead
  // must reproduce the exact pre-crash state.
  auto store = std::make_shared<layers::LogStore>();
  HorusSystem::Options o = quiet();
  o.stack.log_store_erased = store;
  HorusSystem sys(o);
  Address addr_b;
  std::string live_state;  // what b's application actually built
  {
    auto& a = sys.create_endpoint("LOG:MBRSHIP:FRAG:NAK:COM");
    auto& b = sys.create_endpoint("LOG:MBRSHIP:FRAG:NAK:COM");
    addr_b = b.address();
    b.on_upcall([&](Group&, UpEvent& ev) {
      if (ev.type == UpType::kCast) {
        live_state += ev.msg.payload_string() + ";";
      }
    });
    a.join(kGroup);
    sys.run_for(100 * sim::kMillisecond);
    b.join(kGroup, a.address());
    sys.run_for(2 * sim::kSecond);
    a.cast(kGroup, Message::from_string("set x=1"));
    a.cast(kGroup, Message::from_string("set y=2"));
    a.cast(kGroup, Message::from_string("set x=3"));
    sys.run_for(sim::kSecond);
    sys.crash(a);
    sys.crash(b);
    sys.run_for(sim::kSecond);
  }
  ASSERT_FALSE(live_state.empty());
  // A new generation rebuilds b's state purely from the store.
  std::string recovered;
  for (const auto& e : store->journal(addr_b, kGroup)) {
    recovered += to_string(e.payload) + ";";
  }
  EXPECT_EQ(recovered, live_state);
}

TEST(LogStore, ConcurrentAppendAndSnapshotIsRaceFree) {
  // One LogStore is shared by multiple endpoints -- on separate node loops
  // their LOG layers append from different threads while a recovering
  // process (or a dump) reads. This hammers exactly that
  // access pattern directly; run under TSan it is the regression test for
  // the store's internal locking (journal() snapshots by value so readers
  // never hold references into a growing vector).
  layers::LogStore store;
  constexpr int kWriters = 4;
  constexpr int kAppends = 1000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto snap = store.journal(Address{1}, kGroup);
      if (!snap.empty()) {
        // Touch the copy: a dangling reference would blow up here.
        EXPECT_EQ(snap.front().msg_id, 0u);
      }
      (void)store.total_entries();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&store, t] {
      Address owner{static_cast<std::uint64_t>(t + 1)};
      for (int i = 0; i < kAppends; ++i) {
        store.append(owner, kGroup,
                     layers::LogStore::Entry{Address{99},
                                             static_cast<std::uint64_t>(i),
                                             Bytes{}});
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(store.total_entries(),
            static_cast<std::size_t>(kWriters) * kAppends);
  for (int t = 0; t < kWriters; ++t) {
    auto j = store.journal(Address{static_cast<std::uint64_t>(t + 1)}, kGroup);
    ASSERT_EQ(j.size(), static_cast<std::size_t>(kAppends));
    // Per-owner append order is preserved.
    for (int i = 0; i < kAppends; ++i) {
      EXPECT_EQ(j[static_cast<std::size_t>(i)].msg_id,
                static_cast<std::uint64_t>(i));
    }
  }
}

TEST(LogStore, EndpointsShareOneStore) {
  // The in-system version of the hammer above: three endpoints journal
  // into one store while the test takes snapshots mid-flight. A member
  // delivers its own multicasts (off the wire), so every member journals
  // every cast.
  auto store = std::make_shared<layers::LogStore>();
  HorusSystem::Options o = quiet();
  o.stack.log_store_erased = store;
  World w(3, "LOG:MBRSHIP:FRAG:NAK:COM", o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  constexpr int kRounds = 10;
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < w.eps.size(); ++i) {
      w.eps[i]->cast(kGroup, Message::from_string(
                                 "r" + std::to_string(r) + "e" +
                                 std::to_string(i)));
    }
    (void)store->total_entries();
    (void)store->journal(w.eps[0]->address(), kGroup);
    w.sys.run_for(200 * sim::kMillisecond);
  }
  w.sys.run_for(2 * sim::kSecond);
  const auto expected =
      static_cast<std::size_t>(kRounds) * w.eps.size();  // 30 casts total
  for (auto* ep : w.eps) {
    EXPECT_EQ(store->journal(ep->address(), kGroup).size(), expected);
  }
}

TEST(Trace, CountsEventsBothDirections) {
  World w(2, "TRACE:MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  w.eps[0]->cast(kGroup, Message::from_string("x"));
  w.sys.run_for(sim::kSecond);
  std::string d = w.eps[0]->dump(kGroup, "TRACE");
  EXPECT_NE(d.find("down:cast=1"), std::string::npos) << d;
  EXPECT_NE(d.find("up:CAST=1"), std::string::npos) << d;
  EXPECT_NE(d.find("up:VIEW="), std::string::npos) << d;
}

TEST(Trace, RecentRingCapsUnderOverflow) {
  World w(2, "TRACE:MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  // Push far more events through the layer than the ring holds: each cast
  // alone is one down + one up event at the sender.
  const int kCasts = 3 * static_cast<int>(layers::Trace::kRecentCap);
  for (int i = 0; i < kCasts; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("x"));
  }
  w.sys.run_for(2 * sim::kSecond);
  std::string d = w.eps[0]->dump(kGroup, "TRACE");
  // Counts are unbounded...
  EXPECT_NE(d.find("down:cast=" + std::to_string(kCasts)), std::string::npos)
      << d;
  // ...but the recent-event ring stays at its cap.
  EXPECT_NE(d.find(" recent=" + std::to_string(layers::Trace::kRecentCap) +
                   "\n"),
            std::string::npos)
      << d;
}

TEST(Account, RetainsDepartedPeerAcrossViewChange) {
  World w(3, "ACCOUNT:MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  ASSERT_TRUE(w.converged());
  Address departed = w.eps[2]->address();
  w.eps[2]->cast(kGroup, Message::from_string("abcde"));
  w.eps[2]->cast(kGroup, Message::from_string("fghij"));
  w.sys.run_for(sim::kSecond);
  // The metered peer leaves; the remaining members see a smaller view.
  w.eps[2]->leave(kGroup);
  w.sys.run_for(2 * sim::kSecond);
  ASSERT_FALSE(w.logs[0].views.empty());
  EXPECT_EQ(w.logs[0].views.back().size(), 2u);
  // Traffic after the view change must not erase the departed peer's books.
  w.eps[0]->cast(kGroup, Message::from_string("post-change"));
  w.sys.run_for(sim::kSecond);
  std::string d = w.eps[1]->dump(kGroup, "ACCOUNT");
  EXPECT_NE(d.find(to_string(departed) + "=2msg/10B"), std::string::npos) << d;
  EXPECT_NE(d.find(to_string(w.eps[0]->address()) + "=1msg/11B"),
            std::string::npos)
      << d;
}

TEST(Account, MetersPerPeerUsage) {
  World w(3, "ACCOUNT:MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  ASSERT_TRUE(w.converged());
  w.eps[1]->cast(kGroup, Message::from_string("12345"));
  w.eps[1]->cast(kGroup, Message::from_string("1234567890"));
  w.eps[2]->cast(kGroup, Message::from_string("abc"));
  w.sys.run_for(sim::kSecond);
  std::string d = w.eps[0]->dump(kGroup, "ACCOUNT");
  EXPECT_NE(d.find(to_string(w.eps[1]->address()) + "=2msg/15B"),
            std::string::npos)
      << d;
  EXPECT_NE(d.find(to_string(w.eps[2]->address()) + "=1msg/3B"),
            std::string::npos)
      << d;
}

TEST(Observe, AllThreeStackTogether) {
  World w(2, "TRACE:ACCOUNT:LOG:MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  w.eps[0]->cast(kGroup, Message::from_string("through all observers"));
  w.sys.run_for(sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "through all observers");
}

}  // namespace
}  // namespace horus::testing
