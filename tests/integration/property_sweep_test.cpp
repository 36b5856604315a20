// Cross-product sweep: every interesting stack x network condition x seed
// must deliver its advertised properties. This is the "LEGO"
// claim tested wholesale -- the stacks below were never special-cased
// anywhere; they are composed at run time from the registry.
#include <set>

#include "../common/test_util.hpp"

namespace horus::testing {
namespace {

struct StackCase {
  const char* spec;
  bool ordered_total;   // all members must agree on one delivery order
  bool needs_settle_ms; // stacks with stability need longer
};

struct SweepCase {
  StackCase stack;
  double loss;
  std::uint64_t seed;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  std::string name = c.stack.spec;
  for (auto& ch : name) {
    if (ch == ':') ch = '_';
  }
  *os << name << "_loss" << static_cast<int>(c.loss * 100) << "_seed" << c.seed;
}

class StackSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(StackSweep, DeliversEverythingConsistently) {
  const SweepCase& c = GetParam();
  HorusSystem::Options o;
  o.seed = c.seed;
  o.net.loss = c.loss;
  o.stack.stability_gossip_interval = 20 * sim::kMillisecond;
  o.stack.pinwheel_interval = 15 * sim::kMillisecond;
  World w(3, c.stack.spec, o);
  w.form_group(3 * sim::kSecond);
  ASSERT_TRUE(w.converged()) << "group did not form";

  constexpr int kPerSender = 8;
  for (int i = 0; i < kPerSender; ++i) {
    for (std::size_t m = 0; m < 3; ++m) {
      w.eps[m]->cast(kGroup, Message::from_string(
                                 "s" + std::to_string(m) + "." + std::to_string(i)));
    }
    w.sys.run_for(50 * sim::kMillisecond);
  }
  w.sys.run_for(20 * sim::kSecond);

  // Completeness: every member delivered all 24 messages...
  for (std::size_t m = 0; m < 3; ++m) {
    ASSERT_EQ(w.logs[m].casts.size(), 3u * kPerSender) << "member " << m;
    // ...without duplicates...
    std::set<std::string> uniq;
    for (const auto& d : w.logs[m].casts) uniq.insert(d.payload);
    EXPECT_EQ(uniq.size(), 3u * kPerSender) << "member " << m;
    // ...and FIFO per sender.
    for (std::size_t s = 0; s < 3; ++s) {
      auto got = w.logs[m].casts_from(w.eps[s]->address());
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kPerSender));
      for (int i = 0; i < kPerSender; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  "s" + std::to_string(s) + "." + std::to_string(i));
      }
    }
  }
  if (GetParam().stack.ordered_total) {
    auto ref = w.logs[0].all_cast_payloads();
    for (std::size_t m = 1; m < 3; ++m) {
      EXPECT_EQ(w.logs[m].all_cast_payloads(), ref)
          << "total order violated at member " << m;
    }
  }
}

constexpr StackCase kStacks[] = {
    {"MBRSHIP:FRAG:NAK:COM", false, false},
    {"TOTAL:MBRSHIP:FRAG:NAK:COM", true, false},
    {"CAUSAL:MBRSHIP:FRAG:NAK:COM", false, false},
    {"STABLE:MBRSHIP:FRAG:NAK:COM", false, true},
    {"SAFE:STABLE:MBRSHIP:FRAG:NAK:COM", false, true},
    {"SAFE:PINWHEEL:MBRSHIP:FRAG:NAK:COM", false, true},
    {"TOTAL:MBRSHIP:FRAG:NAK:CHKSUM:RAWCOM", true, false},
    {"COMPRESS:ENCRYPT:SIGN:MBRSHIP:FRAG:NAK:COM", false, false},
    {"MERGE:TOTAL:MBRSHIP:FRAG:NAK:COM", true, false},
    {"VSS:BMS:FRAG:NAK:COM", false, false},
    {"TOTAL:VSS:BMS:FRAG:NAK:COM", true, false},
    {"TRACE:ACCOUNT:LOG:MBRSHIP:FRAG:NAK:COM", false, false},
};

std::vector<SweepCase> make_cases() {
  std::vector<SweepCase> cases;
  std::uint64_t seed = 100;
  // Two seeds per (stack, loss) pair, interleaved as (loss 0, loss 0.1)
  // twice per stack.
  for (const StackCase& s : kStacks) {
    for (int rep = 0; rep < 2; ++rep) {
      for (double loss : {0.0, 0.1}) {
        cases.push_back({s, loss, seed++});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStacks, StackSweep, ::testing::ValuesIn(make_cases()),
                         [](const auto& info) {
                           std::ostringstream os;
                           PrintTo(info.param, &os);
                           return os.str();
                         });

}  // namespace
}  // namespace horus::testing
