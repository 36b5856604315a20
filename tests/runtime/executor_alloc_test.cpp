// The monitor's hot path allocates nothing of its own: once warmed up,
// GroupExecutor::post over interleaved group keys, including posts made
// from inside running tasks, performs zero heap allocations beyond what
// the tasks themselves need. The tasks here capture one pointer, which
// fits std::function's inline storage, so the expected count is zero.
#define HORUS_TEST_COUNT_ALLOCS
#include "../common/test_util.hpp"

#include <gtest/gtest.h>

#include "horus/obs/metrics.hpp"
#include "horus/runtime/executor.hpp"

namespace horus::runtime {
namespace {

using testing::AllocCounter;

struct Ctx {
  GroupExecutor ex;
  std::uint64_t ran = 0;
};

/// One top-level post over group `g` whose task posts two nested tasks
/// onto other groups.
void post_round(Ctx* c, GroupKey g) {
  c->ex.post(g, [c] {
    ++c->ran;
    c->ex.post(c->ran % 3, [c] { ++c->ran; });
    c->ex.post(c->ran % 5 + 7, [c] { ++c->ran; });
  });
}

TEST(ExecutorAlloc, GroupExecutorPostAllocatesNothing) {
#ifdef HORUS_CHECK_RACES
  GTEST_SKIP() << "the horus-race frame wraps (and allocates) every task";
#endif
  obs::set_enabled(false);  // no queue-delay probe wrap
  Ctx c;
  for (GroupKey g = 0; g < 1000; ++g) post_round(&c, g % 11);  // warm-up
  ASSERT_EQ(c.ran, 3000u);

  AllocCounter counter;
  constexpr int kRounds = 10'000;
  for (int i = 0; i < kRounds; ++i) post_round(&c, static_cast<GroupKey>(i % 11));
  const std::uint64_t allocs = counter.allocations();
  obs::set_enabled(true);
  EXPECT_EQ(c.ran, 3000u + 3u * kRounds);
  EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / (3 * kRounds)
                        << " allocations per posted task";
}

}  // namespace
}  // namespace horus::runtime
