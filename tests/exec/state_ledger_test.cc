// The join's per-state time ledger (state_time_ns / transition_time_ns,
// the raw material of RunStats::state_time_ns and the §4.3 weight
// calibration): one clock pair per epoch and per transition, so the
// ledger must fit inside the drive's wall time and be non-zero exactly
// where the run did work.

#include <gtest/gtest.h>

#include "common/timer.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "integration/reference_runs.h"

namespace aqp {
namespace {

using adaptive::ProcessorState;

class StateLedgerTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StateLedgerTest, LedgerFitsWallTimeAndCoversExactlyTheWorkDone) {
  const size_t shards = GetParam();
  const datagen::TestCase tc = parity::PaperCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  exec::parallel::ParallelAdaptiveJoin join(
      &child, &parent,
      engine_test::OnShards(parity::AdaptiveOptions(tc), shards));
  Timer wall;
  auto count = exec::CountAll(&join);
  const int64_t wall_ns = wall.ElapsedNanos();
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  // The run must adapt, or "exactly the states entered" is vacuous.
  ASSERT_GT(join.cost().total_transitions(), 0u);

  int64_t ledger_ns = 0;
  size_t states_with_steps = 0;
  for (ProcessorState s : adaptive::kAllProcessorStates) {
    SCOPED_TRACE(adaptive::ProcessorStateName(s));
    ledger_ns += join.state_time_ns(s) + join.transition_time_ns(s);
    const bool stepped = join.cost().steps(s) > 0;
    states_with_steps += stepped ? 1 : 0;
    EXPECT_EQ(join.state_time_ns(s) > 0, stepped);
    EXPECT_EQ(join.transition_time_ns(s) > 0, join.cost().transitions(s) > 0);
  }
  EXPECT_GE(states_with_steps, 2u);
  EXPECT_LE(ledger_ns, wall_ns);
}

INSTANTIATE_TEST_SUITE_P(OneAndTwoShards, StateLedgerTest,
                         ::testing::Values(size_t{1}, size_t{2}));

}  // namespace
}  // namespace aqp
