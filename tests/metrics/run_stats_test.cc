#include "metrics/run_stats.h"

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "exec/scan.h"
#include "testing/engine.h"

namespace aqp {
namespace metrics {
namespace {

using adaptive::ProcessorState;
using adaptive::StateWeights;

TEST(RunStatsTest, WeightedCostMatchesHandComputation) {
  RunStats stats;
  stats.steps_per_state = {100, 0, 0, 10};
  stats.transitions_into = {0, 0, 0, 1};
  const double cost = stats.WeightedCost(StateWeights::Paper());
  EXPECT_DOUBLE_EQ(cost, 100.0 * 1.0 + 10.0 * 70.2 + 173.42);
}

TEST(RunStatsTest, StepShare) {
  RunStats stats;
  stats.total_steps = 200;
  stats.steps_per_state = {50, 0, 0, 150};
  EXPECT_DOUBLE_EQ(stats.StepShare(ProcessorState::kLexRex), 0.25);
  EXPECT_DOUBLE_EQ(stats.StepShare(ProcessorState::kLapRap), 0.75);
  RunStats empty;
  EXPECT_DOUBLE_EQ(empty.StepShare(ProcessorState::kLexRex), 0.0);
}

TEST(RunStatsTest, SummarizeRunCapturesCore) {
  datagen::TestCaseOptions options;
  options.atlas.size = 150;
  options.accidents.size = 300;
  options.variant_rate = 0.1;
  auto tc = datagen::GenerateTestCase(options);
  ASSERT_TRUE(tc.ok());

  adaptive::AdaptiveJoinOptions jo;
  jo.join.spec.left_column = datagen::kAccidentsLocationColumn;
  jo.join.spec.right_column = datagen::kAtlasLocationColumn;
  jo.adaptive.parent_side = exec::Side::kRight;
  jo.adaptive.parent_table_size = tc->parent.size();
  jo.adaptive.delta_adapt = 40;
  jo.adaptive.window = 40;
  exec::RelationScan child(&tc->child);
  exec::RelationScan parent(&tc->parent);
  exec::parallel::ParallelAdaptiveJoin join(&child, &parent,
                                            engine_test::OnShards(jo, 2));
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());

  const RunStats stats = SummarizeRun(join, "test-run", 1.5);
  EXPECT_EQ(stats.label, "test-run");
  EXPECT_EQ(stats.result_pairs, *count);
  EXPECT_EQ(stats.total_steps, tc->child.size() + tc->parent.size());
  EXPECT_DOUBLE_EQ(stats.wall_seconds, 1.5);
  EXPECT_GT(stats.memory_bytes, 0u);
  // Memory and peak come from the join itself, summed over both shards.
  EXPECT_EQ(stats.memory_bytes, join.memory_bytes());
  EXPECT_EQ(stats.peak_memory_bytes, join.peak_memory_bytes());
  EXPECT_EQ(stats.exact_pairs + stats.approx_pairs, stats.result_pairs);
  EXPECT_EQ(stats.distinct_children_matched,
            join.distinct_matched(exec::Side::kLeft));
  uint64_t sum = 0;
  for (uint64_t s : stats.steps_per_state) sum += s;
  EXPECT_EQ(sum, stats.total_steps);
  // Catch-up work is summed over the shards.
  uint64_t catchup = 0;
  for (size_t i = 0; i < join.num_shards(); ++i) {
    catchup += join.shard(i).core().catchup_tuples();
  }
  EXPECT_EQ(stats.catchup_tuples, catchup);
}

}  // namespace
}  // namespace metrics
}  // namespace aqp
