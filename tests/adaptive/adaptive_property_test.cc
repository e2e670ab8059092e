// Cross-pattern invariants of the adaptive operator: the adaptive
// result is always bracketed by the all-exact and all-approximate
// baselines, and the accounting is self-consistent.

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "exec/scan.h"
#include "testing/engine.h"

namespace aqp {
namespace adaptive {
namespace {

using datagen::PerturbationPattern;
using datagen::TestCase;
using datagen::TestCaseOptions;
using engine_test::OneShardJoin;

class AdaptivePropertyTest
    : public ::testing::TestWithParam<
          std::tuple<PerturbationPattern, bool, uint64_t>> {};

struct RunOutcome {
  size_t distinct_children = 0;
  uint64_t transitions = 0;
  uint64_t total_steps = 0;
};

RunOutcome ExecuteRun(const TestCase& tc, AdaptivePolicy policy,
               ProcessorState pinned) {
  AdaptiveJoinOptions o;
  o.join.spec.left_column = datagen::kAccidentsLocationColumn;
  o.join.spec.right_column = datagen::kAtlasLocationColumn;
  o.join.spec.sim_threshold = 0.85;
  o.adaptive.parent_side = exec::Side::kRight;
  o.adaptive.parent_table_size = tc.parent.size();
  o.adaptive.delta_adapt = 40;
  o.adaptive.window = 40;
  o.adaptive.policy = policy;
  o.adaptive.initial_state = pinned;
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  OneShardJoin join(&child, &parent, o);
  auto count = exec::CountAll(&join);
  EXPECT_TRUE(count.ok()) << count.status().ToString();
  RunOutcome outcome;
  outcome.distinct_children =
      join.distinct_matched(exec::Side::kLeft);
  outcome.transitions = join.cost().total_transitions();
  outcome.total_steps = join.cost().total_steps();
  return outcome;
}

TEST_P(AdaptivePropertyTest, AdaptiveBracketedByBaselines) {
  const auto [pattern, both, seed] = GetParam();
  TestCaseOptions options;
  options.pattern = pattern;
  options.perturb_parent = both;
  options.variant_rate = 0.15;
  options.atlas.size = 250;
  options.accidents.size = 500;
  options.seed = seed;
  auto tc = datagen::GenerateTestCase(options);
  ASSERT_TRUE(tc.ok()) << tc.status().ToString();

  const RunOutcome exact =
      ExecuteRun(*tc, AdaptivePolicy::kPinned, ProcessorState::kLexRex);
  const RunOutcome approx =
      ExecuteRun(*tc, AdaptivePolicy::kPinned, ProcessorState::kLapRap);
  const RunOutcome adaptive =
      ExecuteRun(*tc, AdaptivePolicy::kAdaptive, ProcessorState::kLexRex);

  // The exact run finds exactly the clean pairs.
  EXPECT_EQ(exact.distinct_children, tc->CleanPairCount());
  // The approximate run dominates everything.
  EXPECT_GE(approx.distinct_children, adaptive.distinct_children);
  // The adaptive run never does worse than all-exact.
  EXPECT_GE(adaptive.distinct_children, exact.distinct_children);
  // All runs process every input tuple exactly once.
  const uint64_t expected_steps = tc->child.size() + tc->parent.size();
  EXPECT_EQ(exact.total_steps, expected_steps);
  EXPECT_EQ(approx.total_steps, expected_steps);
  EXPECT_EQ(adaptive.total_steps, expected_steps);
  // Pinned runs never transition.
  EXPECT_EQ(exact.transitions, 0u);
  EXPECT_EQ(approx.transitions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PatternsAndSeeds, AdaptivePropertyTest,
    ::testing::Combine(
        ::testing::Values(PerturbationPattern::kUniform,
                          PerturbationPattern::kLowIntensityRegions,
                          PerturbationPattern::kFewHighIntensityRegions,
                          PerturbationPattern::kManyHighIntensityRegions),
        ::testing::Bool(), ::testing::Values(3u, 99u)));

}  // namespace
}  // namespace adaptive
}  // namespace aqp
