// The paper's hybrid operator — the join engine on one shard — under
// its three control policies.

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "exec/scan.h"
#include "join/brute_force.h"
#include "testing/engine.h"

namespace aqp {
namespace adaptive {
namespace {

using datagen::PerturbationPattern;
using datagen::TestCase;
using datagen::TestCaseOptions;
using engine_test::OneShardJoin;

TestCase SmallCase(double variant_rate, PerturbationPattern pattern =
                                            PerturbationPattern::kUniform) {
  TestCaseOptions options;
  options.pattern = pattern;
  options.variant_rate = variant_rate;
  options.atlas.size = 300;
  options.accidents.size = 600;
  options.seed = 20090324;
  auto tc = datagen::GenerateTestCase(options);
  EXPECT_TRUE(tc.ok()) << tc.status().ToString();
  return std::move(tc).ValueOrDie();
}

AdaptiveJoinOptions JoinOptions(const TestCase& tc) {
  AdaptiveJoinOptions o;
  o.join.spec.left_column = datagen::kAccidentsLocationColumn;
  o.join.spec.right_column = datagen::kAtlasLocationColumn;
  o.join.spec.sim_threshold = 0.85;
  o.adaptive.parent_side = exec::Side::kRight;
  o.adaptive.parent_table_size = tc.parent.size();
  o.adaptive.delta_adapt = 50;
  o.adaptive.window = 50;
  return o;
}

size_t RunAndCount(OneShardJoin* join) {
  auto count = exec::CountAll(join);
  EXPECT_TRUE(count.ok()) << count.status().ToString();
  return count.ok() ? *count : 0;
}

TEST(AdaptiveJoinTest, PinnedExactEqualsSHJoin) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);
  o.adaptive.policy = AdaptivePolicy::kPinned;
  o.adaptive.initial_state = ProcessorState::kLexRex;
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  OneShardJoin pinned(&child, &parent, o);
  const size_t pinned_count = RunAndCount(&pinned);

  // SHJoin's result: every exactly equal pair.
  EXPECT_EQ(pinned_count,
            join::BruteForceExactJoin(tc.child, tc.parent, o.join.spec).size());
  // Pinned runs never transition.
  EXPECT_EQ(pinned.cost().total_transitions(), 0u);
  EXPECT_EQ(pinned.cost().steps(ProcessorState::kLexRex),
            pinned.cost().total_steps());
}

TEST(AdaptiveJoinTest, PinnedApproxEqualsSSHJoin) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);
  o.adaptive.policy = AdaptivePolicy::kPinned;
  o.adaptive.initial_state = ProcessorState::kLapRap;
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  OneShardJoin pinned(&child, &parent, o);
  const size_t pinned_count = RunAndCount(&pinned);

  // SSHJoin's result: every pair at or above θ_sim.
  EXPECT_EQ(pinned_count, join::BruteForceSimilarityJoin(tc.child, tc.parent,
                                                         o.join.spec)
                              .size());
}

TEST(AdaptiveJoinTest, CleanDataStaysExact) {
  const TestCase tc = SmallCase(0.0);
  AdaptiveJoinOptions o = JoinOptions(tc);
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  OneShardJoin join(&child, &parent, o);
  const size_t count = RunAndCount(&join);
  EXPECT_EQ(count, tc.child.size());  // every child matches
  EXPECT_EQ(join.state(), ProcessorState::kLexRex);
  EXPECT_EQ(join.cost().total_transitions(), 0u);
  EXPECT_EQ(join.trace().transition_count(), 0u);
  // Assessments did happen.
  EXPECT_GT(join.trace().size(), 0u);
}

TEST(AdaptiveJoinTest, DetectsVariantsAndRecoversMatches) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);

  // Baseline: all-exact finds only the clean pairs.
  AdaptiveJoinOptions exact_o = o;
  exact_o.adaptive.policy = AdaptivePolicy::kPinned;
  exec::RelationScan child_e(&tc.child);
  exec::RelationScan parent_e(&tc.parent);
  OneShardJoin exact_join(&child_e, &parent_e, exact_o);
  const size_t exact_count = RunAndCount(&exact_join);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  OneShardJoin join(&child, &parent, o);
  const size_t adaptive_count = RunAndCount(&join);

  // It must have reacted...
  EXPECT_GT(join.trace().transition_count(), 0u);
  ASSERT_TRUE(join.trace().first_transition_step().has_value());
  // ...and recovered strictly more matches than the exact baseline.
  EXPECT_GT(adaptive_count, exact_count);
  // Switch catch-up work was recorded.
  EXPECT_GT(join.shard(0).core().catchup_tuples(), 0u);
}

TEST(AdaptiveJoinTest, ThetaOutZeroNeverTriggers) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);
  o.adaptive.theta_out = 0.0;  // p-value can never be <= 0 on real data
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  OneShardJoin join(&child, &parent, o);
  RunAndCount(&join);
  EXPECT_EQ(join.state(), ProcessorState::kLexRex);
  EXPECT_EQ(join.cost().total_transitions(), 0u);
}

TEST(AdaptiveJoinTest, ScriptedPolicyFollowsScript) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);
  o.adaptive.policy = AdaptivePolicy::kScripted;
  o.adaptive.script = {{100, ProcessorState::kLapRap},
                       {300, ProcessorState::kLexRex}};
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  OneShardJoin join(&child, &parent, o);
  RunAndCount(&join);
  EXPECT_EQ(join.cost().transitions(ProcessorState::kLapRap), 1u);
  EXPECT_EQ(join.cost().transitions(ProcessorState::kLexRex), 1u);
  EXPECT_EQ(join.state(), ProcessorState::kLexRex);
  // Steps in AA cover roughly the scripted interval.
  EXPECT_GT(join.cost().steps(ProcessorState::kLapRap), 150u);
  EXPECT_LT(join.cost().steps(ProcessorState::kLapRap), 260u);
}

TEST(AdaptiveJoinTest, StepAccountingConsistent) {
  const TestCase tc = SmallCase(0.1);
  AdaptiveJoinOptions o = JoinOptions(tc);
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  OneShardJoin join(&child, &parent, o);
  RunAndCount(&join);
  uint64_t per_state_sum = 0;
  for (ProcessorState s : kAllProcessorStates) {
    per_state_sum += join.cost().steps(s);
  }
  EXPECT_EQ(per_state_sum, join.cost().total_steps());
  EXPECT_EQ(join.cost().total_steps(), tc.child.size() + tc.parent.size());
  EXPECT_EQ(join.steps(), join.cost().total_steps());
}

TEST(AdaptiveJoinTest, RejectsInvalidAdaptiveOptionsAtOpen) {
  const TestCase tc = SmallCase(0.0);
  AdaptiveJoinOptions o = JoinOptions(tc);
  o.adaptive.delta_adapt = 0;
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  OneShardJoin join(&child, &parent, o);
  EXPECT_TRUE(join.Open().IsInvalidArgument());
}

TEST(AdaptiveJoinTest, TraceRecordsAssessments) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  OneShardJoin join(&child, &parent, o);
  RunAndCount(&join);
  ASSERT_GT(join.trace().size(), 0u);
  // Assessment steps are spaced at least delta_adapt apart.
  uint64_t prev = 0;
  for (const AssessmentRecord& r : join.trace().records()) {
    if (prev != 0) {
      EXPECT_GE(r.assessment.step - prev, o.adaptive.delta_adapt);
    }
    prev = r.assessment.step;
  }
}

}  // namespace
}  // namespace adaptive
}  // namespace aqp
