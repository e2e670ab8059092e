// Semantics of the hybrid states (§3.3/§3.4) at the operator level,
// forced deterministically through the scripted policy: in lap/rex,
// tuples read from the left are matched approximately while tuples
// read from the right are matched exactly — and vice versa in lex/rap.

#include <gtest/gtest.h>

#include "exec/scan.h"
#include "testing/engine.h"

namespace aqp {
namespace adaptive {
namespace {

using engine_test::OneShardJoin;
using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Relation Strings(const std::vector<std::string>& values) {
  Relation r(Schema({{"s", ValueType::kString}}));
  for (const auto& v : values) {
    EXPECT_TRUE(r.Append(Tuple{Value(v)}).ok());
  }
  return r;
}

AdaptiveJoinOptions Scripted(std::vector<ScriptedTransition> script) {
  AdaptiveJoinOptions o;
  o.join.spec.sim_threshold = 0.8;
  o.adaptive.policy = AdaptivePolicy::kScripted;
  o.adaptive.script = std::move(script);
  return o;
}

// With strict alternation, left rows are read at steps 1, 3, 5, ... and
// right rows at steps 2, 4, 6, ...

TEST(HybridStatesTest, LapRexMatchesLeftVariantsOnly) {
  // Script lap/rex from the start. The right side stores a clean
  // value; a left-read variant (read later) must match approximately.
  const Relation left = Strings({"PADDING ROW ONE X", "SANTA CRISTINA VALGARDENA DI SOPRA TERME"});
  const Relation right = Strings({"SANTA CRISTINx VALGARDENA DI SOPRA TERME", "PADDING ROW TWO Y"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  OneShardJoin join(&ls, &rs, Scripted({{0, ProcessorState::kLapRex}}));
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  // left[1] ("...CRISTINA...") read at step 3 probes right's q-gram
  // index, which then holds right[0] ("...CRISTINx...") — approx match.
  EXPECT_EQ(*count, 1u);
  EXPECT_EQ(join.approximate_pairs(), 1u);
  EXPECT_EQ(join.state(), ProcessorState::kLapRex);
}

TEST(HybridStatesTest, LapRexMissesRightVariants) {
  // Mirror case: the variant arrives on the *right*, which probes
  // exactly in lap/rex — the pair must be missed.
  const Relation left = Strings({"SANTA CRISTINA VALGARDENA DI SOPRA TERME", "PADDING ROW ONE X"});
  const Relation right = Strings({"PADDING ROW TWO Y", "SANTA CRISTINx VALGARDENA DI SOPRA TERME"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  OneShardJoin join(&ls, &rs, Scripted({{0, ProcessorState::kLapRex}}));
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(HybridStatesTest, LexRapIsTheMirrorImage) {
  // Same layouts, lex/rap: now right-read variants match, left-read
  // variants miss.
  {
    const Relation left = Strings({"SANTA CRISTINA VALGARDENA DI SOPRA TERME", "PADDING ROW ONE X"});
    const Relation right = Strings({"PADDING ROW TWO Y", "SANTA CRISTINx VALGARDENA DI SOPRA TERME"});
    exec::RelationScan ls(&left);
    exec::RelationScan rs(&right);
    OneShardJoin join(&ls, &rs, Scripted({{0, ProcessorState::kLexRap}}));
    auto count = exec::CountAll(&join);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 1u) << "right-read variant must match in lex/rap";
  }
  {
    const Relation left = Strings({"PADDING ROW ONE X", "SANTA CRISTINA VALGARDENA DI SOPRA TERME"});
    const Relation right = Strings({"SANTA CRISTINx VALGARDENA DI SOPRA TERME", "PADDING ROW TWO Y"});
    exec::RelationScan ls(&left);
    exec::RelationScan rs(&right);
    OneShardJoin join(&ls, &rs, Scripted({{0, ProcessorState::kLexRap}}));
    auto count = exec::CountAll(&join);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 0u) << "left-read variant must miss in lex/rap";
  }
}

TEST(HybridStatesTest, ExactPairsFoundInEveryState) {
  // Equal keys must match in all four states regardless of read order.
  for (ProcessorState state : kAllProcessorStates) {
    const Relation left = Strings({"IDENTICAL KEY VALUE ONE", "OTHER A"});
    const Relation right = Strings({"OTHER B", "IDENTICAL KEY VALUE ONE"});
    exec::RelationScan ls(&left);
    exec::RelationScan rs(&right);
    OneShardJoin join(&ls, &rs, Scripted({{0, state}}));
    auto count = exec::CountAll(&join);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 1u) << ProcessorStateName(state);
    EXPECT_EQ(join.exact_pairs(), 1u) << ProcessorStateName(state);
  }
}

TEST(HybridStatesTest, MidRunScriptSwitchesChangeBehaviour) {
  // Variants before the switch are missed, after the switch they are
  // caught: the state change has a visible effect at the right moment.
  // Parents differ from each other in a 6-character block (cross-pair
  // similarity stays far below the threshold); each child is its
  // parent with a single-character edit (similarity ~0.91).
  std::vector<std::string> left_rows, right_rows;
  for (int i = 0; i < 10; ++i) {
    const std::string block(6, static_cast<char>('A' + i));
    right_rows.push_back("CLEAN PARENT ROW " + block +
                         " WITH LONG TAIL END");
    left_rows.push_back("CLEAN PARENT ROW " + block +
                        " WITH LONG TAIL ENd");
  }
  const Relation left = Strings(left_rows);
  const Relation right = Strings(right_rows);
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  // Switch to all-approximate at step 10 (after 5 left + 5 right reads).
  OneShardJoin join(&ls, &rs, Scripted({{10, ProcessorState::kLapRap}}));
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  // Left rows 0..4 probed exactly (missed); 5..9 probed approximately
  // against the caught-up right index (found). Right rows arriving
  // after the switch probe the left q-gram index and recover the early
  // variants whose parents hadn't arrived yet... with strict
  // alternation parent i arrives right after child i, so exactly the
  // post-switch pairs match:
  EXPECT_EQ(*count, 5u);
  // Both sides caught up.
  EXPECT_EQ(join.shard(0).core().catchup_tuples(), 10u);
}

}  // namespace
}  // namespace adaptive
}  // namespace aqp
