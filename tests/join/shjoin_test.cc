// SHJoin (§2.1) is the join engine pinned to lex/rex: both inputs
// probe the other side's exact hash table.

#include <gtest/gtest.h>

#include "exec/scan.h"
#include "join/brute_force.h"
#include "testing/engine.h"

namespace aqp {
namespace join {
namespace {

using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

using engine_test::ExactJoin;

Relation Strings(const std::vector<std::string>& values) {
  Relation r(Schema({{"s", ValueType::kString}}));
  for (const auto& v : values) {
    EXPECT_TRUE(r.Append(Tuple{Value(v)}).ok());
  }
  return r;
}

TEST(SHJoinTest, MatchesBruteForceExactJoin) {
  const Relation left = Strings({"A", "B", "C", "A", "D"});
  const Relation right = Strings({"B", "A", "E", "A"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  ExactJoin join(&ls, &rs, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok());
  const auto expected = BruteForceExactJoin(left, right, options.spec);
  EXPECT_EQ(result->size(), expected.size());
  EXPECT_EQ(join.exact_pairs(), expected.size());
  EXPECT_EQ(join.approximate_pairs(), 0u);
}

TEST(SHJoinTest, OutputConcatenatesLeftThenRight) {
  Relation left(Schema({{"id", ValueType::kInt64},
                        {"loc", ValueType::kString}}));
  ASSERT_TRUE(left.Append(Tuple{Value(1), Value("X")}).ok());
  Relation right(Schema({{"loc", ValueType::kString},
                         {"lat", ValueType::kDouble}}));
  ASSERT_TRUE(right.Append(Tuple{Value("X"), Value(45.5)}).ok());
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec.left_column = 1;
  options.spec.right_column = 0;
  ExactJoin join(&ls, &rs, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  const Tuple& row = result->row(0);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row.at(0).AsInt64(), 1);
  EXPECT_EQ(row.at(1).AsString(), "X");
  EXPECT_EQ(row.at(2).AsString(), "X");
  EXPECT_DOUBLE_EQ(row.at(3).AsDouble(), 45.5);
}

TEST(SHJoinTest, EmitSimilarityAppendsColumn) {
  const Relation left = Strings({"A"});
  const Relation right = Strings({"A"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.emit_similarity = true;
  ExactJoin join(&ls, &rs, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_DOUBLE_EQ(result->row(0).at(2).AsDouble(), 1.0);
  EXPECT_EQ(result->schema().field(2).name, "sim");
}

TEST(SHJoinTest, EmptyInputsProduceEmptyResult) {
  const Relation left = Strings({});
  const Relation right = Strings({"A"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  ExactJoin join(&ls, &rs, SymmetricJoinOptions{});
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(SHJoinTest, VariantsDoNotMatchExactly) {
  const Relation left = Strings({"SANTA CRISTINA"});
  const Relation right = Strings({"SANTA CRISTINx"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  ExactJoin join(&ls, &rs, SymmetricJoinOptions{});
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(SHJoinTest, DuplicateKeysProduceCrossProduct) {
  const Relation left = Strings({"K", "K"});
  const Relation right = Strings({"K", "K", "K"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  ExactJoin join(&ls, &rs, SymmetricJoinOptions{});
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);
}

TEST(SHJoinTest, RejectsInvalidSpecAtOpen) {
  const Relation left = Strings({"A"});
  const Relation right = Strings({"A"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec.left_column = 9;
  ExactJoin join(&ls, &rs, options);
  EXPECT_TRUE(join.Open().IsInvalidArgument());
}

TEST(SHJoinTest, QuiescentExactlyWhenNoPendingOutput) {
  const Relation left = Strings({"K", "K"});
  const Relation right = Strings({"K", "K"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  ExactJoin join(&ls, &rs, SymmetricJoinOptions{});
  ASSERT_TRUE(join.Open().ok());
  EXPECT_TRUE(join.quiescent());
  // Reading the second K from the right yields 1 match... pull tuples
  // and observe quiescence toggling: after a Next() that returned a
  // tuple, the operator may or may not be quiescent, but after EOS it
  // must be.
  while (true) {
    auto next = join.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
  }
  EXPECT_TRUE(join.quiescent());
  ASSERT_TRUE(join.Close().ok());
}

TEST(SHJoinTest, StepsEqualTuplesRead) {
  const Relation left = Strings({"A", "B", "C"});
  const Relation right = Strings({"D", "E"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  ExactJoin join(&ls, &rs, SymmetricJoinOptions{});
  ASSERT_TRUE(exec::CountAll(&join).ok());
  EXPECT_EQ(join.steps(), 5u);
  EXPECT_TRUE(join.stream_done());
  EXPECT_FALSE(join.finalized_early());
}

}  // namespace
}  // namespace join
}  // namespace aqp
