// Failure injection: child operators that error or misbehave must not
// corrupt join state, leak opens, or mask the original error.

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "testing/engine.h"

namespace aqp {
namespace join {
namespace {

using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

using engine_test::ApproxJoin;
using engine_test::ExactJoin;

Schema OneCol() { return Schema({{"s", ValueType::kString}}); }

Relation Strings(const std::vector<std::string>& values) {
  Relation r(OneCol());
  for (const auto& v : values) {
    EXPECT_TRUE(r.Append(Tuple{Value(v)}).ok());
  }
  return r;
}

/// Operator that yields `good` tuples, then fails with an IO error.
class FlakyOperator : public exec::Operator {
 public:
  FlakyOperator(Schema schema, int good)
      : schema_(std::move(schema)), good_(good) {}
  Status Open() override {
    ++opens_;
    return Status::OK();
  }
  Result<std::optional<Tuple>> Next() override {
    if (produced_ >= good_) return Status::IOError("stream dropped");
    ++produced_;
    return std::optional<Tuple>(
        Tuple{Value("VALUE " + std::to_string(produced_))});
  }
  Status Close() override {
    ++closes_;
    return Status::OK();
  }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "FlakyOperator"; }
  int opens() const { return opens_; }
  int closes() const { return closes_; }

 private:
  Schema schema_;
  int good_;
  int produced_ = 0;
  int opens_ = 0;
  int closes_ = 0;
};

/// Operator whose Open() fails.
class UnopenableOperator : public exec::Operator {
 public:
  explicit UnopenableOperator(Schema schema) : schema_(std::move(schema)) {}
  Status Open() override { return Status::IOError("cannot connect"); }
  Result<std::optional<Tuple>> Next() override {
    return Status::Internal("Next after failed Open");
  }
  Status Close() override { return Status::OK(); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "UnopenableOperator"; }

 private:
  Schema schema_;
};

TEST(FailureInjectionTest, ChildErrorSurfacesThroughJoin) {
  const Relation right = Strings({"A", "B", "C", "D"});
  FlakyOperator left(OneCol(), 2);
  exec::RelationScan right_scan(&right);
  ExactJoin join(&left, &right_scan, SymmetricJoinOptions{});
  ASSERT_TRUE(join.Open().ok());
  Status seen = Status::OK();
  while (true) {
    auto next = join.Next();
    if (!next.ok()) {
      seen = next.status();
      break;
    }
    if (!next->has_value()) break;
  }
  EXPECT_TRUE(seen.IsIOError()) << seen;
}

TEST(FailureInjectionTest, FailedChildOpenPropagates) {
  const Relation right = Strings({"A"});
  UnopenableOperator left(OneCol());
  exec::RelationScan right_scan(&right);
  ExactJoin join(&left, &right_scan, SymmetricJoinOptions{});
  EXPECT_TRUE(join.Open().IsIOError());
}

TEST(FailureInjectionTest, FailedRightOpenClosesAlreadyOpenedLeft) {
  // Regression: when right_->Open() fails, the join's Open() returns
  // with open_ == false — its Close() refuses to run, so if the left
  // child is not closed on the error path it stays open forever.
  FlakyOperator left(OneCol(), 4);
  UnopenableOperator right(OneCol());
  ExactJoin join(&left, &right, SymmetricJoinOptions{});
  EXPECT_TRUE(join.Open().IsIOError());
  EXPECT_EQ(left.opens(), 1);
  EXPECT_EQ(left.closes(), 1);
  EXPECT_TRUE(join.Close().IsFailedPrecondition());

  // The join is still usable against an openable right child.
  const Relation data = Strings({"A"});
  exec::RelationScan good_right(&data);
  ExactJoin retry(&left, &good_right, SymmetricJoinOptions{});
  ASSERT_TRUE(retry.Open().ok());
  EXPECT_EQ(left.opens(), 2);
  ASSERT_TRUE(retry.Close().ok());
  EXPECT_EQ(left.closes(), 2);
}

TEST(FailureInjectionTest, AdaptiveJoinFailedRightOpenClosesLeft) {
  FlakyOperator left(OneCol(), 4);
  UnopenableOperator right(OneCol());
  adaptive::AdaptiveJoinOptions options;
  exec::parallel::ParallelAdaptiveJoin join(&left, &right,
                                            engine_test::OnShards(options));
  EXPECT_TRUE(join.Open().IsIOError());
  EXPECT_EQ(left.opens(), 1);
  EXPECT_EQ(left.closes(), 1);
}

TEST(FailureInjectionTest, JoinLifecycleErrors) {
  const Relation data = Strings({"A"});
  exec::RelationScan l(&data);
  exec::RelationScan r(&data);
  ExactJoin join(&l, &r, SymmetricJoinOptions{});
  EXPECT_TRUE(join.Next().status().IsFailedPrecondition());
  EXPECT_TRUE(join.Close().IsFailedPrecondition());
  ASSERT_TRUE(join.Open().ok());
  EXPECT_TRUE(join.Open().IsFailedPrecondition());
  ASSERT_TRUE(join.Close().ok());
}

TEST(FailureInjectionTest, BothInputsEmpty) {
  const Relation empty = Strings({});
  exec::RelationScan l(&empty);
  exec::RelationScan r(&empty);
  ApproxJoin join(&l, &r, SymmetricJoinOptions{});
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  EXPECT_EQ(join.steps(), 0u);
}

TEST(FailureInjectionTest, AdaptiveJoinWithEmptyParent) {
  const Relation child = Strings({"A", "B"});
  const Relation parent = Strings({});
  exec::RelationScan l(&child);
  exec::RelationScan r(&parent);
  adaptive::AdaptiveJoinOptions options;
  options.adaptive.parent_table_size = 0;
  exec::parallel::ParallelAdaptiveJoin join(&l, &r,
                                            engine_test::OnShards(options));
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(FailureInjectionTest, ErrorDuringDrainAfterOneSideDone) {
  // Left exhausts cleanly; right fails during the drain phase.
  const Relation left_data = Strings({"A"});
  exec::RelationScan left(&left_data);
  FlakyOperator right(OneCol(), 3);
  ExactJoin join(&left, &right, SymmetricJoinOptions{});
  ASSERT_TRUE(join.Open().ok());
  Status seen = Status::OK();
  while (true) {
    auto next = join.Next();
    if (!next.ok()) {
      seen = next.status();
      break;
    }
    if (!next->has_value()) break;
  }
  EXPECT_TRUE(seen.IsIOError());
}

TEST(FailureInjectionTest, MismatchedSchemaRejectedBeforeChildrenOpen) {
  Relation numbers(Schema({{"n", ValueType::kInt64}}));
  ASSERT_TRUE(numbers.Append(Tuple{Value(1)}).ok());
  const Relation strings = Strings({"A"});
  FlakyOperator never_opened(Schema({{"n", ValueType::kInt64}}), 1);
  exec::RelationScan number_scan(&numbers);
  exec::RelationScan string_scan(&strings);
  ExactJoin join(&number_scan, &string_scan, SymmetricJoinOptions{});
  EXPECT_TRUE(join.Open().IsInvalidArgument());  // int column as key
}

TEST(FailureInjectionTest, ScanFailpointSurfacesWithBreadcrumbAndClears) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::DisarmAll();
  const Relation left_data = Strings({"A", "B", "C"});
  const Relation right_data = Strings({"A", "B"});
  exec::RelationScan left(&left_data);
  exec::RelationScan right(&right_data);
  ExactJoin join(&left, &right, SymmetricJoinOptions{});
  fail::ScopedFailpoint guard(
      fail::site::kScanNext,
      fail::Policy::Once(Status::IOError("injected fault")));
  ASSERT_TRUE(join.Open().ok());
  Status seen = Status::OK();
  while (true) {
    auto next = join.Next();
    if (!next.ok()) {
      seen = next.status();
      break;
    }
    if (!next->has_value()) break;
  }
  ASSERT_TRUE(seen.IsIOError()) << seen;
  EXPECT_NE(seen.message().find("site=scan.next"), std::string::npos)
      << seen;
  // The error exit left the join closable and the plan rerunnable.
  ASSERT_TRUE(join.Close().ok());
  fail::DisarmAll();
  exec::RelationScan left2(&left_data);
  exec::RelationScan right2(&right_data);
  ExactJoin retry(&left2, &right2, SymmetricJoinOptions{});
  auto count = exec::CountAll(&retry);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 2u);  // A and B match themselves
}

TEST(FailureInjectionTest, ParallelOpenFailpointClosesEveryOpenedChild) {
  // OpenGuard audit, failpoint-driven: the parallel coordinator's Open
  // opens both children and then validates; a failure injected at that
  // point must close both before returning (the composite's own open_
  // flag stays false, so nothing else ever would).
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::DisarmAll();
  FlakyOperator left(OneCol(), 16);
  FlakyOperator right(OneCol(), 16);
  exec::parallel::ParallelJoinOptions options;
  options.num_shards = 2;
  exec::parallel::ParallelAdaptiveJoin join(&left, &right, options);
  {
    fail::ScopedFailpoint guard(
        fail::site::kParallelOpen,
        fail::Policy::Once(Status::IOError("injected fault")));
    Status s = join.Open();
    ASSERT_TRUE(s.IsIOError()) << s;
    EXPECT_NE(s.message().find("site=parallel.open"), std::string::npos)
        << s;
  }
  EXPECT_EQ(left.opens(), 1);
  EXPECT_EQ(left.closes(), 1);
  EXPECT_EQ(right.opens(), 1);
  EXPECT_EQ(right.closes(), 1);
  EXPECT_TRUE(join.Close().IsFailedPrecondition());
}

}  // namespace
}  // namespace join
}  // namespace aqp
