// The batch protocol (NextColumnBatch): its contracts on sources, the
// default Next()-adapter, the batched drains, and control-point
// quiescence of the join engine.

#include <gtest/gtest.h>

#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "exec/sink.h"
#include "exec/stream.h"
#include "testing/engine.h"

namespace aqp {
namespace exec {
namespace {

using storage::ColumnBatch;
using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Schema OneInt() { return Schema({{"x", ValueType::kInt64}}); }
Schema OneString() { return Schema({{"s", ValueType::kString}}); }

Relation Ints(int n) {
  Relation r(OneInt());
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(r.Append(Tuple{Value(i)}).ok());
  }
  return r;
}

Relation Strings(const std::vector<std::string>& values) {
  Relation r(OneString());
  for (const auto& v : values) {
    EXPECT_TRUE(r.Append(Tuple{Value(v)}).ok());
  }
  return r;
}

TEST(NextBatchTest, RelationScanFillsWholeBatches) {
  const Relation r = Ints(10);
  RelationScan scan(&r);
  ASSERT_TRUE(scan.Open().ok());
  ColumnBatch batch(&r.schema(), 4);
  std::vector<int64_t> seen;
  while (true) {
    ASSERT_TRUE(scan.NextColumnBatch(&batch).ok());
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), 4u);
    for (size_t i = 0; i < batch.size(); ++i) {
      seen.push_back(batch.Int64At(0, i));
    }
  }
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
  // Batch sizes: 4, 4, 2 — the last one partial.
  ASSERT_TRUE(scan.Close().ok());
}

TEST(NextBatchTest, MatchesNextOrderExactly) {
  const Relation r = Ints(7);
  RelationScan a(&r);
  RelationScan b(&r);
  ASSERT_TRUE(a.Open().ok());
  ASSERT_TRUE(b.Open().ok());
  ColumnBatch batch(&r.schema(), 3);
  std::vector<Tuple> from_batches;
  while (true) {
    ASSERT_TRUE(a.NextColumnBatch(&batch).ok());
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      from_batches.push_back(batch.MaterializeRow(i));
    }
  }
  for (const Tuple& expected : from_batches) {
    auto next = b.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next->has_value());
    EXPECT_EQ(**next, expected);
  }
  EXPECT_FALSE(b.Next()->has_value());
}

TEST(NextBatchTest, NotOpenFails) {
  const Relation r = Ints(3);
  RelationScan scan(&r);
  ColumnBatch batch(&r.schema(), 4);
  EXPECT_TRUE(scan.NextColumnBatch(&batch).IsFailedPrecondition());
}

/// Operator relying on the base-class Next() adapter.
class CountdownOperator : public Operator {
 public:
  explicit CountdownOperator(int n) : remaining_(n) {}
  Status Open() override { return Status::OK(); }
  Result<std::optional<Tuple>> Next() override {
    if (remaining_ <= 0) return std::optional<Tuple>();
    return std::optional<Tuple>(Tuple{Value(remaining_--)});
  }
  Status Close() override { return Status::OK(); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "CountdownOperator"; }

 private:
  Schema schema_ = Schema({{"x", ValueType::kInt64}});
  int remaining_;
};

TEST(NextBatchTest, DefaultAdapterLoopsNext) {
  CountdownOperator op(5);
  ASSERT_TRUE(op.Open().ok());
  ColumnBatch batch(&op.output_schema(), 2);
  ASSERT_TRUE(op.NextColumnBatch(&batch).ok());
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.Int64At(0, 0), 5);
  EXPECT_EQ(batch.Int64At(0, 1), 4);
  ASSERT_TRUE(op.NextColumnBatch(&batch).ok());
  EXPECT_EQ(batch.size(), 2u);
  ASSERT_TRUE(op.NextColumnBatch(&batch).ok());
  EXPECT_EQ(batch.size(), 1u);
  ASSERT_TRUE(op.NextColumnBatch(&batch).ok());
  EXPECT_TRUE(batch.empty());
}

/// Operator that fails on the nth Next() call.
class FailingOperator : public Operator {
 public:
  explicit FailingOperator(int fail_at) : fail_at_(fail_at) {}
  Status Open() override { return Status::OK(); }
  Result<std::optional<Tuple>> Next() override {
    if (++calls_ >= fail_at_) return Status::Internal("synthetic failure");
    return std::optional<Tuple>(Tuple{Value(calls_)});
  }
  Status Close() override { return Status::OK(); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "FailingOperator"; }

 private:
  Schema schema_ = Schema({{"x", ValueType::kInt64}});
  int fail_at_;
  int calls_ = 0;
};

TEST(NextBatchTest, DefaultAdapterPropagatesMidBatchError) {
  FailingOperator op(3);
  ASSERT_TRUE(op.Open().ok());
  ColumnBatch batch(&op.output_schema(), 8);
  Status s = op.NextColumnBatch(&batch);
  EXPECT_TRUE(s.IsInternal());
  // The partial batch is discarded, exactly like a failing Next().
  EXPECT_TRUE(batch.empty());
}

TEST(NextBatchTest, PushSourceDrainsQueueAndReportsBlocked) {
  PushSource src(OneString());
  ASSERT_TRUE(src.Open().ok());
  ASSERT_TRUE(src.Push(Tuple{Value("a")}).ok());
  ASSERT_TRUE(src.Push(Tuple{Value("b")}).ok());
  ColumnBatch batch(&src.output_schema(), 8);
  ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(src.blocked());
  // Live stream, no tuples yet: empty batch + blocked.
  ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(src.blocked());
  ASSERT_TRUE(src.Finish().ok());
  ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(src.blocked());
}

TEST(NextBatchTest, GeneratorSourceHonorsCapacity) {
  int produced = 0;
  GeneratorSource src(OneInt(), [&]() -> std::optional<Tuple> {
    if (produced >= 5) return std::nullopt;
    return Tuple{Value(produced++)};
  });
  ASSERT_TRUE(src.Open().ok());
  ColumnBatch batch(&src.output_schema(), 3);
  ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
  EXPECT_EQ(batch.size(), 3u);
  ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
  EXPECT_EQ(batch.size(), 2u);
  ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
  EXPECT_TRUE(batch.empty());
}

TEST(BatchedDrainTest, CollectAllIdenticalAcrossBatchSizes) {
  const Relation r = Ints(100);
  ExecOptions tiny;
  tiny.batch_size = 1;
  ExecOptions big;
  big.batch_size = 64;
  RelationScan s1(&r);
  RelationScan s2(&r);
  auto c1 = CollectAll(&s1, tiny);
  auto c2 = CollectAll(&s2, big);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  ASSERT_EQ(c1->size(), c2->size());
  for (size_t i = 0; i < c1->size(); ++i) {
    EXPECT_EQ(c1->row(i), c2->row(i));
  }
}

TEST(BatchedDrainTest, DrainLimitAndEarlyStopUnaffectedByBatching) {
  const Relation r = Ints(50);
  RelationScan scan(&r);
  DrainOptions options;
  options.limit = 7;
  options.batch_size = 16;
  size_t visited = 0;
  auto count = Drain(&scan, [&](const Tuple&) {
    ++visited;
    return true;
  }, options);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 7u);
  EXPECT_EQ(visited, 7u);

  RelationScan scan2(&r);
  size_t visited2 = 0;
  auto count2 = Drain(&scan2, [&](const Tuple& t) {
    ++visited2;
    return t.at(0).AsInt64() < 4;  // stop after visiting 4
  });
  ASSERT_TRUE(count2.ok());
  EXPECT_EQ(*count2, 5u);
  EXPECT_EQ(visited2, 5u);
}

TEST(BatchQuiescenceTest, BoundariesAreQuiescentAndClampedToControlPoints) {
  const Relation left = Strings({"A", "B", "C", "D", "E", "F", "G", "H"});
  const Relation right = Strings({"A", "B", "C", "D", "E", "F", "G", "H"});
  RelationScan ls(&left);
  RelationScan rs(&right);
  adaptive::AdaptiveJoinOptions base;
  base.join.batch_size = 64;  // larger than the clamp: the clamp must win
  base.adaptive.delta_adapt = 3;
  base.adaptive.parent_table_size = right.size();
  parallel::ParallelJoinOptions options = engine_test::OnShards(base);
  // The governor runs at every epoch control point; record where each
  // one lands and whether the engine was quiescent there.
  parallel::ParallelAdaptiveJoin* self = nullptr;
  std::vector<uint64_t> control_steps;
  size_t non_quiescent_calls = 0;
  options.governor = [&](const parallel::EpochView& view) {
    control_steps.push_back(view.steps);
    // Control points are quiescent by construction: no produced-but-
    // undelivered output may be pending when adaptation could fire...
    if (!self->quiescent()) ++non_quiescent_calls;
    return parallel::EpochDirective::kProceed;
  };
  parallel::ParallelAdaptiveJoin join(&ls, &rs, options);
  self = &join;
  auto collected = CollectAll(&join);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 8u);  // equi-join pairs
  EXPECT_EQ(join.steps(), 16u);
  // Every control point found the operator quiescent.
  EXPECT_GT(control_steps.size(), 0u);
  EXPECT_EQ(non_quiescent_calls, 0u);
  // No epoch ran past the declared control boundary.
  uint64_t previous = 0;
  for (uint64_t at : control_steps) {
    EXPECT_LE(at - previous, 3u);
    previous = at;
  }
  EXPECT_EQ(previous, 16u);
  EXPECT_TRUE(join.quiescent());
}

TEST(BatchQuiescenceTest, TupleAndBatchDrivesProduceIdenticalResults) {
  const Relation left =
      Strings({"AAA", "BBB", "CCC", "AAA", "DDD", "EEE", "BBB"});
  const Relation right = Strings({"BBB", "AAA", "FFF", "AAA"});
  // Tuple-at-a-time via Next().
  RelationScan l1(&left);
  RelationScan r1(&right);
  engine_test::ExactJoin j1(&l1, &r1, join::SymmetricJoinOptions{});
  ASSERT_TRUE(j1.Open().ok());
  std::vector<Tuple> tuple_wise;
  while (true) {
    auto next = j1.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    tuple_wise.push_back(std::move(**next));
  }
  ASSERT_TRUE(j1.Close().ok());
  // Batched via NextColumnBatch with a small capacity, so one step's
  // matches span several batches.
  RelationScan l2(&left);
  RelationScan r2(&right);
  engine_test::ExactJoin j2(&l2, &r2, join::SymmetricJoinOptions{});
  ASSERT_TRUE(j2.Open().ok());
  std::vector<Tuple> batch_wise;
  ColumnBatch batch(nullptr, 2);
  while (true) {
    ASSERT_TRUE(j2.NextColumnBatch(&batch).ok());
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      batch_wise.push_back(batch.MaterializeRow(i));
    }
  }
  ASSERT_TRUE(j2.Close().ok());
  ASSERT_EQ(tuple_wise.size(), batch_wise.size());
  for (size_t i = 0; i < tuple_wise.size(); ++i) {
    EXPECT_EQ(tuple_wise[i], batch_wise[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace exec
}  // namespace aqp
