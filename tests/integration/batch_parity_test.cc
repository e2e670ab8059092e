// Batched and tuple-at-a-time execution must be indistinguishable in
// everything but speed: identical join output (same rows, same order)
// and an identical MAR adaptation trace on the paper scenario, for any
// child batch size and drain batch size — each run matching the
// recorded reference digest. The engine guarantees this by cutting
// epochs at the control loop's δ_adapt boundaries, independent of how
// input arrives.

#include <gtest/gtest.h>

#include <vector>

#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "metrics/experiment.h"
#include "reference_runs.h"

namespace aqp {
namespace {

using engine_test::OnShards;
using exec::parallel::ParallelAdaptiveJoin;
using exec::parallel::ParallelJoinOptions;
using exec::parallel::ParallelMatchRef;
using parity::EngineRun;
using parity::ExpectRecorded;
using parity::ExpectSameRun;

ParallelJoinOptions ParityOptions(const datagen::TestCase& tc,
                                  size_t join_batch_size) {
  ParallelJoinOptions options = OnShards(parity::AdaptiveOptions(tc), 1);
  options.base.join.batch_size = join_batch_size;
  return options;
}

EngineRun RunParity(const datagen::TestCase& tc, size_t join_batch_size,
                    size_t drain_batch_size) {
  exec::ExecOptions drain;
  drain.batch_size = drain_batch_size;
  return parity::RunEngine(tc, ParityOptions(tc, join_batch_size), drain);
}

TEST(BatchParityTest, BatchSize1024MatchesTupleAtATime) {
  const datagen::TestCase tc = parity::PaperCase();
  const EngineRun tuple_wise = RunParity(tc, 1, 1);
  const EngineRun batched = RunParity(tc, 1024, 1024);
  ASSERT_GT(tuple_wise.rows.size(), 0u);
  ASSERT_GT(tuple_wise.trace.size(), 0u);
  // The scenario must actually adapt, or the parity claim is vacuous.
  ASSERT_GT(tuple_wise.transitions, 0u);
  ExpectRecorded("paper/adaptive", tuple_wise);
  ExpectRecorded("paper/adaptive", batched);
  ExpectSameRun(tuple_wise, batched);
}

TEST(BatchParityTest, OddBatchSizesAgreeToo) {
  const datagen::TestCase tc = parity::PaperCase();
  // 7 never divides δ_adapt = 50, so refill edges straddle control
  // boundaries; 64 staggers against it differently.
  const EngineRun a = RunParity(tc, 7, 33);
  const EngineRun b = RunParity(tc, 64, 256);
  ExpectRecorded("paper/adaptive", a);
  ExpectRecorded("paper/adaptive", b);
  ExpectSameRun(a, b);
}

TEST(BatchParityTest, ScriptedPolicyFiresAtSameStepsUnderBatching) {
  const datagen::TestCase tc = parity::PaperCase();
  auto run_scripted = [&](size_t batch_size) {
    ParallelJoinOptions options =
        OnShards(parity::ScriptedDefaultOptions(tc), 1);
    options.base.join.batch_size = batch_size;
    return parity::RunEngine(tc, options);
  };
  const EngineRun one = run_scripted(1);
  const EngineRun big = run_scripted(512);
  ExpectRecorded("paper/scripted_default", one);
  ExpectRecorded("paper/scripted_default", big);
  ASSERT_EQ(one.trace.size(), 3u);
  ASSERT_EQ(big.trace.size(), one.trace.size());
  for (size_t i = 0; i < one.trace.size(); ++i) {
    EXPECT_EQ(one.trace.records()[i], big.trace.records()[i])
        << "transition " << i;
  }
  EXPECT_EQ(one.trace.records()[0].assessment.step, 120u);
  EXPECT_EQ(one.trace.records()[1].assessment.step, 300u);
  EXPECT_EQ(one.trace.records()[2].assessment.step, 700u);
}

TEST(BatchParityTest, LateMaterializedPathsMatchRowProtocol) {
  // The drive modes of the late-materialized engine — columnar batches,
  // native match refs materialized at the sink, and the unmaterialized
  // counting drain — must be indistinguishable: byte-identical rows
  // where rows exist, identical row counts, and identical adaptation
  // traces.
  const datagen::TestCase tc = parity::PaperCase();
  const EngineRun rows = RunParity(tc, 64, 256);
  ASSERT_GT(rows.rows.size(), 0u);
  ASSERT_GT(rows.transitions, 0u);
  ExpectRecorded("paper/adaptive", rows);

  // Native protocol: pull match refs, concatenate at the sink.
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelAdaptiveJoin match_join(&child, &parent, ParityOptions(tc, 64));
  ASSERT_TRUE(match_join.Open().ok());
  storage::Relation collected(match_join.output_schema());
  std::vector<ParallelMatchRef> refs;
  while (true) {
    ASSERT_TRUE(match_join.NextMatchRefs(256, &refs).ok());
    if (refs.empty()) break;
    for (const ParallelMatchRef& ref : refs) {
      collected.AppendUnchecked(match_join.MaterializeRow(ref));
    }
  }
  ASSERT_TRUE(match_join.Close().ok());
  EngineRun matched = parity::Observe(match_join);
  matched.rows = std::move(collected);
  ExpectSameRun(matched, rows);

  // Counting drain: CountAll takes the UnmaterializedCounter fast
  // path — no row is ever built, everything else is identical.
  exec::RelationScan child2(&tc.child);
  exec::RelationScan parent2(&tc.parent);
  ParallelAdaptiveJoin count_join(&child2, &parent2, ParityOptions(tc, 64));
  exec::ExecOptions drain;
  drain.batch_size = 256;
  auto count = exec::CountAll(&count_join, drain);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, rows.rows.size());
  parity::ExpectSameTrace(count_join.trace(), rows.trace);
}

TEST(BatchParityTest, ColumnarProtocolMatchesRowAdapterAcrossBatchSizes) {
  // The native columnar protocol (NextColumnBatch, output columns
  // written straight from the stores) and the row protocol (Next())
  // must be indistinguishable: byte-identical rows in identical order
  // and identical adaptation traces, for every batch size — including
  // sizes that stagger against δ_adapt.
  const datagen::TestCase tc = parity::PaperCase();
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}, size_t{256}}) {
    SCOPED_TRACE(testing::Message() << "batch_size=" << batch_size);

    // Row-protocol drive.
    exec::RelationScan row_child(&tc.child);
    exec::RelationScan row_parent(&tc.parent);
    ParallelAdaptiveJoin row_join(&row_child, &row_parent,
                                  ParityOptions(tc, batch_size));
    ASSERT_TRUE(row_join.Open().ok());
    storage::Relation row_rows(row_join.output_schema());
    while (true) {
      auto next = row_join.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next->has_value()) break;
      row_rows.AppendUnchecked(std::move(**next));
    }
    ASSERT_TRUE(row_join.Close().ok());
    EngineRun by_row = parity::Observe(row_join);
    by_row.rows = std::move(row_rows);

    // Native columnar drive.
    exec::RelationScan col_child(&tc.child);
    exec::RelationScan col_parent(&tc.parent);
    ParallelAdaptiveJoin col_join(&col_child, &col_parent,
                                  ParityOptions(tc, batch_size));
    ASSERT_TRUE(col_join.Open().ok());
    storage::Relation col_rows(col_join.output_schema());
    storage::ColumnBatch col_batch(&col_join.output_schema(), batch_size);
    while (true) {
      ASSERT_TRUE(col_join.NextColumnBatch(&col_batch).ok());
      if (col_batch.empty()) break;
      ASSERT_TRUE(col_batch.Validate().ok());
      col_rows.AppendColumnBatchUnchecked(col_batch);
    }
    ASSERT_TRUE(col_join.Close().ok());
    EngineRun by_column = parity::Observe(col_join);
    by_column.rows = std::move(col_rows);

    // The scenario adapts (the recorded run has transitions), so the
    // parity claim is not vacuous.
    ExpectRecorded("paper/adaptive", by_row);
    ExpectRecorded("paper/adaptive", by_column);
    ExpectSameRun(by_column, by_row);
  }
}

TEST(BatchParityTest, FullExperimentHarnessUnchangedByBatchedDrains) {
  // The §4 harness (which drives everything through CountAll) must
  // report the same step counts whether its joins batch or not; this
  // guards the paper-replication figures against batching regressions.
  metrics::ExperimentOptions options;
  options.testcase.pattern = datagen::PerturbationPattern::kUniform;
  options.testcase.atlas.size = 300;
  options.testcase.accidents.size = 600;
  options.testcase.seed = 20090326;
  options.adaptive.delta_adapt = 50;
  options.adaptive.window = 50;
  auto result = metrics::RunExperiment(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->adaptive.total_steps, 900u);
}

}  // namespace
}  // namespace aqp
