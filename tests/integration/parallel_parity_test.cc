// The join engine must be indistinguishable across shard counts in
// everything but wall time: identical output row *sequences* (not just
// multisets — the deterministic shard merge order reproduces one
// index's ascending-stored-id order) and byte-identical adaptation
// traces, for every shard count, batch size, drive mode, and control
// policy — each run matching the reference digests recorded in
// testdata/reference_digests.inc, and the runs matching each other row
// for row.

#include <gtest/gtest.h>

#include <vector>

#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
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
using parity::RunEngine;

constexpr size_t kShardCounts[] = {1, 2, 4, 8};

/// Drives `join` tuple-at-a-time through the row protocol (Next()).
EngineRun CollectByNext(ParallelAdaptiveJoin* join) {
  EXPECT_TRUE(join->Open().ok());
  storage::Relation collected(join->output_schema());
  while (true) {
    auto next = join->Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next->has_value()) break;
    collected.AppendUnchecked(std::move(**next));
  }
  EXPECT_TRUE(join->Close().ok());
  EngineRun run = parity::Observe(*join);
  run.rows = std::move(collected);
  return run;
}

TEST(ParallelParityTest, EveryShardCountMatchesSingleThreadedAdaptive) {
  const datagen::TestCase tc = parity::PaperCase();
  // The scenario must actually adapt, or the parity claim is vacuous.
  const parity::RunDigest recorded = parity::RecordedRun("paper/adaptive");
  ASSERT_GT(recorded.rows, 0u);
  ASSERT_GT(recorded.trace_records, 0u);
  ASSERT_GT(recorded.transitions, 0u);

  const EngineRun one_shard =
      RunEngine(tc, OnShards(parity::AdaptiveOptions(tc), 1));
  for (size_t shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const EngineRun run =
        RunEngine(tc, OnShards(parity::AdaptiveOptions(tc), shards));
    ExpectRecorded("paper/adaptive", run);
    ExpectSameRun(run, one_shard);
  }
}

TEST(ParallelParityTest, DriveModesAgreeAtFourShards) {
  const datagen::TestCase tc = parity::PaperCase();
  const ParallelJoinOptions options =
      OnShards(parity::AdaptiveOptions(tc), 4);

  // Row protocol via tuple-at-a-time Next().
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelAdaptiveJoin join(&child, &parent, options);
    ExpectRecorded("paper/adaptive", CollectByNext(&join));
  }

  // Match-ref protocol, materialized at the sink.
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelAdaptiveJoin join(&child, &parent, options);
    ASSERT_TRUE(join.Open().ok());
    storage::Relation collected(join.output_schema());
    std::vector<ParallelMatchRef> refs;
    while (true) {
      ASSERT_TRUE(join.NextMatchRefs(97, &refs).ok());
      if (refs.empty()) break;
      for (const ParallelMatchRef& ref : refs) {
        collected.AppendUnchecked(join.MaterializeRow(ref));
      }
    }
    ASSERT_TRUE(join.Close().ok());
    EngineRun run = parity::Observe(join);
    run.rows = std::move(collected);
    ExpectRecorded("paper/adaptive", run);
  }

  // Counting drain: no row is ever materialized.
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto count = exec::CountAll(&join);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    const parity::RunDigest recorded = parity::RecordedRun("paper/adaptive");
    EXPECT_EQ(*count, recorded.rows);
    EXPECT_EQ(join.trace().size(), recorded.trace_records);
    EXPECT_EQ(parity::HashTrace(join.trace()), recorded.trace_hash);
    EXPECT_EQ(join.steps(), recorded.steps);
  }
}

TEST(ParallelParityTest, ColumnarProtocolMatchesRowAdapterEveryShardCount) {
  // The native columnar drive (NextColumnBatch, cells written straight
  // from the shard stores' columns) must agree with the row protocol
  // (Next()) — and with the recorded reference — for every shard
  // count: byte-identical row sequences and adaptation traces.
  const datagen::TestCase tc = parity::PaperCase();
  for (size_t shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const ParallelJoinOptions options =
        OnShards(parity::AdaptiveOptions(tc), shards);

    exec::RelationScan row_child(&tc.child);
    exec::RelationScan row_parent(&tc.parent);
    ParallelAdaptiveJoin row_join(&row_child, &row_parent, options);
    const EngineRun rows = CollectByNext(&row_join);

    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelAdaptiveJoin join(&child, &parent, options);
    ASSERT_TRUE(join.Open().ok());
    storage::Relation collected(join.output_schema());
    storage::ColumnBatch batch(&join.output_schema(), 97);
    while (true) {
      ASSERT_TRUE(join.NextColumnBatch(&batch).ok());
      if (batch.empty()) break;
      ASSERT_TRUE(batch.Validate().ok());
      collected.AppendColumnBatchUnchecked(batch);
    }
    ASSERT_TRUE(join.Close().ok());
    EngineRun columnar = parity::Observe(join);
    columnar.rows = std::move(collected);

    ExpectRecorded("paper/adaptive", columnar);
    ExpectSameRun(columnar, rows);
  }
}

TEST(ParallelParityTest, ChildBatchSizesDoNotChangeResults) {
  const datagen::TestCase tc = parity::PaperCase();
  for (size_t batch : {size_t{1}, size_t{7}, size_t{256}}) {
    SCOPED_TRACE(testing::Message() << "child batch=" << batch);
    ParallelJoinOptions options = OnShards(parity::AdaptiveOptions(tc), 4);
    options.base.join.batch_size = batch;
    exec::ExecOptions drain;
    drain.batch_size = 33;
    ExpectRecorded("paper/adaptive", RunEngine(tc, options, drain));
  }
}

TEST(ParallelParityTest, PinnedStatesMatchSingleThreadedBaselines) {
  // Pinned lex/rex is SHJoin, pinned lap/rap SSHJoin; both, and the
  // lap/rex hybrid, must reproduce the recorded runs row for row at
  // every shard count.
  const datagen::TestCase tc = parity::PaperCase();
  for (adaptive::ProcessorState state :
       {adaptive::ProcessorState::kLexRex, adaptive::ProcessorState::kLapRap,
        adaptive::ProcessorState::kLapRex}) {
    const std::string name = parity::PinnedName(state);
    ASSERT_GT(parity::RecordedRun(name).rows, 0u);
    EngineRun one_shard;
    for (size_t shards : kShardCounts) {
      SCOPED_TRACE(testing::Message() << name << " shards=" << shards);
      ParallelJoinOptions options =
          OnShards(parity::PinnedOptions(tc, state), shards);
      // Exercise the unbounded-epoch path with an odd length too.
      options.unbounded_epoch_steps = shards % 2 == 0 ? 173 : 4096;
      const EngineRun run = RunEngine(tc, options);
      ExpectRecorded(name, run);
      EXPECT_EQ(run.trace.size(), 0u);
      if (shards == 1) {
        one_shard = run;
      } else {
        ExpectSameRun(run, one_shard);
      }
    }
  }
}

TEST(ParallelParityTest, ScriptedTransitionsFireAtSameStepsAcrossShards) {
  const datagen::TestCase tc = parity::PaperCase();
  ASSERT_EQ(parity::RecordedRun("paper/scripted").trace_records, 3u);
  EngineRun one_shard;
  for (size_t shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const EngineRun run =
        RunEngine(tc, OnShards(parity::ScriptedOptions(tc), shards));
    ExpectRecorded("paper/scripted", run);
    if (shards == 1) {
      one_shard = run;
    } else {
      ExpectSameRun(run, one_shard);
    }
  }
}

TEST(ParallelParityTest, BothInputsPerturbedStillAgree) {
  // Perturbing both inputs drives the ϕ1 path (lap/rap) and maximizes
  // cross-shard approximate traffic — the hardest merge case.
  const datagen::TestCase tc = parity::BothPerturbedCase();
  ASSERT_GT(parity::RecordedRun("both_perturbed/adaptive").rows, 0u);
  EngineRun one_shard;
  for (size_t shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const EngineRun run =
        RunEngine(tc, OnShards(parity::AdaptiveOptions(tc), shards));
    ExpectRecorded("both_perturbed/adaptive", run);
    if (shards == 1) {
      one_shard = run;
    } else {
      ExpectSameRun(run, one_shard);
    }
  }
}

TEST(ParallelParityTest, EveryRecordedConfigurationReproduces) {
  // Every recorded run digest belongs to a configuration, and every
  // configuration reproduces it — on one shard and on an odd count.
  const std::vector<parity::ReferenceConfig> configs =
      parity::ReferenceConfigs();
  ASSERT_EQ(configs.size(), parity::RecordedRuns().size());
  const datagen::TestCase paper = parity::PaperCase();
  const datagen::TestCase both = parity::BothPerturbedCase();
  for (const parity::ReferenceConfig& config : configs) {
    const datagen::TestCase& tc = config.both_perturbed ? both : paper;
    for (size_t shards : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE(testing::Message()
                   << config.name << " shards=" << shards);
      const ParallelJoinOptions options =
          OnShards(parity::ConfigOptions(config, tc), shards);
      ExpectRecorded(config.name, RunEngine(tc, options));
    }
  }
}

}  // namespace
}  // namespace aqp
