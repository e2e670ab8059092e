// Pipelined ingest moves *when* routing work happens — overlapped with
// the previous epoch's phases instead of serialized before its own —
// and must change nothing else. These tests pin the contract: with
// ParallelJoinOptions::pipeline_ingest on, the output row sequence and
// the adaptation trace are byte-identical to both the serial-ingest
// engine and the recorded reference digests, for every shard count,
// child batch size, control policy, and drive mode — and
// the deadline governor, cancellation, and recoverable ingest faults
// observe the exact same control points and leave the exact same
// partial results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/failpoint.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "reference_runs.h"

namespace aqp {
namespace {

using engine_test::OnShards;
using exec::parallel::EpochDirective;
using exec::parallel::EpochView;
using exec::parallel::FaultPolicy;
using exec::parallel::ParallelAdaptiveJoin;
using exec::parallel::ParallelJoinOptions;
using exec::parallel::ParallelMatchRef;
using parity::EngineRun;
using parity::ExpectRecorded;
using parity::ExpectSameRows;
using parity::ExpectSameTrace;

constexpr size_t kShardCounts[] = {1, 2, 4, 8};
constexpr size_t kBatchSizes[] = {1, 7, 64, 256};

/// `actual` is a strict prefix of `expected` (shorter, and identical
/// row for row as far as it goes).
void ExpectStrictPrefixRows(const storage::Relation& actual,
                            const storage::Relation& expected) {
  ASSERT_LT(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual.row(i), expected.row(i)) << "row " << i;
  }
}

/// Runs the join over the test case and collects rows, plus the
/// ingest counters.
struct ParallelRun {
  EngineRun run;
  uint64_t staged = 0;
  uint64_t serial = 0;
  Status status;
};

ParallelRun RunParallel(const datagen::TestCase& tc,
                        ParallelJoinOptions options) {
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelAdaptiveJoin join(&child, &parent, options);
  ParallelRun run;
  auto result = exec::CollectAll(&join);
  run.run = parity::Observe(join);
  if (result.ok()) {
    run.run.rows = std::move(*result);
  } else {
    run.status = result.status();
  }
  run.staged = join.ingest_stats().epochs_staged;
  run.serial = join.ingest_stats().epochs_routed_serially;
  return run;
}

/// The full, clean paper-scenario run (one shard), checked against the
/// recorded digest; partial results must be strict prefixes of it.
EngineRun CleanRun(const datagen::TestCase& tc) {
  const EngineRun clean =
      parity::RunEngine(tc, OnShards(parity::AdaptiveOptions(tc), 1));
  ExpectRecorded("paper/adaptive", clean);
  return clean;
}

TEST(PipelineParityTest, EveryShardAndBatchSizeMatchesSerialAndReference) {
  const datagen::TestCase tc = parity::PaperCase();
  const EngineRun reference = CleanRun(tc);
  ASSERT_GT(reference.rows.size(), 0u);
  ASSERT_GT(reference.trace.size(), 0u);
  for (size_t shards : kShardCounts) {
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " batch=" << batch);
      ParallelJoinOptions options =
          OnShards(parity::AdaptiveOptions(tc), shards);
      options.base.join.batch_size = batch;

      options.pipeline_ingest = true;
      const ParallelRun pipelined = RunParallel(tc, options);
      ASSERT_TRUE(pipelined.status.ok()) << pipelined.status.ToString();
      // The pipeline must actually engage (first epoch is always
      // serial; everything after it stages ahead).
      EXPECT_GT(pipelined.staged, 0u);
      EXPECT_EQ(pipelined.serial, 1u);

      options.pipeline_ingest = false;
      const ParallelRun serial = RunParallel(tc, options);
      ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
      EXPECT_EQ(serial.staged, 0u);

      ExpectRecorded("paper/adaptive", pipelined.run);
      ExpectRecorded("paper/adaptive", serial.run);
      parity::ExpectSameRun(pipelined.run, reference);
      parity::ExpectSameRun(serial.run, reference);
    }
  }
}

TEST(PipelineParityTest, PinnedAndScriptedPoliciesAgreeWhenPipelined) {
  const datagen::TestCase tc = parity::PaperCase();

  // Pinned: the epoch budget is unbounded_epoch_steps; exercise an odd
  // length so staged budgets and control-point budgets must agree on
  // every epoch, not just power-of-two ones.
  for (adaptive::ProcessorState state :
       {adaptive::ProcessorState::kLexRex,
        adaptive::ProcessorState::kLapRap}) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(testing::Message()
                   << "state=" << adaptive::ProcessorStateName(state)
                   << " shards=" << shards);
      ParallelJoinOptions options =
          OnShards(parity::PinnedOptions(tc, state), shards);
      options.unbounded_epoch_steps = 173;
      options.pipeline_ingest = true;
      const ParallelRun run = RunParallel(tc, options);
      ASSERT_TRUE(run.status.ok()) << run.status.ToString();
      EXPECT_GT(run.staged, 0u);
      ExpectRecorded(parity::PinnedName(state), run.run);
      EXPECT_EQ(run.run.trace.size(), 0u);
    }
  }

  // Scripted: staged budgets must stop exactly at every scripted
  // transition step, including the unbounded tail after the last one.
  ASSERT_EQ(parity::RecordedRun("paper/scripted").trace_records, 3u);
  for (size_t shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ParallelJoinOptions options =
        OnShards(parity::ScriptedOptions(tc), shards);
    options.pipeline_ingest = true;
    const ParallelRun run = RunParallel(tc, options);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_GT(run.staged, 0u);
    ExpectRecorded("paper/scripted", run.run);
  }
}

TEST(PipelineParityTest, AllDriveModesAgreeWhenPipelined) {
  const datagen::TestCase tc = parity::PaperCase();
  const EngineRun reference = CleanRun(tc);

  ParallelJoinOptions options = OnShards(parity::AdaptiveOptions(tc), 4);
  options.pipeline_ingest = true;

  // Row protocol via tuple-at-a-time Next().
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelAdaptiveJoin join(&child, &parent, options);
    ASSERT_TRUE(join.Open().ok());
    storage::Relation collected(join.output_schema());
    while (true) {
      auto next = join.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next->has_value()) break;
      collected.AppendUnchecked(std::move(**next));
    }
    EXPECT_GT(join.ingest_stats().epochs_staged, 0u);
    ASSERT_TRUE(join.Close().ok());
    ExpectSameRows(collected, reference.rows);
    ExpectSameTrace(join.trace(), reference.trace);
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
    ExpectSameRows(collected, reference.rows);
    ExpectSameTrace(join.trace(), reference.trace);
  }

  // Counting drain: no row is ever materialized.
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto count = exec::CountAll(&join);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, reference.rows.size());
    ExpectSameTrace(join.trace(), reference.trace);
  }
}

TEST(PipelineParityTest, HardDeadlineMidStageLeavesIdenticalPrefix) {
  // A kFinalize directive lands at a swap point where the next epoch
  // is already staged; the staged (uncommitted) epoch must be drained
  // and discarded, leaving exactly the rows the serial engine leaves.
  const datagen::TestCase tc = parity::PaperCase();
  const EngineRun full = CleanRun(tc);
  ASSERT_GT(full.steps, 500u);

  auto governor = [](const EpochView& view) {
    return view.steps >= 400 ? EpochDirective::kFinalize
                             : EpochDirective::kProceed;
  };
  storage::Relation pipelined_rows;
  uint64_t pipelined_steps = 0;
  for (bool pipelined : {true, false}) {
    SCOPED_TRACE(testing::Message() << "pipeline_ingest=" << pipelined);
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options = OnShards(parity::AdaptiveOptions(tc), 4);
    options.governor = governor;
    options.pipeline_ingest = pipelined;
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto result = exec::CollectAll(&join);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(join.finalized_early());
    EXPECT_GE(join.steps(), 400u);
    EXPECT_LT(join.steps(), full.steps);
    ExpectStrictPrefixRows(*result, full.rows);
    if (pipelined) {
      pipelined_rows = std::move(*result);
      pipelined_steps = join.steps();
    } else {
      // Both modes cut at the same control point with the same rows.
      EXPECT_EQ(join.steps(), pipelined_steps);
      ExpectSameRows(*result, pipelined_rows);
    }
  }
}

TEST(PipelineParityTest, CancellationMidStageDiscardsStagedEpochCleanly) {
  const datagen::TestCase tc = parity::PaperCase();
  uint64_t pipelined_steps = 0;
  for (bool pipelined : {true, false}) {
    SCOPED_TRACE(testing::Message() << "pipeline_ingest=" << pipelined);
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options = OnShards(parity::AdaptiveOptions(tc), 4);
    options.pipeline_ingest = pipelined;
    options.governor = [](const EpochView& view) {
      return view.steps >= 300 ? EpochDirective::kCancel
                               : EpochDirective::kProceed;
    };
    ParallelAdaptiveJoin join(&child, &parent, options);
    ASSERT_TRUE(join.Open().ok());
    storage::ColumnBatch batch(&join.output_schema(), 64);
    Status status;
    while (status.ok()) {
      status = join.NextColumnBatch(&batch);
      if (status.ok()) ASSERT_FALSE(batch.empty()) << "EOS before cancel";
    }
    EXPECT_TRUE(status.IsCancelled()) << status.ToString();
    // Cancellation fires at a published control point, so both modes
    // observe it at the same global step.
    if (pipelined) {
      pipelined_steps = join.steps();
    } else {
      EXPECT_EQ(join.steps(), pipelined_steps);
    }
    // The error is sticky, and Close still succeeds with the in-flight
    // staged epoch abandoned.
    EXPECT_TRUE(join.NextColumnBatch(&batch).IsCancelled());
    EXPECT_TRUE(join.Close().ok());
  }
}

class PipelineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kCompiledIn) {
      GTEST_SKIP() << "failpoints compiled out (AQP_ENABLE_FAILPOINTS off)";
    }
    fail::DisarmAll();
  }
  void TearDown() override { fail::DisarmAll(); }
};

TEST_F(PipelineFaultTest, StageFaultDegradesToStrictPrefixWithReport) {
  // An ingest fault on the staging task (site exchange.stage, only
  // evaluated on the pipelined path) must discard the staged epoch
  // without corrupting the active one: under kFinalizePartial the run
  // degrades to a strict prefix of the clean result plus a FaultReport
  // naming the site, with the active epoch's output intact.
  const datagen::TestCase tc = parity::PaperCase();
  const EngineRun clean = CleanRun(tc);
  ASSERT_GT(clean.rows.size(), 0u);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options = OnShards(parity::AdaptiveOptions(tc), 4);
  options.pipeline_ingest = true;
  options.on_fault = FaultPolicy::kFinalizePartial;
  ParallelAdaptiveJoin join(&child, &parent, options);
  fail::ScopedFailpoint guard(
      fail::site::kExchangeStage,
      fail::Policy::OnNthHit(3, Status::IOError("disk hiccup")));
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(join.finalized_early());
  ExpectStrictPrefixRows(*result, clean.rows);
  ASSERT_TRUE(join.fault().has_value());
  EXPECT_EQ(join.fault()->site, std::string(fail::site::kExchangeStage));
  EXPECT_EQ(join.fault()->shard, -1);
  EXPECT_GT(join.fault()->epoch, 0u);
  // The reported step count is the published one — every counted step
  // belongs to a committed, merged epoch whose output was delivered.
  EXPECT_EQ(join.fault()->step, join.steps());
}

TEST_F(PipelineFaultTest, StageFaultIsStickyUnderFailPolicy) {
  const datagen::TestCase tc = parity::PaperCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options = OnShards(parity::AdaptiveOptions(tc), 2);
  options.pipeline_ingest = true;
  options.on_fault = FaultPolicy::kFail;
  ParallelAdaptiveJoin join(&child, &parent, options);
  fail::ScopedFailpoint guard(
      fail::site::kExchangeStage,
      fail::Policy::OnNthHit(2, Status::IOError("disk hiccup")));
  auto result = exec::CollectAll(&join);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_NE(result.status().ToString().find("site=exchange.stage"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("epoch="), std::string::npos);
}

TEST_F(PipelineFaultTest, TransientSourceFaultIsRetriedWhenPipelined) {
  // A transient fault in a source refill on the ingest task must
  // surface like a child error and be retried away by the exchange's
  // source-retry loop, leaving the result untouched.
  const datagen::TestCase tc = parity::PaperCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options = OnShards(parity::AdaptiveOptions(tc), 2);
  options.base.join.batch_size = 64;  // enough refills to fault mid-run
  options.pipeline_ingest = true;
  options.source_retry.max_retries = 2;
  ParallelAdaptiveJoin join(&child, &parent, options);
  fail::ScopedFailpoint guard(
      fail::site::kScanNext,
      fail::Policy::OnNthHit(5, Status::Unavailable("transient blip")));
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EngineRun run = parity::Observe(join);
  run.rows = std::move(*result);
  ExpectRecorded("paper/adaptive", run);
  EXPECT_GE(join.source_retries(), 1u);
  EXPECT_GT(join.ingest_stats().epochs_staged, 0u);
}

}  // namespace
}  // namespace aqp
