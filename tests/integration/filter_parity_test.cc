// The filter stack (length / prefix / positional, §2.2's SSJoin
// lineage) must be invisible in everything but cost: for every filter
// combination the adaptive join must produce byte-identical output
// rows in identical order AND a byte-identical MAR adaptation trace,
// across batch sizes and shard counts — matching both the unfiltered
// run and the digests recorded for each filter combination. The
// exactness arguments live in join/filter.h; this suite is the
// end-to-end proof on the paper scenario — which must actually adapt,
// or the parity claim is vacuous.

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "reference_runs.h"

namespace aqp {
namespace {

using engine_test::OnShards;
using exec::parallel::ParallelJoinOptions;
using parity::EngineRun;
using parity::ExpectRecorded;
using parity::ExpectSameRun;

ParallelJoinOptions FilteredOptions(const datagen::TestCase& tc,
                                    const join::ApproxFilterOptions& filter,
                                    size_t shards = 1,
                                    size_t batch_size = 64) {
  ParallelJoinOptions options = OnShards(parity::AdaptiveOptions(tc), shards);
  options.base.join.spec.filter = filter;
  options.base.join.batch_size = batch_size;
  return options;
}

TEST(FilterParityTest, EveryFilterCombinationMatchesUnfilteredBaseline) {
  const datagen::TestCase tc = parity::PaperCase();
  const EngineRun reference =
      parity::RunEngine(tc, FilteredOptions(tc, join::ApproxFilterOptions{}));
  ASSERT_GT(reference.rows.size(), 0u);
  ASSERT_GT(reference.trace.size(), 0u);
  ASSERT_GT(reference.transitions, 0u);
  ExpectRecorded("paper/adaptive", reference);

  for (const join::ApproxFilterOptions& filter :
       parity::AllFilterCombinations()) {
    SCOPED_TRACE(testing::Message() << "filter=" << filter.Label());
    const EngineRun filtered =
        parity::RunEngine(tc, FilteredOptions(tc, filter));
    ExpectRecorded("paper/adaptive/filter=" + filter.Label(), filtered);
    ExpectSameRun(filtered, reference);
  }
}

TEST(FilterParityTest, FullStackMatchesAcrossBatchSizes) {
  const datagen::TestCase tc = parity::PaperCase();
  const join::ApproxFilterOptions full = parity::FullFilterStack();
  const std::string name = "paper/adaptive/filter=" + full.Label();
  const EngineRun reference = parity::RunEngine(
      tc, FilteredOptions(tc, join::ApproxFilterOptions{}, 1, 1));
  ASSERT_GT(reference.transitions, 0u);
  // 7 staggers against δ_adapt = 50; 256 spans several control windows.
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    SCOPED_TRACE(testing::Message() << "batch_size=" << batch_size);
    const EngineRun filtered =
        parity::RunEngine(tc, FilteredOptions(tc, full, 1, batch_size));
    ExpectRecorded(name, filtered);
    ExpectSameRun(filtered, reference);
  }
}

TEST(FilterParityTest, FullStackMatchesAcrossShardCounts) {
  const datagen::TestCase tc = parity::PaperCase();
  const join::ApproxFilterOptions full = parity::FullFilterStack();
  const std::string name = "paper/adaptive/filter=" + full.Label();
  const EngineRun reference =
      parity::RunEngine(tc, FilteredOptions(tc, join::ApproxFilterOptions{}));
  ASSERT_GT(reference.transitions, 0u);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const EngineRun filtered =
        parity::RunEngine(tc, FilteredOptions(tc, full, shards));
    ExpectRecorded(name, filtered);
    ExpectSameRun(filtered, reference);
  }
}

TEST(FilterParityTest, SampledGramOrderPreservesParity) {
  // A corpus-sampled frequency order changes which grams form each
  // prefix — cost, not results: parity must hold exactly as with the
  // default key order.
  const datagen::TestCase tc = parity::PaperCase();
  const EngineRun reference =
      parity::RunEngine(tc, FilteredOptions(tc, join::ApproxFilterOptions{}));
  ASSERT_GT(reference.transitions, 0u);
  const EngineRun filtered = parity::RunEngine(
      tc, OnShards(parity::SampledOrderOptions(tc), 1));
  ExpectRecorded("paper/adaptive/sampled_order", filtered);
  ExpectSameRun(filtered, reference);
}

}  // namespace
}  // namespace aqp
