// Micro-benchmarks and ablations beyond the paper's tables: end-to-end
// operator throughput, the §2.3 space model, and the interleave-policy
// ablation called out in DESIGN.md §8. Every join series runs the one
// join engine (ParallelAdaptiveJoin) at one shard: pinned lex/rex is
// SHJoin, pinned lap/rap is SSHJoin, the adaptive policy is the
// paper's hybrid operator.
//
//   $ ./bench_join_micro

#include <benchmark/benchmark.h>

#include <map>
#include <optional>

#include "bench_support.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"

namespace {

using namespace aqp;  // NOLINT

const datagen::TestCase& SharedCase(size_t scale) {
  static std::map<size_t, datagen::TestCase> cases;
  auto it = cases.find(scale);
  if (it == cases.end()) {
    datagen::TestCaseOptions options;
    options.atlas.size = scale;
    options.accidents.size = scale * 2;
    options.variant_rate = 0.10;
    options.seed = 9;
    auto tc = datagen::GenerateTestCase(options);
    if (!tc.ok()) std::abort();
    it = cases.emplace(scale, std::move(*tc)).first;
  }
  return it->second;
}

/// One-shard engine options over `tc`: the adaptive policy, or pinned
/// to `pinned` when given.
exec::parallel::ParallelJoinOptions JoinOptions(
    const datagen::TestCase& tc,
    std::optional<adaptive::ProcessorState> pinned = std::nullopt) {
  exec::parallel::ParallelJoinOptions options;
  options.base.join.spec.left_column = datagen::kAccidentsLocationColumn;
  options.base.join.spec.right_column = datagen::kAtlasLocationColumn;
  options.base.join.spec.sim_threshold = 0.85;
  options.base.adaptive.parent_side = exec::Side::kRight;
  options.base.adaptive.parent_table_size = tc.parent.size();
  if (pinned.has_value()) {
    options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
    options.base.adaptive.initial_state = *pinned;
  }
  options.num_shards = 1;
  return options;
}

/// Counting drain of one join run; false (and the state skipped) on
/// error.
bool CountJoin(benchmark::State& state, const datagen::TestCase& tc,
               const exec::parallel::ParallelJoinOptions& options,
               const exec::ExecOptions& drain = {}) {
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  exec::parallel::ParallelAdaptiveJoin join(&child, &parent, options);
  auto count = exec::CountAll(&join, drain);
  if (!count.ok()) {
    state.SkipWithError("join failed");
    return false;
  }
  benchmark::DoNotOptimize(*count);
  return true;
}

void SetTuplesProcessed(benchmark::State& state, const datagen::TestCase& tc) {
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(tc.child.size() + tc.parent.size()));
}

/// Exact symmetric hash join throughput (tuples/second).
void BM_SHJoin_EndToEnd(benchmark::State& state) {
  const auto& tc = SharedCase(static_cast<size_t>(state.range(0)));
  const auto options = JoinOptions(tc, adaptive::ProcessorState::kLexRex);
  for (auto _ : state) {
    if (!CountJoin(state, tc, options)) return;
  }
  SetTuplesProcessed(state, tc);
}
BENCHMARK(BM_SHJoin_EndToEnd)->Arg(1000)->Arg(2000)->Arg(4000);

/// Approximate symmetric set hash join throughput.
void BM_SSHJoin_EndToEnd(benchmark::State& state) {
  const auto& tc = SharedCase(static_cast<size_t>(state.range(0)));
  const auto options = JoinOptions(tc, adaptive::ProcessorState::kLapRap);
  for (auto _ : state) {
    if (!CountJoin(state, tc, options)) return;
  }
  SetTuplesProcessed(state, tc);
}
BENCHMARK(BM_SSHJoin_EndToEnd)->Arg(1000)->Arg(4000);

/// The adaptive operator on the same workload.
void BM_AdaptiveJoin_EndToEnd(benchmark::State& state) {
  const auto& tc = SharedCase(static_cast<size_t>(state.range(0)));
  const auto options = JoinOptions(tc);
  for (auto _ : state) {
    if (!CountJoin(state, tc, options)) return;
  }
  SetTuplesProcessed(state, tc);
}
BENCHMARK(BM_AdaptiveJoin_EndToEnd)->Arg(1000)->Arg(4000);

/// The row protocol on the same exact workload: one virtual Next()
/// with Result<optional<Tuple>> packaging per output row, and
/// per-tuple child pulls (batch_size = 1). Compare against
/// BM_SHJoin_ColumnarDrain.
void BM_SHJoin_LegacyNextProtocol(benchmark::State& state) {
  const auto& tc = SharedCase(2000);
  auto options = JoinOptions(tc, adaptive::ProcessorState::kLexRex);
  options.base.join.batch_size = 1;
  for (auto _ : state) {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    exec::parallel::ParallelAdaptiveJoin join(&child, &parent, options);
    if (!join.Open().ok()) {
      state.SkipWithError("open failed");
      return;
    }
    size_t count = 0;
    while (true) {
      auto next = join.Next();
      if (!next.ok()) {
        state.SkipWithError("join failed");
        return;
      }
      if (!next->has_value()) break;
      ++count;
    }
    (void)join.Close();
    benchmark::DoNotOptimize(count);
  }
  SetTuplesProcessed(state, tc);
}
BENCHMARK(BM_SHJoin_LegacyNextProtocol);

/// Columnar protocol drain: the native NextColumnBatch path — child
/// scans fill typed column vectors, the store ingests (key view, hash,
/// payload slice) rows, and output cells stream out of the stores'
/// columns. This is the layout the aqp_batch_layout context describes.
void BM_SHJoin_ColumnarDrain(benchmark::State& state) {
  const auto& tc = SharedCase(2000);
  const auto options = JoinOptions(tc, adaptive::ProcessorState::kLexRex);
  for (auto _ : state) {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    exec::parallel::ParallelAdaptiveJoin join(&child, &parent, options);
    if (!join.Open().ok()) {
      state.SkipWithError("open failed");
      return;
    }
    size_t count = 0;
    storage::ColumnBatch batch(&join.output_schema(),
                               storage::ColumnBatch::kDefaultCapacity);
    while (true) {
      if (!join.NextColumnBatch(&batch).ok()) {
        state.SkipWithError("join failed");
        return;
      }
      if (batch.empty()) break;
      count += batch.size();
    }
    (void)join.Close();
    benchmark::DoNotOptimize(count);
  }
  SetTuplesProcessed(state, tc);
}
BENCHMARK(BM_SHJoin_ColumnarDrain);

/// Batch-size sweep: the same exact workload with the child refill
/// size and the drain batching set to the swept size. batch_size = 1
/// degenerates to tuple-at-a-time input (results and traces are
/// identical for every size — see tests/integration/batch_parity_test.cc
/// — so this measures pure engine overhead).
void BM_SHJoin_BatchSweep(benchmark::State& state) {
  const auto& tc = SharedCase(2000);
  const auto batch = static_cast<size_t>(state.range(0));
  auto options = JoinOptions(tc, adaptive::ProcessorState::kLexRex);
  options.base.join.batch_size = batch;
  exec::ExecOptions drain;
  drain.batch_size = batch;
  for (auto _ : state) {
    if (!CountJoin(state, tc, options, drain)) return;
  }
  SetTuplesProcessed(state, tc);
}
BENCHMARK(BM_SHJoin_BatchSweep)
    ->Arg(1)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// The same sweep on the adaptive policy (MAR loop at epoch-aligned
/// quiescent points).
void BM_AdaptiveJoin_BatchSweep(benchmark::State& state) {
  const auto& tc = SharedCase(2000);
  const auto batch = static_cast<size_t>(state.range(0));
  auto options = JoinOptions(tc);
  options.base.join.batch_size = batch;
  exec::ExecOptions drain;
  drain.batch_size = batch;
  for (auto _ : state) {
    if (!CountJoin(state, tc, options, drain)) return;
  }
  SetTuplesProcessed(state, tc);
}
BENCHMARK(BM_AdaptiveJoin_BatchSweep)
    ->Arg(1)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// Interleave-policy ablation on the adaptive policy.
void BM_AdaptiveJoin_InterleavePolicy(benchmark::State& state) {
  const auto& tc = SharedCase(2000);
  const auto policy = static_cast<exec::InterleavePolicy>(state.range(0));
  auto options = JoinOptions(tc);
  options.base.join.interleave = policy;
  options.base.join.left_size_hint = tc.child.size();
  options.base.join.right_size_hint = tc.parent.size();
  for (auto _ : state) {
    if (!CountJoin(state, tc, options)) return;
  }
  state.SetLabel(exec::InterleavePolicyName(policy));
}
BENCHMARK(BM_AdaptiveJoin_InterleavePolicy)
    ->Arg(static_cast<int>(exec::InterleavePolicy::kAlternate))
    ->Arg(static_cast<int>(exec::InterleavePolicy::kProportional));

/// §2.3 space model: report index memory as per-iteration counters.
void BM_IndexSpaceModel(benchmark::State& state) {
  const auto& tc = SharedCase(4000);
  for (auto _ : state) {
    join::HybridJoinCore core(JoinOptions(tc).base.join.spec);
    core.SetProbeMode(exec::Side::kLeft, join::ProbeMode::kApproximate);
    core.SetProbeMode(exec::Side::kRight, join::ProbeMode::kApproximate);
    for (size_t i = 0; i < tc.parent.size(); ++i) {
      core.ProcessTuple(exec::Side::kRight, tc.parent.row(i));
    }
    // Exact structures too, for the comparison.
    core.SetProbeMode(exec::Side::kLeft, join::ProbeMode::kExact);
    state.counters["exact_index_bytes_per_tuple"] = benchmark::Counter(
        static_cast<double>(core.exact_index(exec::Side::kRight)
                                .ApproximateMemoryUsage()) /
        static_cast<double>(tc.parent.size()));
    state.counters["qgram_index_bytes_per_tuple"] = benchmark::Counter(
        static_cast<double>(core.qgram_index(exec::Side::kRight)
                                .ApproximateMemoryUsage()) /
        static_cast<double>(tc.parent.size()));
  }
}
BENCHMARK(BM_IndexSpaceModel)->Iterations(1);

}  // namespace

// BENCHMARK_MAIN(), plus context recording the build type of the
// *measured* library (the stock "library_build_type" key describes
// the Google Benchmark shared library, not this code).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("aqp_build_type", aqp::bench::BuildTypeName());
  // Tuple-transport layout of the measured pipeline: "columnar" since
  // the ColumnBatch protocol replaced row-of-variant batches end to
  // end (PR 4); earlier recordings were "row".
  benchmark::AddCustomContext("aqp_batch_layout", "columnar");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
