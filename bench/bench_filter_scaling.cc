// Million-row scaling sweep of the approximate-match filter stack:
// SSHJoin (the join engine at one shard, pinned to lap/rap) over the
// constant-memory ScaledCorpus at 10^4 / 10^5 / 10^6
// total rows, with the filters layered cumulatively —
//
//   config 0: no filters            (the paper's bare counted walk)
//   config 1: + length filter
//   config 2: + prefix indexing     (corpus-sampled gram order)
//   config 3: + positional filter
//
// Every configuration produces byte-identical output (the parity suite
// proves it); the sweep records what each layer does to candidate
// generation — the "candidates" / "verified" / "matches" counters are
// the quantities the filters exist to shrink. At 10^6 rows only the
// prefix-bearing configs run: the unfiltered walk is quadratic-grade
// work at that scale (hours per repetition) and its cost is already
// legible from the 10^4 → 10^5 growth.
//
// Interpreting checked-in numbers: one shard, so "aqp_host_cpus" only
// documents the recording machine; the config
// label rides on each benchmark as "label" plus the run's filter
// counters.
//
//   $ ./bench_filter_scaling --benchmark_out=BENCH_filter_scaling.json \
//         --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "bench_support.h"
#include "datagen/scale.h"
#include "exec/operator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/stream.h"
#include "text/gram_order.h"

namespace {

using namespace aqp;  // NOLINT

constexpr double kTheta = 0.85;

datagen::ScaledCorpusOptions CorpusOptions(size_t total_rows) {
  datagen::ScaledCorpusOptions options;
  options.parent_rows = total_rows / 2;
  options.child_rows = total_rows - options.parent_rows;
  return options;
}

/// Corpus-sampled gram frequency order, one per scale, built once. A
/// bounded sample suffices — the order only steers which grams form
/// prefixes (cost, never results), and 20k strings pin the common
/// word-pool grams that matter.
std::shared_ptr<const text::GramOrder> SharedOrder(size_t total_rows) {
  static std::map<size_t, std::shared_ptr<const text::GramOrder>> orders;
  auto it = orders.find(total_rows);
  if (it == orders.end()) {
    const datagen::ScaledCorpus corpus(CorpusOptions(total_rows));
    auto order = std::make_shared<text::GramOrder>();
    const text::QGramOptions q3;
    const size_t parent_sample =
        std::min<size_t>(corpus.options().parent_rows, 20000);
    const size_t child_sample =
        std::min<size_t>(corpus.options().child_rows, 20000);
    for (size_t i = 0; i < parent_sample; ++i) {
      order->AddSample(corpus.ParentLocation(i), q3);
    }
    for (size_t i = 0; i < child_sample; ++i) {
      order->AddSample(corpus.ChildLocation(i), q3);
    }
    it = orders.emplace(total_rows, std::move(order)).first;
  }
  return it->second;
}

/// Cumulative filter stack: 0 = none, 1 = +length, 2 = +prefix,
/// 3 = +positional. Every filtered config carries the sampled gram
/// order: the filtered kernel scans probe grams in the fixed order, so
/// without frequency information the insert phase would consume
/// common-gram posting lists and inflate T(t) — the order is what
/// keeps "rarest first" working once live posting frequencies are off
/// the table.
join::ApproxFilterOptions ConfigFor(int config, size_t total_rows) {
  join::ApproxFilterOptions filter;
  filter.length = config >= 1;
  filter.prefix = config >= 2;
  filter.positional = config >= 3;
  if (filter.any()) filter.gram_order = SharedOrder(total_rows);
  return filter;
}

void RunFilterScaling(benchmark::State& state, size_t total_rows,
                      int config) {
  const datagen::ScaledCorpus corpus(CorpusOptions(total_rows));
  const join::ApproxFilterOptions filter = ConfigFor(config, total_rows);
  state.SetLabel(filter.Label());

  join::ApproxProbeStats stats;
  uint64_t match_count = 0;
  for (auto _ : state) {
    exec::GeneratorSource child(
        corpus.child_schema(),
        [&corpus, i = size_t{0},
         n = corpus.options().child_rows]() mutable
            -> std::optional<storage::Tuple> {
          if (i >= n) return std::nullopt;
          return corpus.ChildTuple(i++);
        });
    exec::GeneratorSource parent(
        corpus.parent_schema(),
        [&corpus, i = size_t{0},
         n = corpus.options().parent_rows]() mutable
            -> std::optional<storage::Tuple> {
          if (i >= n) return std::nullopt;
          return corpus.ParentTuple(i++);
        });
    exec::parallel::ParallelJoinOptions options;
    options.base.join.spec.left_column = 0;
    options.base.join.spec.right_column = 0;
    options.base.join.spec.sim_threshold = kTheta;
    options.base.join.spec.filter = filter;
    options.base.join.left_size_hint = corpus.options().child_rows;
    options.base.join.right_size_hint = corpus.options().parent_rows;
    options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
    options.base.adaptive.initial_state = adaptive::ProcessorState::kLapRap;
    options.base.adaptive.parent_side = exec::Side::kRight;
    options.base.adaptive.parent_table_size = corpus.options().parent_rows;
    options.num_shards = 1;
    exec::parallel::ParallelAdaptiveJoin join(&child, &parent, options);
    auto count = exec::CountAll(&join);
    if (!count.ok()) {
      state.SkipWithError(count.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*count);
    stats = join.shard(0).core().approx_probe_stats();
    match_count = *count;
  }
  // Deterministic corpus → identical counters every repetition; the
  // "matches" counter must agree across configs at one scale (the
  // filters' exactness, visible right in the JSON).
  state.counters["candidates"] = static_cast<double>(stats.candidates);
  state.counters["verified"] = static_cast<double>(stats.verified);
  state.counters["matches"] = static_cast<double>(match_count);
  state.counters["postings_scanned"] =
      static_cast<double>(stats.postings_scanned);
  state.counters["length_skipped"] = static_cast<double>(stats.length_skipped);
  state.counters["position_rejected"] =
      static_cast<double>(stats.position_rejected);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(total_rows));
}

/// 10^4 and 10^5 rows, all four cumulative configs, mean of 5
/// single-run repetitions.
void BM_SSHJoin_FilterScaling(benchmark::State& state) {
  RunFilterScaling(state, static_cast<size_t>(state.range(0)),
                   static_cast<int>(state.range(1)));
}
BENCHMARK(BM_SSHJoin_FilterScaling)
    ->ArgsProduct({{10000, 100000}, {0, 1, 2, 3}})
    ->ArgNames({"rows", "config"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Repetitions(5)
    ->Iterations(1);

/// 10^6 rows, full stack only (see the file comment: the unfiltered
/// and partially filtered walks are hours-per-repetition at this
/// scale — config 2 still verifies every surviving candidate by gram-
/// set intersection, and only the positional filter collapses that);
/// one repetition — the point is that the filtered walk completes at
/// all, in memory, in minutes.
void BM_SSHJoin_FilterScaling1M(benchmark::State& state) {
  RunFilterScaling(state, 1000000, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_SSHJoin_FilterScaling1M)
    ->ArgsProduct({{3}})
    ->ArgNames({"config"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Repetitions(1)
    ->Iterations(1);

/// CI smoke series: tiny corpus, every config, normal iteration
/// counts — exists so the Release bench-smoke job exercises the
/// filtered operator end to end without paying for the sweep.
void BM_SSHJoin_FilterSmoke(benchmark::State& state) {
  RunFilterScaling(state, 2000, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_SSHJoin_FilterSmoke)
    ->ArgsProduct({{0, 1, 2, 3}})
    ->ArgNames({"config"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// BENCHMARK_MAIN(), plus context recording the build type of the
// *measured* library and the sweep's shape (the stock
// "library_build_type" key describes the Google Benchmark shared
// library, not this code).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("aqp_build_type", aqp::bench::BuildTypeName());
  benchmark::AddCustomContext(
      "aqp_host_cpus", std::to_string(aqp::bench::HostCpuCount()));
  benchmark::AddCustomContext(
      "aqp_filter_config",
      "config 0=none 1=length 2=length+prefix 3=length+prefix+positional "
      "(cumulative; filtered configs use a corpus-sampled gram order)");
  benchmark::AddCustomContext(
      "aqp_filter_rows",
      "rows = parent+child, split evenly; 10000/100000 run all configs "
      "(5 repetitions), 1000000 runs the full stack only (1 repetition; "
      "lesser configs are hours-per-run at that scale)");
  benchmark::AddCustomContext("aqp_theta_sim", "0.85");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
