// Ingest-overlap benchmark: what does pipelining the source parse +
// routing of epoch e+1 under epoch e's phase execution actually buy?
// Every benchmark runs the same workload twice — pipeline_ingest off
// (serial: route, then execute, strictly alternating) and on (the
// ingest task group stages the next epoch while the phases run) — so
// the pair isolates the overlap win. Two feeds are swept:
//
//   * generator-backed: RelationScan over in-memory rows, where the
//     refill is cheap and the measured effect is mostly routing
//     overlap and swap-point bookkeeping;
//   * CSV-backed: CsvSource parsing real CSV text per refill — the
//     record-linkage-shaped feed where ingest is expensive and
//     overlap has something substantial to hide.
//
// The shards = 1 points are the one-shard engine: pipelined ingest is
// its only overlap mechanism.
//
// Interpreting checked-in numbers: read "aqp_host_cpus" first. On a
// 1-CPU host the ingest task and the phase tasks time-slice one core,
// so the pipelined points measure staging overhead with no real
// overlap (IngestStats::stall_ns approaches overlap_route_ns there);
// the speedup target applies on multicore hardware. Per-pair ingest
// counters are exported alongside the timings (stall_ms, overlap_ms,
// staged epochs per run).
//
//   $ ./bench_ingest_overlap --benchmark_out=BENCH_ingest_overlap.json \
//         --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "bench_support.h"
#include "datagen/generator.h"
#include "exec/csv_io.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "storage/relation_io.h"

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

/// CSV text of both relations of a case, serialized once and reparsed
/// by CsvSource every iteration (the parse is the ingest cost the
/// pipelined path overlaps with execution).
const std::pair<std::string, std::string>& SharedCsv(size_t scale) {
  static std::map<size_t, std::pair<std::string, std::string>> texts;
  auto it = texts.find(scale);
  if (it == texts.end()) {
    const datagen::TestCase& tc = SharedCase(scale);
    std::ostringstream child, parent;
    storage::WriteRelationCsv(tc.child, &child);
    storage::WriteRelationCsv(tc.parent, &parent);
    it = texts
             .emplace(scale,
                      std::make_pair(child.str(), parent.str()))
             .first;
  }
  return it->second;
}

exec::parallel::ParallelJoinOptions JoinOptions(const datagen::TestCase& tc,
                                                size_t shards,
                                                bool pipelined) {
  exec::parallel::ParallelJoinOptions options;
  options.base.join.spec.left_column = datagen::kAccidentsLocationColumn;
  options.base.join.spec.right_column = datagen::kAtlasLocationColumn;
  options.base.join.spec.sim_threshold = 0.85;
  options.base.join.left_size_hint = tc.child.size();
  options.base.join.right_size_hint = tc.parent.size();
  options.base.adaptive.parent_side = exec::Side::kRight;
  options.base.adaptive.parent_table_size = tc.parent.size();
  options.num_shards = shards;
  options.pipeline_ingest = pipelined;
  return options;
}

void ExportIngestCounters(benchmark::State& state,
                          const exec::parallel::IngestStats& ingest) {
  state.counters["staged_epochs"] = benchmark::Counter(
      static_cast<double>(ingest.epochs_staged),
      benchmark::Counter::kAvgIterations);
  state.counters["stall_ms"] =
      benchmark::Counter(static_cast<double>(ingest.stall_ns) / 1e6,
                         benchmark::Counter::kAvgIterations);
  state.counters["overlap_ms"] =
      benchmark::Counter(static_cast<double>(ingest.overlap_route_ns) / 1e6,
                         benchmark::Counter::kAvgIterations);
  state.counters["serial_route_ms"] =
      benchmark::Counter(static_cast<double>(ingest.serial_route_ns) / 1e6,
                         benchmark::Counter::kAvgIterations);
}

/// Generator-backed adaptive run: cheap refills, the overlap is mostly
/// the routing loop itself.
void BM_IngestOverlap_Generator(benchmark::State& state) {
  const auto& tc = SharedCase(static_cast<size_t>(state.range(0)));
  const auto shards = static_cast<size_t>(state.range(1));
  const bool pipelined = state.range(2) != 0;
  exec::parallel::IngestStats ingest;
  for (auto _ : state) {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    exec::parallel::ParallelAdaptiveJoin join(
        &child, &parent, JoinOptions(tc, shards, pipelined));
    auto count = exec::CountAll(&join);
    if (!count.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    benchmark::DoNotOptimize(*count);
    ingest.epochs_staged += join.ingest_stats().epochs_staged;
    ingest.stall_ns += join.ingest_stats().stall_ns;
    ingest.overlap_route_ns += join.ingest_stats().overlap_route_ns;
    ingest.serial_route_ns += join.ingest_stats().serial_route_ns;
  }
  ExportIngestCounters(state, ingest);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(tc.child.size() + tc.parent.size()));
}
BENCHMARK(BM_IngestOverlap_Generator)
    ->ArgsProduct({{2000, 4000}, {1, 2, 4}, {0, 1}})
    ->ArgNames({"scale", "shards", "pipelined"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// CSV-backed adaptive run: every refill parses CSV records, so the
/// staged epoch carries real parse cost off the critical path.
void BM_IngestOverlap_Csv(benchmark::State& state) {
  const auto scale = static_cast<size_t>(state.range(0));
  const auto shards = static_cast<size_t>(state.range(1));
  const bool pipelined = state.range(2) != 0;
  const datagen::TestCase& tc = SharedCase(scale);
  const auto& csv = SharedCsv(scale);
  exec::parallel::IngestStats ingest;
  for (auto _ : state) {
    exec::CsvSource child(tc.child.schema(), csv.first);
    exec::CsvSource parent(tc.parent.schema(), csv.second);
    exec::parallel::ParallelAdaptiveJoin join(
        &child, &parent, JoinOptions(tc, shards, pipelined));
    auto count = exec::CountAll(&join);
    if (!count.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    benchmark::DoNotOptimize(*count);
    ingest.epochs_staged += join.ingest_stats().epochs_staged;
    ingest.stall_ns += join.ingest_stats().stall_ns;
    ingest.overlap_route_ns += join.ingest_stats().overlap_route_ns;
    ingest.serial_route_ns += join.ingest_stats().serial_route_ns;
  }
  ExportIngestCounters(state, ingest);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(tc.child.size() + tc.parent.size()));
}
BENCHMARK(BM_IngestOverlap_Csv)
    ->ArgsProduct({{2000, 4000}, {1, 2, 4}, {0, 1}})
    ->ArgNames({"scale", "shards", "pipelined"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN(), plus context recording the build type of the
// *measured* library (the stock "library_build_type" key describes
// the Google Benchmark shared library, not this code).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("aqp_build_type", aqp::bench::BuildTypeName());
  const unsigned cpus = std::thread::hardware_concurrency();
  benchmark::AddCustomContext("aqp_host_cpus", std::to_string(cpus));
  if (cpus <= 1) {
    benchmark::AddCustomContext(
        "aqp_host_note",
        "single-core host: the ingest task time-slices with the phase "
        "tasks, so pipelined points measure staging overhead without real "
        "overlap (stall_ms ~ overlap_ms); the speedup target applies on "
        "multicore machines");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
