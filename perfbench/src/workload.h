#ifndef LINKBENCH_WORKLOAD_H_
#define LINKBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/state.h"
#include "check.h"
#include "common/status.h"
#include "trace.h"

namespace linkbench {

/// One query of a run, as the client saw it.
struct QueryOutcome {
  /// Which input and policy ran; repeats of one config must agree.
  std::string config;
  /// From Open (or Submit) until the last row is in hand.
  int64_t latency_ns = 0;
  /// From query start until the drained output held 90% of the
  /// query's final true pairs; -1 when it has none.
  int64_t t90_ns = -1;
  /// Input rows the engine consumed.
  uint64_t rows = 0;
  /// Ground-truth pairs in the query's input.
  uint64_t truth = 0;
  PairTally tally;
  /// Non-empty when the query failed.
  std::string error;
};

/// Per-layer counters of a traced run. Every field is reported under
/// the metric name in its comment; a layer a workload cannot observe
/// from outside stays 0 and the run says why.
struct LayerCounters {
  // exec/parallel: ingest_stats().
  double ingest_stall_ms = 0;          // parallel.ingest.stall_ms
  double ingest_overlap_route_ms = 0;  // parallel.ingest.overlap_route_ms
  double ingest_serial_route_ms = 0;   // parallel.ingest.serial_route_ms
  uint64_t ingest_epochs_staged = 0;   // parallel.ingest.epochs_staged
  // exec/parallel: benchmark governor hook.
  std::vector<double> epoch_us;        // parallel.epochs / epoch_*_us
  double shard_skew_sum = 0;           // parallel.shard_skew (mean)
  uint64_t shard_skew_n = 0;
  // join: shard probe counters.
  uint64_t postings_scanned = 0;       // join.probe.postings_scanned
  uint64_t candidates = 0;             // join.probe.candidates
  uint64_t verified = 0;               // join.probe.verified
  uint64_t matches = 0;                // join.probe.matches
  uint64_t pairs_exact = 0;            // join.pairs.exact
  uint64_t pairs_approx = 0;           // join.pairs.approx
  // adaptive: cost(), trace(), and epoch time per state.
  std::array<uint64_t, aqp::adaptive::kNumProcessorStates> steps{};
  std::array<double, aqp::adaptive::kNumProcessorStates> time_ms{};
  /// Epochs that began without a transition: time and steps per state
  /// (the measured w vector).
  std::array<double, aqp::adaptive::kNumProcessorStates> steady_ms{};
  std::array<uint64_t, aqp::adaptive::kNumProcessorStates> steady_steps{};
  /// Transitions into each state seen at control points; for those
  /// followed by a steady epoch, Σ of the entry epoch's time beyond its
  /// steps at that next epoch's per-step rate (the catch-up estimate).
  std::array<uint64_t, aqp::adaptive::kNumProcessorStates> entries{};
  std::array<double, aqp::adaptive::kNumProcessorStates> catchup_ms{};
  std::array<uint64_t, aqp::adaptive::kNumProcessorStates> catchup_n{};
  uint64_t transitions = 0;            // adaptive.transitions
  uint64_t catchup_tuples = 0;         // adaptive.catchup_tuples
  uint64_t sigma_count = 0;            // adaptive.sigma_count
  // stats: Completeness().ratio minus measured recall, per query.
  double model_gap_sum = 0;            // stats.model_gap (mean)
  uint64_t model_gap_n = 0;
  // storage.
  double engine_peak_mb = 0;           // storage.engine_peak_mb (max)
  // service.
  std::vector<double> queue_wait_ms;   // service.queue_wait_ms_p50
  std::vector<double> run_ms;          // service.run_ms_p50
  uint64_t peak_running = 0;           // service.peak_running
  uint64_t admitted_total = 0;         // service.admitted_total
  uint64_t released_total = 0;         // service.released_total
};

/// What a workload's measured phase returns.
struct RunRecord {
  std::vector<QueryOutcome> queries;
  /// From the first query's start to the last one's end.
  int64_t wall_ns = 0;
  /// Failed balance checks (admission counters and the like).
  std::vector<std::string> balance_errors;
  LayerCounters layers;
  /// Lines the report prints verbatim.
  std::vector<std::string> notes;
};

/// A closed-loop workload. Setup() builds every input from the seed
/// (and starts whatever serves the queries); it may be called again to
/// rebuild from scratch. Run() issues queries back to back, rotating
/// through the workload's configs, until `seconds` have passed at the
/// end of a whole rotation.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual aqp::Status Setup(uint64_t seed) = 0;
  virtual RunRecord Run(double seconds, Tracer* tracer) = 0;
  /// Load threads the workload's engine uses (shards, or pool workers).
  virtual size_t shards() const = 0;
  virtual size_t workers() const = 0;
};

std::unique_ptr<Workload> MakeExactBulk();
std::unique_ptr<Workload> MakePaperMar();
std::unique_ptr<Workload> MakeServingMix();

}  // namespace linkbench

#endif  // LINKBENCH_WORKLOAD_H_
