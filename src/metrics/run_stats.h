#ifndef AQP_METRICS_RUN_STATS_H_
#define AQP_METRICS_RUN_STATS_H_

#include <array>
#include <cstdint>
#include <string>

#include "adaptive/cost_model.h"
#include "adaptive/state.h"
#include "exec/parallel/parallel_join.h"
#include "join/probe.h"

namespace aqp {
namespace metrics {

/// \brief Everything measured about one join execution, sufficient to
/// regenerate the paper's Figs. 6–8 rows for that run.
struct RunStats {
  std::string label;

  /// Result shape.
  uint64_t result_pairs = 0;
  uint64_t distinct_children_matched = 0;
  uint64_t exact_pairs = 0;
  uint64_t approx_pairs = 0;

  /// Execution shape (Fig. 7 raw material).
  uint64_t total_steps = 0;
  std::array<uint64_t, adaptive::kNumProcessorStates> steps_per_state{};
  std::array<uint64_t, adaptive::kNumProcessorStates> transitions_into{};
  uint64_t total_transitions = 0;
  uint64_t catchup_tuples = 0;

  /// Measured time.
  double wall_seconds = 0.0;
  std::array<int64_t, adaptive::kNumProcessorStates> state_time_ns{};

  /// Approximate-probe work counters (Table 1 raw material).
  join::ApproxProbeStats probe;

  /// Rough memory of the join state (§2.3), summed over every shard,
  /// the exchange, and the coordinator: end-of-run footprint and the
  /// high-water across the run.
  uint64_t memory_bytes = 0;
  uint64_t peak_memory_bytes = 0;

  /// Σ_i t_i·w_i + Σ_i tr_i·v_i under the given weights (§4.3 c_abs).
  double WeightedCost(const adaptive::StateWeights& weights) const;

  /// Fraction of steps spent in a state.
  double StepShare(adaptive::ProcessorState s) const;
};

/// Collects RunStats from a finished join (any policy, any shard
/// count): result shape and step/transition counts from the
/// coordinator, probe and catch-up work summed over the shards.
RunStats SummarizeRun(const exec::parallel::ParallelAdaptiveJoin& join,
                      const std::string& label, double wall_seconds);

}  // namespace metrics
}  // namespace aqp

#endif  // AQP_METRICS_RUN_STATS_H_
