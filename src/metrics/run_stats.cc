#include "metrics/run_stats.h"

#include <algorithm>

namespace aqp {
namespace metrics {

double RunStats::WeightedCost(const adaptive::StateWeights& weights) const {
  double cost = 0.0;
  for (size_t i = 0; i < adaptive::kNumProcessorStates; ++i) {
    cost += static_cast<double>(steps_per_state[i]) * weights.step[i];
    cost += static_cast<double>(transitions_into[i]) * weights.transition[i];
  }
  return cost;
}

double RunStats::StepShare(adaptive::ProcessorState s) const {
  if (total_steps == 0) return 0.0;
  return static_cast<double>(steps_per_state[adaptive::StateIndex(s)]) /
         static_cast<double>(total_steps);
}

RunStats SummarizeRun(const exec::parallel::ParallelAdaptiveJoin& join,
                      const std::string& label, double wall_seconds) {
  RunStats stats;
  stats.label = label;
  stats.result_pairs = join.pairs_emitted();
  const exec::Side child =
      exec::OtherSide(join.options().base.adaptive.parent_side);
  stats.distinct_children_matched = join.distinct_matched(child);
  stats.exact_pairs = join.exact_pairs();
  stats.approx_pairs = join.approximate_pairs();

  const adaptive::CostAccountant& cost = join.cost();
  stats.total_steps = cost.total_steps();
  stats.total_transitions = cost.total_transitions();
  for (adaptive::ProcessorState s : adaptive::kAllProcessorStates) {
    stats.steps_per_state[adaptive::StateIndex(s)] = cost.steps(s);
    stats.transitions_into[adaptive::StateIndex(s)] = cost.transitions(s);
    stats.state_time_ns[adaptive::StateIndex(s)] = join.state_time_ns(s);
  }
  for (size_t i = 0; i < join.num_shards(); ++i) {
    const exec::parallel::JoinShard& shard = join.shard(i);
    stats.catchup_tuples += shard.core().catchup_tuples();
    stats.probe.MergeFrom(shard.core().approx_probe_stats());
    stats.probe.MergeFrom(shard.cross_probe_stats());
  }
  stats.wall_seconds = wall_seconds;
  stats.memory_bytes = join.memory_bytes();
  stats.peak_memory_bytes =
      std::max(join.peak_memory_bytes(), join.memory_bytes());
  return stats;
}

}  // namespace metrics
}  // namespace aqp
