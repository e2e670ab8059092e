#include "metrics/experiment.h"

#include "common/macros.h"
#include "common/timer.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"

namespace aqp {
namespace metrics {

adaptive::AdaptiveJoinOptions MakeJoinOptions(
    const datagen::TestCase& tc, const ExperimentOptions& options) {
  adaptive::AdaptiveJoinOptions jo;
  jo.join.spec.left_column = datagen::kAccidentsLocationColumn;
  jo.join.spec.right_column = datagen::kAtlasLocationColumn;
  jo.join.spec.sim_threshold = options.sim_threshold;
  jo.join.spec.qgram.q = options.q;
  jo.join.left_size_hint = tc.child.size();
  jo.join.right_size_hint = tc.parent.size();
  jo.adaptive = options.adaptive;
  jo.adaptive.parent_side = exec::Side::kRight;
  jo.adaptive.parent_table_size = tc.parent.size();
  jo.weights = options.weights;
  return jo;
}

Result<RunStats> RunPolicy(const datagen::TestCase& tc,
                           const ExperimentOptions& options,
                           adaptive::AdaptivePolicy policy,
                           adaptive::ProcessorState pinned_state,
                           adaptive::AdaptationTrace* trace_out) {
  exec::RelationScan child_scan(&tc.child);
  exec::RelationScan parent_scan(&tc.parent);
  exec::parallel::ParallelJoinOptions jo;
  jo.base = MakeJoinOptions(tc, options);
  jo.base.adaptive.policy = policy;
  if (policy == adaptive::AdaptivePolicy::kPinned) {
    jo.base.adaptive.initial_state = pinned_state;
  }
  jo.num_shards = 1;
  exec::parallel::ParallelAdaptiveJoin join(&child_scan, &parent_scan, jo);

  Timer timer;
  auto count = exec::CountAll(&join);
  if (!count.ok()) return count.status();
  const double wall = timer.ElapsedSeconds();

  std::string label = tc.options.Label();
  label += "/";
  label += (policy == adaptive::AdaptivePolicy::kAdaptive)
               ? "adaptive"
               : adaptive::ProcessorStateCode(pinned_state);
  RunStats stats = SummarizeRun(join, label, wall);
  if (trace_out != nullptr) *trace_out = join.trace();
  return stats;
}

Result<ExperimentResult> RunExperiment(const ExperimentOptions& options) {
  ExperimentResult result;
  result.testcase = options.testcase;
  result.label = options.testcase.Label();

  datagen::TestCase tc;
  AQP_ASSIGN_OR_RETURN(tc, datagen::GenerateTestCase(options.testcase));

  AQP_ASSIGN_OR_RETURN(
      result.all_exact,
      RunPolicy(tc, options, adaptive::AdaptivePolicy::kPinned,
                adaptive::ProcessorState::kLexRex, nullptr));
  AQP_ASSIGN_OR_RETURN(
      result.all_approx,
      RunPolicy(tc, options, adaptive::AdaptivePolicy::kPinned,
                adaptive::ProcessorState::kLapRap, nullptr));
  AQP_ASSIGN_OR_RETURN(
      result.adaptive,
      RunPolicy(tc, options, adaptive::AdaptivePolicy::kAdaptive,
                adaptive::ProcessorState::kLexRex, &result.trace));

  // §4.3: gains over the exact baseline, costs against the approximate
  // baseline, both from the same statistic (distinct matched children).
  result.weighted.r = static_cast<double>(
      result.all_exact.distinct_children_matched);
  result.weighted.R = static_cast<double>(
      result.all_approx.distinct_children_matched);
  result.weighted.r_abs = static_cast<double>(
      result.adaptive.distinct_children_matched);
  result.weighted.c = result.all_exact.WeightedCost(options.weights);
  result.weighted.C = result.all_approx.WeightedCost(options.weights);
  result.weighted.c_abs = result.adaptive.WeightedCost(options.weights);

  result.wall_clock = result.weighted;
  result.wall_clock.c = result.all_exact.wall_seconds;
  result.wall_clock.C = result.all_approx.wall_seconds;
  result.wall_clock.c_abs = result.adaptive.wall_seconds;

  const double children = static_cast<double>(tc.child.size());
  result.adaptive_completeness =
      static_cast<double>(result.adaptive.distinct_children_matched) /
      children;
  result.exact_completeness =
      static_cast<double>(result.all_exact.distinct_children_matched) /
      children;
  result.approx_completeness =
      static_cast<double>(result.all_approx.distinct_children_matched) /
      children;
  return result;
}

}  // namespace metrics
}  // namespace aqp
