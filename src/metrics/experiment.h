#ifndef AQP_METRICS_EXPERIMENT_H_
#define AQP_METRICS_EXPERIMENT_H_

#include <string>
#include <vector>

#include "adaptive/mar.h"
#include "common/result.h"
#include "datagen/generator.h"
#include "metrics/gain_cost.h"
#include "metrics/run_stats.h"

namespace aqp {
namespace metrics {

/// \brief Parameters of one §4 experiment: a test case plus the join
/// and MAR configuration used on it.
struct ExperimentOptions {
  datagen::TestCaseOptions testcase;

  /// θ_sim (paper: 0.85 for all test cases).
  double sim_threshold = 0.85;
  /// q-gram width (paper: 3).
  int q = 3;

  /// MAR parameters; parent side/table size are filled in by the
  /// runner (child = left input = accidents, parent = right = atlas).
  adaptive::AdaptiveOptions adaptive;

  /// Weights pricing the step/transition counts (paper defaults).
  adaptive::StateWeights weights = adaptive::StateWeights::Paper();
};

/// \brief Results of running one test case under the adaptive policy
/// and both pinned baselines.
struct ExperimentResult {
  std::string label;
  datagen::TestCaseOptions testcase;

  RunStats adaptive;
  RunStats all_exact;
  RunStats all_approx;

  /// Gain/cost with weighted step costs (the paper's accounting).
  GainCost weighted;
  /// Gain/cost with measured wall-clock seconds as the cost.
  GainCost wall_clock;

  /// Ground-truth completeness of each run: matched child rows over
  /// all child rows.
  double adaptive_completeness = 0.0;
  double exact_completeness = 0.0;
  double approx_completeness = 0.0;

  /// Adaptation timeline of the adaptive run.
  adaptive::AdaptationTrace trace;
};

/// \brief Runs one experiment: generates the test case, executes the
/// adaptive run and the two pinned baselines, and assembles the §4.3
/// metrics.
Result<ExperimentResult> RunExperiment(const ExperimentOptions& options);

/// \brief Runs a pre-generated test case under an explicit policy on
/// the join engine at one shard; building block for RunExperiment and
/// the parameter-tuning bench. `pinned_state` is only used with
/// AdaptivePolicy::kPinned.
Result<RunStats> RunPolicy(const datagen::TestCase& tc,
                           const ExperimentOptions& options,
                           adaptive::AdaptivePolicy policy,
                           adaptive::ProcessorState pinned_state,
                           adaptive::AdaptationTrace* trace_out);

/// \brief Builds the AdaptiveJoinOptions the runner uses for a test
/// case (child = left, parent = right), exposed so examples/benches
/// stay consistent with the harness.
adaptive::AdaptiveJoinOptions MakeJoinOptions(const datagen::TestCase& tc,
                                              const ExperimentOptions& options);

}  // namespace metrics
}  // namespace aqp

#endif  // AQP_METRICS_EXPERIMENT_H_
