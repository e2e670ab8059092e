// Scaled-down replication of the paper's §4 experiment, asserting the
// qualitative results the evaluation reports.

#include <gtest/gtest.h>

#include "metrics/experiment.h"
#include "metrics/report.h"
#include "reference_runs.h"

namespace aqp {
namespace {

using datagen::PerturbationPattern;
using metrics::ExperimentOptions;
using metrics::ExperimentResult;

ExperimentOptions Scaled(PerturbationPattern pattern, bool both) {
  return parity::ScenarioOptions(pattern, both);
}

class PaperScenarioTest
    : public ::testing::TestWithParam<std::tuple<PerturbationPattern, bool>> {
};

TEST_P(PaperScenarioTest, QualitativeResultsHold) {
  const auto [pattern, both] = GetParam();
  auto result = metrics::RunExperiment(Scaled(pattern, both));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // §4.4: appreciable gain at a cost below all-approximate.
  EXPECT_GT(result->weighted.RelativeGain(), 0.25) << result->label;
  EXPECT_LT(result->weighted.c_abs, result->weighted.C) << result->label;
  // Efficiency above 1: each unit of relative cost buys more than a
  // unit of relative gain.
  EXPECT_GT(result->weighted.Efficiency(), 1.0) << result->label;
  // The adaptive run reacted at least once.
  EXPECT_GT(result->adaptive.total_transitions, 0u) << result->label;
  // A non-trivial share of steps still runs in cheap lex/rex
  // (the paper reports ~30%).
  EXPECT_GT(result->adaptive.StepShare(adaptive::ProcessorState::kLexRex),
            0.1)
      << result->label;
}

TEST_P(PaperScenarioTest, TraceMatchesRecordedReference) {
  // The adaptation trace and the result shape of all three runs are
  // exactly those recorded from the reference operator.
  const auto [pattern, both] = GetParam();
  auto result = metrics::RunExperiment(Scaled(pattern, both));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string name = parity::ScenarioName(pattern, both);
  const parity::ScenarioDigest actual = parity::DigestOf(name, *result);
  const parity::ScenarioDigest recorded = parity::RecordedScenario(name);
  EXPECT_TRUE(parity::SameScenario(actual, recorded))
      << "actual:   " << actual << "\nrecorded: " << recorded;
}

INSTANTIATE_TEST_SUITE_P(
    AllEightTestCases, PaperScenarioTest,
    ::testing::Combine(
        ::testing::Values(PerturbationPattern::kUniform,
                          PerturbationPattern::kLowIntensityRegions,
                          PerturbationPattern::kFewHighIntensityRegions,
                          PerturbationPattern::kManyHighIntensityRegions),
        ::testing::Bool()));

TEST(PaperScenarioReportTest, FigureRenderersWorkOnRealResults) {
  std::vector<ExperimentResult> results;
  for (PerturbationPattern pattern :
       {PerturbationPattern::kUniform,
        PerturbationPattern::kFewHighIntensityRegions}) {
    auto r = metrics::RunExperiment(Scaled(pattern, false));
    ASSERT_TRUE(r.ok());
    results.push_back(std::move(*r));
  }
  std::ostringstream os;
  metrics::PrintFig6GainCost(results, os);
  metrics::PrintFig7TimeBreakdown(results, os);
  metrics::PrintFig8CostBreakdown(results, adaptive::StateWeights::Paper(),
                                  os);
  metrics::WriteResultsCsv(results, os);
  EXPECT_GT(os.str().size(), 500u);
}

}  // namespace
}  // namespace aqp
