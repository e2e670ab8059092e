// SSHJoin (§2.2) is the join engine pinned to lap/rap: both inputs
// probe the other side's q-gram index.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "exec/scan.h"
#include "join/brute_force.h"
#include "testing/engine.h"

namespace aqp {
namespace join {
namespace {

using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

using engine_test::ApproxJoin;

Relation Strings(const std::vector<std::string>& values) {
  Relation r(Schema({{"s", ValueType::kString}}));
  for (const auto& v : values) {
    EXPECT_TRUE(r.Append(Tuple{Value(v)}).ok());
  }
  return r;
}

/// Runs SSHJoin and returns the matched (left_value, right_value)
/// multiset for comparison with the brute-force oracle.
std::multiset<std::pair<std::string, std::string>> RunSSHJoin(
    const Relation& left, const Relation& right, double threshold) {
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec.sim_threshold = threshold;
  ApproxJoin join(&ls, &rs, options);
  auto result = exec::CollectAll(&join);
  EXPECT_TRUE(result.ok());
  std::multiset<std::pair<std::string, std::string>> pairs;
  for (const Tuple& row : result->rows()) {
    pairs.emplace(row.at(0).AsString(), row.at(1).AsString());
  }
  return pairs;
}

std::multiset<std::pair<std::string, std::string>> OraclePairs(
    const Relation& left, const Relation& right, double threshold) {
  JoinSpec spec;
  spec.sim_threshold = threshold;
  std::multiset<std::pair<std::string, std::string>> pairs;
  for (const BrutePair& p : BruteForceSimilarityJoin(left, right, spec)) {
    pairs.emplace(left.row(p.left_row).at(0).AsString(),
                  right.row(p.right_row).at(0).AsString());
  }
  return pairs;
}

TEST(SSHJoinTest, FindsVariantPairs) {
  const Relation left = Strings({"TAA BZ SANTA CRISTINA VALGARDENA"});
  const Relation right = Strings({"TAA BZ SANTA CRISTINx VALGARDENA"});
  const auto pairs = RunSSHJoin(left, right, 0.8);
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(SSHJoinTest, MatchesBruteForceOracleMixedPool) {
  const Relation left = Strings({
      "TAA BZ SANTA CRISTINA VALGARDENA",
      "LOM MI VILLA BORGHESE SUL NAVIGLIO",
      "VEN VE CASTEL NUOVO DEL MONTE",
      "PIE TO MONTE VERDE SUPERIORE",
  });
  const Relation right = Strings({
      "TAA BZ SANTA CRISTINx VALGARDENA",   // variant of left[0]
      "LOM MI VILLA BORGHESE SUL NAVIGLIO", // equal to left[1]
      "SIC PA ROCCA MARITTIMA DEL SUD",     // unrelated
      "VEN VE CASTEL NUOVo DEL MONTE",      // variant of left[2]
  });
  for (double threshold : {0.6, 0.75, 0.85, 0.95}) {
    EXPECT_EQ(RunSSHJoin(left, right, threshold),
              OraclePairs(left, right, threshold))
        << "threshold " << threshold;
  }
}

TEST(SSHJoinTest, ExactDuplicatesCrossProduct) {
  const Relation left = Strings({"SAME LOCATION STRING", "SAME LOCATION STRING"});
  const Relation right = Strings({"SAME LOCATION STRING"});
  const auto pairs = RunSSHJoin(left, right, 0.9);
  EXPECT_EQ(pairs.size(), 2u);
}

TEST(SSHJoinTest, CoreCountsKinds) {
  const Relation left = Strings({"SANTA CRISTINA VALGARDENA TERME"});
  const Relation right = Strings({"SANTA CRISTINA VALGARDENA TERME",
                                  "SANTA CRISTINx VALGARDENA TERME"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec.sim_threshold = 0.8;
  ApproxJoin join(&ls, &rs, options);
  ASSERT_TRUE(exec::CountAll(&join).ok());
  EXPECT_EQ(join.exact_pairs(), 1u);
  EXPECT_EQ(join.approximate_pairs(), 1u);
  EXPECT_GT(join.shard(0).core().approx_probe_stats().grams, 0u);
}

TEST(SSHJoinTest, TinyThresholdMatchesOracle) {
  // With a tiny threshold, k=1: any shared gram is a candidate; the
  // verifier then applies the exact coefficient.
  const Relation left = Strings({"AAA BBB", "CCC DDD"});
  const Relation right = Strings({"BBB AAA", "EEE FFF"});
  EXPECT_EQ(RunSSHJoin(left, right, 0.05), OraclePairs(left, right, 0.05));
}

TEST(SSHJoinTest, ThresholdZeroRejectedAtOpen) {
  // A gram-index join cannot express "similarity >= 0" (a cross join):
  // the spec rejects it.
  const Relation left = Strings({"A"});
  const Relation right = Strings({"A"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec.sim_threshold = 0.0;
  ApproxJoin join(&ls, &rs, options);
  EXPECT_TRUE(join.Open().IsInvalidArgument());
}

TEST(SSHJoinTest, NoPairsBelowThresholdEmitted) {
  const Relation left = Strings({"COMPLETELY DISTINCT ALPHA"});
  const Relation right = Strings({"TOTALLY OTHER OMEGA ZZZ"});
  const auto pairs = RunSSHJoin(left, right, 0.9);
  EXPECT_TRUE(pairs.empty());
}

TEST(SSHJoinTest, SimilarityColumnCarriesCoefficient) {
  const Relation left = Strings({"SANTA CRISTINA VALGARDENA IN COLLE"});
  const Relation right = Strings({"SANTA CRISTINx VALGARDENA IN COLLE"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec.sim_threshold = 0.8;
  options.emit_similarity = true;
  ApproxJoin join(&ls, &rs, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  const double sim = result->row(0).at(2).AsDouble();
  EXPECT_GE(sim, 0.8);
  EXPECT_LT(sim, 1.0);
  // Must equal the directly computed Jaccard.
  const double expected = text::Jaccard(
      text::GramSet::Of(left.row(0).at(0).AsString(), options.spec.qgram),
      text::GramSet::Of(right.row(0).at(0).AsString(), options.spec.qgram));
  EXPECT_DOUBLE_EQ(sim, expected);
}

TEST(SSHJoinTest, DiceMeasureSupported) {
  const Relation left = Strings({"SANTA CRISTINA VALGARDENA"});
  const Relation right = Strings({"SANTA CRISTINx VALGARDENA"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec.measure = text::SimilarityMeasure::kDice;
  options.spec.sim_threshold = 0.88;  // Dice is more forgiving than Jaccard
  ApproxJoin join(&ls, &rs, options);
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
}

}  // namespace
}  // namespace join
}  // namespace aqp
