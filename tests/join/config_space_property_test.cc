// Oracle equality across the whole similarity configuration space:
// every (q, measure, padding, threshold) combination must make SSHJoin
// agree exactly with the brute-force similarity join. This pins the
// soundness of MinOverlapForThreshold and the probe's count filter for
// every coefficient, not just the paper's Jaccard/q=3 default.

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
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

struct Config {
  int q;
  text::SimilarityMeasure measure;
  bool pad;
  double threshold;
};

class ConfigSpaceTest
    : public ::testing::TestWithParam<
          std::tuple<int, text::SimilarityMeasure, bool, double>> {};

Relation NoisyPool(Rng* rng, size_t rows) {
  std::vector<std::string> bases;
  for (int i = 0; i < 4; ++i) {
    bases.push_back(rng->RandomString(14, "ABCDEFG") + " " +
                    rng->RandomString(9, "HIJKLMN"));
  }
  Relation r(Schema({{"s", ValueType::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    std::string value = bases[rng->Index(bases.size())];
    const int edits = static_cast<int>(rng->Index(3));
    for (int e = 0; e < edits; ++e) {
      value[rng->Index(value.size())] =
          static_cast<char>('a' + rng->Index(26));
    }
    EXPECT_TRUE(r.Append(Tuple{Value(std::move(value))}).ok());
  }
  return r;
}

TEST_P(ConfigSpaceTest, SSHJoinMatchesOracle) {
  const auto [q, measure, pad, threshold] = GetParam();
  Rng rng(static_cast<uint64_t>(q) * 1000 +
          static_cast<uint64_t>(measure) * 100 + (pad ? 10 : 0) +
          static_cast<uint64_t>(threshold * 10));
  const Relation left = NoisyPool(&rng, 30);
  const Relation right = NoisyPool(&rng, 30);

  JoinSpec spec;
  spec.qgram.q = q;
  spec.qgram.pad = pad;
  spec.measure = measure;
  spec.sim_threshold = threshold;

  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec = spec;
  engine_test::ApproxJoin join(&ls, &rs, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::multiset<std::pair<std::string, std::string>> got;
  for (const Tuple& row : result->rows()) {
    got.emplace(row.at(0).AsString(), row.at(1).AsString());
  }
  std::multiset<std::pair<std::string, std::string>> expected;
  for (const BrutePair& p : BruteForceSimilarityJoin(left, right, spec)) {
    expected.emplace(left.row(p.left_row).at(0).AsString(),
                     right.row(p.right_row).at(0).AsString());
  }
  EXPECT_EQ(got, expected) << "q=" << q << " measure="
                           << text::SimilarityMeasureName(measure)
                           << " pad=" << pad << " t=" << threshold;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigSpaceTest,
    ::testing::Combine(
        ::testing::Values(2, 3, 4, 5),
        ::testing::Values(text::SimilarityMeasure::kJaccard,
                          text::SimilarityMeasure::kDice,
                          text::SimilarityMeasure::kCosine,
                          text::SimilarityMeasure::kOverlap),
        ::testing::Bool(), ::testing::Values(0.6, 0.9)));

}  // namespace
}  // namespace join
}  // namespace aqp
