// Property tests pinning the operators to their brute-force oracles
// across random inputs, thresholds, and interleavings.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "exec/scan.h"
#include "join/brute_force.h"
#include "join/hybrid_core.h"
#include "testing/engine.h"

namespace aqp {
namespace join {
namespace {

using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

struct Params {
  uint64_t seed;
  double threshold;
};

class JoinOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

/// Builds a relation whose values are clustered around a few base
/// strings with random single-character corruptions — similar pairs are
/// common, which stresses the candidate generation.
Relation ClusteredRelation(Rng* rng, size_t rows) {
  std::vector<std::string> bases;
  for (int i = 0; i < 5; ++i) {
    bases.push_back("BASE " + rng->RandomString(12, "ABCDEFGHIJ") + " " +
                    rng->RandomString(8, "KLMNOPQR"));
  }
  Relation r(Schema({{"s", ValueType::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    std::string value = bases[rng->Index(bases.size())];
    // 0-2 random substitutions.
    const int edits = static_cast<int>(rng->Index(3));
    for (int e = 0; e < edits; ++e) {
      value[rng->Index(value.size())] =
          static_cast<char>('a' + rng->Index(26));
    }
    EXPECT_TRUE(r.Append(Tuple{Value(std::move(value))}).ok());
  }
  return r;
}

std::multiset<std::pair<size_t, size_t>> OracleSimilar(const Relation& l,
                                                       const Relation& r,
                                                       const JoinSpec& spec) {
  std::multiset<std::pair<size_t, size_t>> out;
  for (const BrutePair& p : BruteForceSimilarityJoin(l, r, spec)) {
    out.emplace(p.left_row, p.right_row);
  }
  return out;
}

TEST_P(JoinOracleTest, SSHJoinEqualsBruteForceSimilarityJoin) {
  const auto [seed, threshold] = GetParam();
  Rng rng(seed);
  const Relation left = ClusteredRelation(&rng, 40);
  const Relation right = ClusteredRelation(&rng, 35);
  JoinSpec spec;
  spec.sim_threshold = threshold;

  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec = spec;
  options.emit_similarity = true;
  engine_test::ApproxJoin join(&ls, &rs, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok());

  // Recover row indexes by value lookup (values may repeat, so compare
  // as multisets of value pairs instead).
  std::multiset<std::pair<std::string, std::string>> got;
  for (const Tuple& row : result->rows()) {
    got.emplace(row.at(0).AsString(), row.at(1).AsString());
  }
  std::multiset<std::pair<std::string, std::string>> expected;
  for (const auto& [li, ri] : OracleSimilar(left, right, spec)) {
    expected.emplace(left.row(li).at(0).AsString(),
                     right.row(ri).at(0).AsString());
  }
  EXPECT_EQ(got, expected);
}

TEST_P(JoinOracleTest, SHJoinEqualsBruteForceExactJoin) {
  const auto [seed, threshold] = GetParam();
  (void)threshold;  // exact join ignores the threshold
  Rng rng(seed ^ 0xabc);
  const Relation left = ClusteredRelation(&rng, 60);
  const Relation right = ClusteredRelation(&rng, 50);
  JoinSpec spec;

  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec = spec;
  engine_test::ExactJoin join(&ls, &rs, options);
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, BruteForceExactJoin(left, right, spec).size());
}

TEST_P(JoinOracleTest, HybridResultBracketedByBaselines) {
  // For any switching behaviour: all-exact ⊆ hybrid ⊆ all-approx
  // (as pair multisets; we check counts of exact pairs and totals).
  const auto [seed, threshold] = GetParam();
  Rng rng(seed ^ 0x777);
  const Relation left = ClusteredRelation(&rng, 50);
  const Relation right = ClusteredRelation(&rng, 50);
  JoinSpec spec;
  spec.sim_threshold = threshold;

  const size_t exact_pairs = BruteForceExactJoin(left, right, spec).size();
  const size_t approx_pairs =
      BruteForceSimilarityJoin(left, right, spec).size();

  HybridJoinCore core(spec);
  Rng sched(seed ^ 0x999);
  size_t li = 0, ri = 0, total = 0;
  std::set<std::pair<storage::TupleId, storage::TupleId>> seen_pairs;
  while (li < left.size() || ri < right.size()) {
    exec::Side side;
    if (li >= left.size()) {
      side = exec::Side::kRight;
    } else if (ri >= right.size()) {
      side = exec::Side::kLeft;
    } else {
      side = sched.Bernoulli(0.5) ? exec::Side::kLeft : exec::Side::kRight;
    }
    if (sched.Bernoulli(0.08)) {
      core.SetProbeMode(side, sched.Bernoulli(0.5)
                                  ? ProbeMode::kExact
                                  : ProbeMode::kApproximate);
    }
    const Tuple& t = side == exec::Side::kLeft ? left.row(li++)
                                               : right.row(ri++);
    for (const JoinMatch& m : core.ProcessTuple(side, t)) {
      total++;
      // No pair may ever be emitted twice.
      EXPECT_TRUE(seen_pairs.emplace(m.left_id(), m.right_id()).second)
          << "duplicate pair emitted";
    }
  }
  EXPECT_GE(total, exact_pairs);
  EXPECT_LE(total, approx_pairs);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThresholds, JoinOracleTest,
    ::testing::Combine(::testing::Values(1u, 7u, 42u, 1234u),
                       ::testing::Values(0.5, 0.7, 0.85, 0.95)));

}  // namespace
}  // namespace join
}  // namespace aqp
