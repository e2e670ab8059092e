#ifndef LINKBENCH_CHECK_H_
#define LINKBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "join/join_types.h"
#include "storage/column_batch.h"
#include "storage/relation.h"

namespace linkbench {

/// How the engine says a pair was found. Results collected by the
/// service carry no kind, so either rule may admit them.
enum class PairKind { kExact, kApproximate, kUnknown };

/// Where the checker finds keys and row ids in an output row, and the
/// generator's ground truth: `true_parent[child id]` is the parent id
/// that child was generated from. The child is the join's left input.
struct CheckLayout {
  size_t left_key = 0;
  size_t left_id = 0;
  size_t right_key = 0;
  size_t right_id = 0;
  aqp::join::JoinSpec spec;
  const std::vector<uint32_t>* true_parent = nullptr;
};

/// Counts over the pairs one query emitted.
struct PairTally {
  uint64_t emitted = 0;
  uint64_t true_pairs = 0;
  uint64_t violations = 0;
  /// The first violation, for the report.
  std::string first_violation;
};

/// Re-verifies emitted pairs from outside the engine: an exact pair
/// must have byte-equal keys, an approximate one must reach θ_sim under
/// the public text:: q-gram and SetSimilarity functions, and a pair of
/// unknown kind must satisfy one of the two. Each pair is also scored
/// against ground truth.
class PairChecker {
 public:
  explicit PairChecker(CheckLayout layout) : layout_(std::move(layout)) {}

  /// Checks one pair and tallies it.
  void Check(std::string_view left_key, int64_t left_id,
             std::string_view right_key, int64_t right_id, PairKind kind,
             PairTally* tally) const;

  /// Checks every row of a drained batch; `kinds[i]` is row i's kind.
  void CheckBatch(const aqp::storage::ColumnBatch& batch,
                  const std::vector<aqp::join::MatchKind>& kinds,
                  PairTally* tally) const;

  /// Checks every row of a collected result (kinds unknown).
  void CheckRelation(const aqp::storage::Relation& result,
                     PairTally* tally) const;

 private:
  CheckLayout layout_;
};

}  // namespace linkbench

#endif  // LINKBENCH_CHECK_H_
