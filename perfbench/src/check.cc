#include "check.h"

#include "text/qgram.h"
#include "text/similarity.h"

namespace linkbench {

namespace {

bool ReachesThreshold(const aqp::join::JoinSpec& spec, std::string_view a,
                      std::string_view b) {
  const aqp::text::GramSet ga = aqp::text::GramSet::Of(a, spec.qgram);
  const aqp::text::GramSet gb = aqp::text::GramSet::Of(b, spec.qgram);
  return aqp::text::SetSimilarity(spec.measure, ga, gb) >= spec.sim_threshold;
}

}  // namespace

void PairChecker::Check(std::string_view left_key, int64_t left_id,
                        std::string_view right_key, int64_t right_id,
                        PairKind kind, PairTally* tally) const {
  ++tally->emitted;
  const bool equal = left_key == right_key;
  bool valid = false;
  switch (kind) {
    case PairKind::kExact:
      valid = equal;
      break;
    case PairKind::kApproximate:
    case PairKind::kUnknown:
      valid = equal || ReachesThreshold(layout_.spec, left_key, right_key);
      break;
  }
  const std::vector<uint32_t>& truth = *layout_.true_parent;
  const bool in_range =
      left_id >= 0 && static_cast<uint64_t>(left_id) < truth.size();
  if (!valid || !in_range) {
    if (tally->violations++ == 0) {
      tally->first_violation =
          std::string(!in_range ? "child id out of range" :
                      kind == PairKind::kExact ? "exact pair with unequal keys"
                                               : "pair below the threshold") +
          ": '" + std::string(left_key) + "' (" + std::to_string(left_id) +
          ") ~ '" + std::string(right_key) + "' (" + std::to_string(right_id) +
          ")";
    }
    return;
  }
  if (static_cast<int64_t>(truth[static_cast<size_t>(left_id)]) == right_id) {
    ++tally->true_pairs;
  }
}

void PairChecker::CheckBatch(const aqp::storage::ColumnBatch& batch,
                             const std::vector<aqp::join::MatchKind>& kinds,
                             PairTally* tally) const {
  for (size_t row = 0; row < batch.size(); ++row) {
    const PairKind kind = kinds[row] == aqp::join::MatchKind::kExact
                              ? PairKind::kExact
                              : PairKind::kApproximate;
    Check(batch.StringAt(layout_.left_key, row),
          batch.Int64At(layout_.left_id, row),
          batch.StringAt(layout_.right_key, row),
          batch.Int64At(layout_.right_id, row), kind, tally);
  }
}

void PairChecker::CheckRelation(const aqp::storage::Relation& result,
                                PairTally* tally) const {
  for (const aqp::storage::Tuple& row : result.rows()) {
    Check(row.at(layout_.left_key).AsString(),
          row.at(layout_.left_id).AsInt64(),
          row.at(layout_.right_key).AsString(),
          row.at(layout_.right_id).AsInt64(), PairKind::kUnknown, tally);
  }
}

}  // namespace linkbench
