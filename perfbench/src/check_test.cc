// The pair checker's own test: real engine output passes, and a pair
// corrupted after the engine emitted it is caught. Exits non-zero on
// the first failed expectation.

#include <iostream>
#include <string>
#include <vector>

#include "check.h"
#include "datagen/accidents.h"
#include "datagen/atlas.h"
#include "datagen/generator.h"
#include "exec/operator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "metrics/experiment.h"

namespace {

using namespace linkbench;  // NOLINT

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

CheckLayout TinyLayout(const std::vector<uint32_t>* truth) {
  CheckLayout layout;
  layout.left_key = 0;
  layout.left_id = 1;
  layout.right_key = 2;
  layout.right_id = 3;
  layout.true_parent = truth;
  return layout;
}

void HandWrittenPairs() {
  const std::vector<uint32_t> truth = {7, 8};
  const PairChecker checker(TinyLayout(&truth));
  const std::string parent = "PIEMONTE TORINO SAN MAURO AAB BORGO";
  std::string variant = parent;
  variant[10] = 'x';

  PairTally ok;
  checker.Check(parent, 0, parent, 7, PairKind::kExact, &ok);
  checker.Check(variant, 1, parent, 8, PairKind::kApproximate, &ok);
  checker.Check(parent, 1, parent, 7, PairKind::kExact, &ok);
  Expect(ok.violations == 0, "valid pairs pass: " + ok.first_violation);
  Expect(ok.emitted == 3 && ok.true_pairs == 2,
         "ground truth scores 2 of 3 pairs");

  PairTally bad_exact;
  checker.Check(variant, 0, parent, 7, PairKind::kExact, &bad_exact);
  Expect(bad_exact.violations == 1, "an exact pair with unequal keys is caught");

  PairTally bad_approx;
  checker.Check("COMPLETELY DIFFERENT PLACE NAME HERE", 0, parent, 7,
                PairKind::kApproximate, &bad_approx);
  Expect(bad_approx.violations == 1, "an approximate pair below θ_sim is caught");
  PairTally bad_unknown;
  checker.Check("COMPLETELY DIFFERENT PLACE NAME HERE", 0, parent, 7,
                PairKind::kUnknown, &bad_unknown);
  Expect(bad_unknown.violations == 1, "a collected pair below θ_sim is caught");

  PairTally out_of_range;
  checker.Check(parent, 5, parent, 7, PairKind::kExact, &out_of_range);
  Expect(out_of_range.violations == 1, "a child id outside the input is caught");
}

void EngineOutputAndCorruption() {
  aqp::datagen::TestCaseOptions options;
  options.atlas.size = 300;
  options.accidents.size = 600;
  options.pattern = aqp::datagen::PerturbationPattern::kUniform;
  options.seed = 5;
  auto tc = aqp::datagen::GenerateTestCase(options);
  Expect(tc.ok(), "test case generates");
  if (!tc.ok()) return;
  const std::vector<uint32_t> truth(tc->child_true_parent.begin(),
                                    tc->child_true_parent.end());
  aqp::exec::parallel::ParallelJoinOptions join_options;
  join_options.base =
      aqp::metrics::MakeJoinOptions(*tc, aqp::metrics::ExperimentOptions{});
  join_options.num_shards = 2;
  aqp::exec::RelationScan child(&tc->child);
  aqp::exec::RelationScan parent(&tc->parent);
  aqp::exec::parallel::ParallelAdaptiveJoin join(&child, &parent, join_options);
  Expect(join.Open().ok(), "join opens");

  aqp::storage::ColumnBatch batch(&join.output_schema(), 1 << 16);
  std::vector<aqp::join::MatchKind> kinds;
  std::vector<aqp::exec::parallel::ParallelMatchRef> refs;
  while (join.NextMatchRefs(1024, &refs).ok() && !refs.empty()) {
    for (const auto& ref : refs) {
      join.MaterializeRefInto(ref, &batch);
      kinds.push_back(ref.kind);
    }
  }
  Expect(join.Close().ok(), "join closes");
  Expect(batch.size() > 0, "the join emits pairs");

  CheckLayout layout;
  layout.left_key = aqp::datagen::kAccidentsLocationColumn;
  layout.left_id = 0;
  const size_t offset = tc->child.schema().num_fields();
  layout.right_key = offset + aqp::datagen::kAtlasLocationColumn;
  layout.right_id = offset + 1;
  layout.spec = join_options.base.join.spec;
  layout.true_parent = &truth;
  const PairChecker checker(layout);

  PairTally clean;
  checker.CheckBatch(batch, kinds, &clean);
  Expect(clean.violations == 0, "engine output passes: " + clean.first_violation);
  Expect(clean.true_pairs > 0, "engine output holds true pairs");

  // Corrupt one exact pair: its parent key loses its last character.
  size_t victim = batch.size();
  for (size_t row = 0; row < batch.size(); ++row) {
    if (kinds[row] == aqp::join::MatchKind::kExact) {
      victim = row;
      break;
    }
  }
  Expect(victim < batch.size(), "the output holds an exact pair");
  if (victim == batch.size()) return;
  aqp::storage::ColumnBatch corrupted(&join.output_schema(), batch.size());
  for (size_t row = 0; row < batch.size(); ++row) {
    if (row != victim) {
      corrupted.AppendRowFrom(batch, row);
      continue;
    }
    std::string key(batch.StringAt(layout.right_key, row));
    key.pop_back();
    for (size_t col = 0; col < batch.num_columns(); ++col) {
      switch (batch.column_type(col)) {
        case aqp::storage::ValueType::kString:
          corrupted.AppendString(col, col == layout.right_key
                                          ? std::string_view(key)
                                          : batch.StringAt(col, row));
          break;
        case aqp::storage::ValueType::kInt64:
          corrupted.AppendInt64(col, batch.Int64At(col, row));
          break;
        default:
          corrupted.AppendDouble(col, batch.DoubleAt(col, row));
      }
    }
    corrupted.CommitRow();
  }
  PairTally caught;
  checker.CheckBatch(corrupted, kinds, &caught);
  Expect(caught.violations == 1, "a corrupted exact pair is caught");
}

}  // namespace

int main() {
  HandWrittenPairs();
  EngineOutputAndCorruption();
  if (failures == 0) std::cout << "linkbench_check_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
