// Tests for the futility-revert extension (§3.5's future-work note):
// when the shortfall is NOT caused by variants — e.g. child rows that
// simply have no parent at all — approximate matching cannot recover
// anything; the extension detects the stalemate, writes the deficit
// off, and returns to cheap exact matching. The paper's baseline
// algorithm stays approximate forever in this situation.

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/atlas.h"
#include "datagen/variant.h"
#include "exec/scan.h"
#include "testing/engine.h"

namespace aqp {
namespace adaptive {
namespace {

using engine_test::OneShardJoin;

/// A scenario the paper's σ misreads: an early batch of "child" rows
/// references locations that exist in no atlas (entirely different
/// strings, not one-character variants), so neither exact nor
/// approximate matching can ever link them. The rest of the stream is
/// clean.
struct OrphanScenario {
  storage::Relation parent;
  storage::Relation child;
};

OrphanScenario MakeOrphanScenario(size_t parent_size, size_t child_size,
                                  double orphan_rate) {
  OrphanScenario s;
  datagen::AtlasOptions atlas_options;
  atlas_options.size = parent_size;
  auto atlas = datagen::GenerateAtlas(atlas_options);
  EXPECT_TRUE(atlas.ok());
  s.parent = std::move(atlas).ValueOrDie();

  s.child = storage::Relation(storage::Schema(
      {{"id", storage::ValueType::kInt64},
       {"location", storage::ValueType::kString}}));
  Rng rng(99);
  for (size_t i = 0; i < child_size; ++i) {
    std::string location;
    // Orphans confined to the first 40% of the stream (one bad batch).
    if (i < child_size * 2 / 5 && rng.Bernoulli(orphan_rate)) {
      // A string wildly unlike any atlas entry.
      location = "ORPHAN " + rng.RandomString(30, "0123456789");
    } else {
      location = s.parent.row(rng.Index(s.parent.size()))
                     .at(datagen::kAtlasLocationColumn)
                     .AsString();
    }
    EXPECT_TRUE(s.child
                    .Append(storage::Tuple{
                        storage::Value(static_cast<int64_t>(i)),
                        storage::Value(std::move(location))})
                    .ok());
  }
  return s;
}

AdaptiveJoinOptions Options(const OrphanScenario& s, bool futility) {
  AdaptiveJoinOptions o;
  o.join.spec.left_column = 1;
  o.join.spec.right_column = datagen::kAtlasLocationColumn;
  o.adaptive.parent_side = exec::Side::kRight;
  o.adaptive.parent_table_size = s.parent.size();
  o.adaptive.delta_adapt = 50;
  o.adaptive.window = 50;
  o.adaptive.enable_futility_revert = futility;
  o.adaptive.futility_patience = 3;
  return o;
}

TEST(FutilityRevertTest, BaselineStaysApproximateForever) {
  const OrphanScenario s = MakeOrphanScenario(400, 1200, 0.3);
  exec::RelationScan child(&s.child);
  exec::RelationScan parent(&s.parent);
  OneShardJoin join(&child, &parent, Options(s, /*futility=*/false));
  ASSERT_TRUE(exec::CountAll(&join).ok());
  // The paper's machine switches to lap/rap on the shortfall and can
  // never leave: σ stays significant, the windows stay quiet.
  EXPECT_EQ(join.state(), ProcessorState::kLapRap);
  // A large share of steps wasted in approximate states.
  EXPECT_GT(join.cost().steps(ProcessorState::kLapRap),
            join.cost().total_steps() / 2);
}

TEST(FutilityRevertTest, ExtensionRevertsAndStaysExact) {
  const OrphanScenario s = MakeOrphanScenario(400, 1200, 0.3);
  exec::RelationScan child(&s.child);
  exec::RelationScan parent(&s.parent);
  OneShardJoin join(&child, &parent, Options(s, /*futility=*/true));
  ASSERT_TRUE(exec::CountAll(&join).ok());
  EXPECT_EQ(join.state(), ProcessorState::kLexRex);
  // The trace shows at least one futility revert...
  bool saw_futility = false;
  for (const AssessmentRecord& r : join.trace().records()) {
    if (r.phi == Decision::kFutilityRevert) {
      saw_futility = true;
      EXPECT_EQ(r.state_after, ProcessorState::kLexRex);
    }
  }
  EXPECT_TRUE(saw_futility);
  // ...and most of the run is spent in cheap exact matching.
  EXPECT_GT(join.cost().steps(ProcessorState::kLexRex),
            join.cost().total_steps() / 2);
}

TEST(FutilityRevertTest, SameResultCheaperExecution) {
  const OrphanScenario s = MakeOrphanScenario(400, 1200, 0.3);
  size_t results[2];
  double costs[2];
  for (int variant = 0; variant < 2; ++variant) {
    exec::RelationScan child(&s.child);
    exec::RelationScan parent(&s.parent);
    OneShardJoin join(&child, &parent, Options(s, variant == 1));
    auto count = exec::CountAll(&join);
    ASSERT_TRUE(count.ok());
    results[variant] = *count;
    costs[variant] = join.cost().TotalCost();
  }
  // Approximate matching finds nothing extra here, so both variants
  // produce the same result...
  EXPECT_EQ(results[0], results[1]);
  // ...but the futility variant is much cheaper.
  EXPECT_LT(costs[1], costs[0] * 0.7);
}

TEST(FutilityRevertTest, StillReactsToGenuineVariantsLater) {
  // Futility must not blind the controller: orphans early, genuine
  // variants later. After conceding the orphan deficit, a later burst
  // of recoverable variants must still trigger a switch and recover.
  datagen::AtlasOptions atlas_options;
  atlas_options.size = 400;
  auto atlas = datagen::GenerateAtlas(atlas_options);
  ASSERT_TRUE(atlas.ok());
  storage::Relation child(storage::Schema(
      {{"id", storage::ValueType::kInt64},
       {"location", storage::ValueType::kString}}));
  Rng rng(7);
  datagen::VariantOptions variant_options;
  const size_t n = 1600;
  size_t variants_injected = 0;
  for (size_t i = 0; i < n; ++i) {
    std::string location = atlas->row(rng.Index(atlas->size()))
                               .at(datagen::kAtlasLocationColumn)
                               .AsString();
    if (i < n / 4 && rng.Bernoulli(0.3)) {
      location = "ORPHAN " + rng.RandomString(30, "0123456789");
    } else if (i >= n / 2 && i < 3 * n / 4 && rng.Bernoulli(0.4)) {
      location = datagen::MakeVariant(location, variant_options, &rng);
      ++variants_injected;
    }
    ASSERT_TRUE(child
                    .Append(storage::Tuple{
                        storage::Value(static_cast<int64_t>(i)),
                        storage::Value(std::move(location))})
                    .ok());
  }
  ASSERT_GT(variants_injected, 50u);

  OrphanScenario s;
  s.parent = std::move(*atlas);
  s.child = std::move(child);
  exec::RelationScan child_scan(&s.child);
  exec::RelationScan parent_scan(&s.parent);
  OneShardJoin join(&child_scan, &parent_scan, Options(s, true));
  ASSERT_TRUE(exec::CountAll(&join).ok());

  // The run both conceded (futility) and later re-engaged (approx
  // pairs were found in the variant burst).
  bool saw_futility = false;
  for (const AssessmentRecord& r : join.trace().records()) {
    saw_futility |= r.phi == Decision::kFutilityRevert;
  }
  EXPECT_TRUE(saw_futility);
  EXPECT_GT(join.approximate_pairs(), variants_injected / 4);
}

}  // namespace
}  // namespace adaptive
}  // namespace aqp
