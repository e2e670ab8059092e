// Streaming record linkage (§1's customer-merger scenario): two live
// customer feeds are linked while they stream, with no chance to
// pre-process either table. The adaptive operator reacts mid-stream
// when one feed enters a dirty region (e.g. a batch imported from a
// legacy system), and reverts to cheap exact matching once it passes.
//
//   $ ./streaming_linkage --customers=4000 --dirty-start=0.4 --dirty-end=0.6

#include <iostream>

#include "common/flags.h"
#include "common/string_util.h"
#include "datagen/names.h"
#include "datagen/variant.h"
#include "exec/parallel/parallel_join.h"
#include "exec/stream.h"

using namespace aqp;  // NOLINT — example brevity

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt64("customers", 4000, "customers per feed");
  flags.AddDouble("dirty-start", 0.4,
                  "start of the dirty region in feed B (fraction)");
  flags.AddDouble("dirty-end", 0.6,
                  "end of the dirty region in feed B (fraction)");
  flags.AddDouble("dirty-rate", 0.5,
                  "variant probability inside the dirty region");
  flags.AddInt64("seed", 7, "generator seed");
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n" << flags.Help();
    return 1;
  }
  const auto n = static_cast<size_t>(flags.GetInt64("customers"));
  const auto dirty_begin =
      static_cast<size_t>(flags.GetDouble("dirty-start") * n);
  const auto dirty_end = static_cast<size_t>(flags.GetDouble("dirty-end") * n);

  // Shared customer universe: both organisations know the same people.
  Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  datagen::LocationNameGenerator names(36);
  std::vector<std::string> universe;
  universe.reserve(n);
  for (size_t i = 0; i < n; ++i) universe.push_back(names.Generate(&rng));

  const storage::Schema feed_schema(
      {{"customer", storage::ValueType::kString},
       {"seq", storage::ValueType::kInt64}});

  // Feed A streams the universe in its own order; feed B streams an
  // independent permutation (two organisations never export in the
  // same order) and corrupts names inside its dirty region — a badly
  // migrated batch somewhere in the middle of the export.
  size_t a_pos = 0;
  exec::GeneratorSource feed_a(
      feed_schema, [&]() -> std::optional<storage::Tuple> {
        if (a_pos >= universe.size()) return std::nullopt;
        const size_t i = a_pos++;
        return storage::Tuple{storage::Value(universe[i]),
                              storage::Value(static_cast<int64_t>(i))};
      });
  std::vector<size_t> b_order(n);
  for (size_t i = 0; i < n; ++i) b_order[i] = i;
  rng.Shuffle(&b_order);
  size_t b_pos = 0;
  Rng corrupt_rng = rng.Fork();
  datagen::VariantOptions variant_options;
  const double dirty_rate = flags.GetDouble("dirty-rate");
  exec::GeneratorSource feed_b(
      feed_schema, [&]() -> std::optional<storage::Tuple> {
        if (b_pos >= universe.size()) return std::nullopt;
        const size_t i = b_pos++;
        const size_t customer = b_order[i];
        std::string name = universe[customer];
        if (i >= dirty_begin && i < dirty_end &&
            corrupt_rng.Bernoulli(dirty_rate)) {
          name = datagen::MakeVariant(name, variant_options, &corrupt_rng);
        }
        return storage::Tuple{storage::Value(std::move(name)),
                              storage::Value(static_cast<int64_t>(customer))};
      });

  exec::parallel::ParallelJoinOptions options;
  options.base.join.spec.left_column = 0;
  options.base.join.spec.right_column = 0;
  options.base.join.spec.sim_threshold = 0.85;
  // Feed A is clean and complete: treat it as the parent.
  options.base.adaptive.parent_side = exec::Side::kLeft;
  options.base.adaptive.parent_table_size = n;
  options.base.adaptive.delta_adapt = 50;
  options.base.adaptive.window = 50;
  options.num_shards = 1;

  exec::parallel::ParallelAdaptiveJoin join(&feed_a, &feed_b, options);
  if (auto s = join.Open(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  // Pull the stream, reporting progress every 10%.
  size_t linked = 0;
  const size_t report_every = std::max<size_t>(1, 2 * n / 10);
  uint64_t next_report = report_every;
  std::cout << "streaming " << n << " + " << n << " customer records; "
            << "dirty region of feed B: [" << dirty_begin << ", "
            << dirty_end << ")\n\n";
  while (true) {
    auto next = join.Next();
    if (!next.ok()) {
      std::cerr << next.status() << "\n";
      return 1;
    }
    if (!next->has_value()) break;
    ++linked;
    if (join.steps() >= next_report) {
      next_report += report_every;
      std::cout << "  step " << join.steps() << ": linked "
                << FormatCount(linked) << " pairs, state "
                << adaptive::ProcessorStateName(join.state()) << "\n";
    }
  }
  if (auto s = join.Close(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  std::cout << "\nlinked " << FormatCount(linked) << " of "
            << FormatCount(n) << " customers ("
            << FormatDouble(100.0 * static_cast<double>(linked) /
                                static_cast<double>(n),
                            1)
            << "%)\n";
  std::cout << "operator switches: " << join.trace().transition_count()
            << "\n\nadaptation timeline (last 20 assessments):\n"
            << join.trace().ToString(20);
  return 0;
}
