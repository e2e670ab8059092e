// Quickstart: join two small tables whose keys almost-but-not-quite
// match, letting the adaptive operator decide when approximate
// matching is worth paying for.
//
//   $ ./quickstart

#include <iostream>

#include "exec/operator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"

using namespace aqp;  // NOLINT — example brevity

int main() {
  // A reference table of products...
  storage::Relation products(storage::Schema(
      {{"name", storage::ValueType::kString},
       {"price", storage::ValueType::kDouble}}));
  for (const auto& [name, price] :
       std::vector<std::pair<std::string, double>>{
           {"ESPRESSO MACHINE DELUXE EDITION", 249.0},
           {"STAINLESS STEEL MOKA POT CLASSIC", 39.0},
           {"BURR COFFEE GRINDER PROFESSIONAL", 129.0},
           {"GOOSENECK POUR OVER KETTLE MATTE", 59.0}}) {
    if (auto s = products.Append(storage::Tuple{storage::Value(name),
                                                storage::Value(price)});
        !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }

  // ...and a scraped order feed with the occasional typo.
  storage::Relation orders(storage::Schema(
      {{"order_id", storage::ValueType::kInt64},
       {"product", storage::ValueType::kString}}));
  for (const auto& [id, name] :
       std::vector<std::pair<int64_t, std::string>>{
           {1, "ESPRESSO MACHINE DELUXE EDITION"},
           {2, "STAINLESS STEEL MOKA POT CLASSIC"},
           {3, "BURR COFFEE GRINDER PROFESSIONAl"},  // typo
           {4, "GOOSENECK POUR OVER KETTLE MATTE"},
           {5, "ESPRESSO MACHINE DELUXe EDITION"}}) {  // typo
    if (auto s = orders.Append(
            storage::Tuple{storage::Value(id), storage::Value(name)});
        !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }

  exec::RelationScan order_scan(&orders);
  exec::RelationScan product_scan(&products);

  exec::parallel::ParallelJoinOptions options;
  options.base.join.spec.left_column = 1;   // orders.product
  options.base.join.spec.right_column = 0;  // products.name
  options.base.join.spec.sim_threshold = 0.8;
  options.base.join.emit_similarity = true;
  options.base.adaptive.parent_side = exec::Side::kRight;
  options.base.adaptive.parent_table_size = products.size();
  options.base.adaptive.delta_adapt = 2;  // tiny data: assess often
  options.base.adaptive.window = 4;
  options.num_shards = 1;

  exec::parallel::ParallelAdaptiveJoin join(&order_scan, &product_scan,
                                            options);
  auto result = exec::CollectAll(&join);
  if (!result.ok()) {
    std::cerr << "join failed: " << result.status() << "\n";
    return 1;
  }

  std::cout << "Join result (" << result->size() << " of " << orders.size()
            << " orders matched):\n"
            << result->ToString(10) << "\n";
  std::cout << "Final state: "
            << adaptive::ProcessorStateName(join.state()) << ", "
            << join.trace().transition_count() << " operator switch(es)\n\n";
  std::cout << "Adaptation timeline:\n" << join.trace().ToString() << "\n";
  return 0;
}
