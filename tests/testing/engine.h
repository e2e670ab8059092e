// Shorthands for building the join engine in tests.

#ifndef AQP_TESTS_TESTING_ENGINE_H_
#define AQP_TESTS_TESTING_ENGINE_H_

#include <cstddef>
#include <utility>

#include "adaptive/mar.h"
#include "adaptive/state.h"
#include "exec/parallel/parallel_join.h"
#include "join/hybrid_core.h"

namespace aqp {
namespace engine_test {

/// Engine options running `base` on `shards` shards (one by default).
inline exec::parallel::ParallelJoinOptions OnShards(
    adaptive::AdaptiveJoinOptions base, size_t shards = 1) {
  exec::parallel::ParallelJoinOptions options;
  options.base = std::move(base);
  options.num_shards = shards;
  return options;
}

/// Engine options pinned to `state`: kLexRex is SHJoin, kLapRap is
/// SSHJoin, the hybrids probe one side approximately.
inline exec::parallel::ParallelJoinOptions Pinned(
    join::SymmetricJoinOptions join, adaptive::ProcessorState state,
    size_t shards = 1) {
  adaptive::AdaptiveJoinOptions base;
  base.join = std::move(join);
  base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  base.adaptive.initial_state = state;
  return OnShards(std::move(base), shards);
}

/// The engine on one shard, any policy.
class OneShardJoin : public exec::parallel::ParallelAdaptiveJoin {
 public:
  OneShardJoin(exec::Operator* left, exec::Operator* right,
               adaptive::AdaptiveJoinOptions options)
      : ParallelAdaptiveJoin(left, right, OnShards(std::move(options))) {}
};

/// The engine pinned to lex/rex on one shard: SHJoin (§2.1).
class ExactJoin : public exec::parallel::ParallelAdaptiveJoin {
 public:
  ExactJoin(exec::Operator* left, exec::Operator* right,
            join::SymmetricJoinOptions options)
      : ParallelAdaptiveJoin(
            left, right,
            Pinned(std::move(options), adaptive::ProcessorState::kLexRex)) {}
};

/// The engine pinned to lap/rap on one shard: SSHJoin (§2.2).
class ApproxJoin : public exec::parallel::ParallelAdaptiveJoin {
 public:
  ApproxJoin(exec::Operator* left, exec::Operator* right,
             join::SymmetricJoinOptions options)
      : ParallelAdaptiveJoin(
            left, right,
            Pinned(std::move(options), adaptive::ProcessorState::kLapRap)) {}
};

}  // namespace engine_test
}  // namespace aqp

#endif  // AQP_TESTS_TESTING_ENGINE_H_
