// Named reference configurations of the parity suites, and digests of
// their runs.
//
// The join engine's equivalence contract — identical output row
// sequences and identical adaptation traces for every shard count,
// batch size, and drive mode — used to be checked against a second,
// single-threaded join operator. That operator is gone; what it
// produced is kept as digests in testdata/reference_digests.inc,
// recorded from it on exactly the configurations defined here. A
// digest carries the row count, an FNV-1a hash of the row sequence, a
// hash of the AssessmentRecord sequence, and the step, pair, and
// transition counts, so a digest match is as strong as the row-by-row
// and record-by-record comparisons it replaces (up to a 64-bit hash
// collision).
//
// The recorded file is an oracle and is never regenerated from the
// engine under test: a digest mismatch means the engine's output
// changed.

#ifndef AQP_TESTS_INTEGRATION_REFERENCE_RUNS_H_
#define AQP_TESTS_INTEGRATION_REFERENCE_RUNS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "adaptive/trace.h"
#include "datagen/generator.h"
#include "exec/operator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "metrics/experiment.h"
#include "storage/relation.h"
#include "testing/engine.h"
#include "text/gram_order.h"

namespace aqp {
namespace parity {

/// Streaming 64-bit FNV-1a over a canonical byte encoding.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    Bytes(bytes, 8);
  }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline void HashRow(const storage::Tuple& row, Fnv1a* h) {
  h->U64(row.size());
  for (const storage::Value& v : row.values()) {
    h->U64(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case storage::ValueType::kNull:
        break;
      case storage::ValueType::kInt64:
        h->U64(static_cast<uint64_t>(v.AsInt64()));
        break;
      case storage::ValueType::kDouble:
        h->F64(v.AsDouble());
        break;
      case storage::ValueType::kString:
        h->Str(v.AsString());
        break;
    }
  }
}

/// Order-sensitive hash of a row sequence.
inline uint64_t HashRows(const storage::Relation& rows) {
  Fnv1a h;
  for (const storage::Tuple& row : rows.rows()) HashRow(row, &h);
  return h.value();
}

/// Order-sensitive hash of every field AssessmentRecord's operator==
/// compares.
inline uint64_t HashTrace(const adaptive::AdaptationTrace& trace) {
  Fnv1a h;
  for (const adaptive::AssessmentRecord& r : trace.records()) {
    const adaptive::Assessment& a = r.assessment;
    h.U64(a.step);
    h.U64(a.model_assessed);
    h.F64(a.p_value);
    h.F64(a.expected_matches);
    h.U64(a.observed_matches);
    h.U64(a.sigma);
    for (size_t s = 0; s < 2; ++s) {
      h.U64(a.mu[s]);
      h.U64(a.mu_informative[s]);
      h.U64(a.window_approx[s]);
      h.U64(a.past_perturbed[s]);
      h.U64(a.pi[s]);
    }
    h.U64(a.conceded_deficit);
    h.U64(static_cast<uint64_t>(r.state_before));
    h.U64(static_cast<uint64_t>(r.state_after));
    h.U64(static_cast<uint64_t>(static_cast<int64_t>(r.phi)));
    h.U64(r.catchup_left);
    h.U64(r.catchup_right);
  }
  return h.value();
}

/// Digest of one complete join run.
struct RunDigest {
  std::string name;
  uint64_t rows = 0;
  uint64_t row_hash = 0;
  uint64_t trace_records = 0;
  uint64_t trace_hash = 0;
  uint64_t steps = 0;
  uint64_t pairs = 0;
  uint64_t transitions = 0;
};

inline bool SameRun(const RunDigest& a, const RunDigest& b) {
  return a.rows == b.rows && a.row_hash == b.row_hash &&
         a.trace_records == b.trace_records && a.trace_hash == b.trace_hash &&
         a.steps == b.steps && a.pairs == b.pairs &&
         a.transitions == b.transitions;
}

/// One line of the .inc table (also what gtest prints on a mismatch).
inline std::ostream& operator<<(std::ostream& os, const RunDigest& d) {
  os << "AQP_RUN_DIGEST(\"" << d.name << "\", " << d.rows << "u, 0x"
     << std::hex << d.row_hash << std::dec << "ULL, " << d.trace_records
     << "u, 0x" << std::hex << d.trace_hash << std::dec << "ULL, "
     << d.steps << "u, " << d.pairs << "u, " << d.transitions << "u)";
  return os;
}

inline RunDigest DigestOf(std::string name, const storage::Relation& rows,
                          const adaptive::AdaptationTrace& trace,
                          uint64_t steps, uint64_t pairs,
                          uint64_t transitions) {
  RunDigest d;
  d.name = std::move(name);
  d.rows = rows.size();
  d.row_hash = HashRows(rows);
  d.trace_records = trace.size();
  d.trace_hash = HashTrace(trace);
  d.steps = steps;
  d.pairs = pairs;
  d.transitions = transitions;
  return d;
}

/// Digest of one §4 experiment (RunExperiment): the adaptive run's
/// trace plus the result shape of all three runs.
struct ScenarioDigest {
  std::string name;
  uint64_t trace_records = 0;
  uint64_t trace_hash = 0;
  /// Hash over each run's steps and transitions per state, result
  /// pairs by kind, distinct matched children, and catch-up tuples
  /// (adaptive, all-exact, all-approximate in that order).
  uint64_t shape_hash = 0;
  uint64_t adaptive_steps = 0;
  uint64_t adaptive_pairs = 0;
  uint64_t adaptive_transitions = 0;
};

inline bool SameScenario(const ScenarioDigest& a, const ScenarioDigest& b) {
  return a.trace_records == b.trace_records && a.trace_hash == b.trace_hash &&
         a.shape_hash == b.shape_hash && a.adaptive_steps == b.adaptive_steps &&
         a.adaptive_pairs == b.adaptive_pairs &&
         a.adaptive_transitions == b.adaptive_transitions;
}

inline std::ostream& operator<<(std::ostream& os, const ScenarioDigest& d) {
  os << "AQP_SCENARIO_DIGEST(\"" << d.name << "\", " << d.trace_records
     << "u, 0x" << std::hex << d.trace_hash << "ULL, 0x" << d.shape_hash
     << std::dec << "ULL, " << d.adaptive_steps << "u, " << d.adaptive_pairs
     << "u, " << d.adaptive_transitions << "u)";
  return os;
}

inline ScenarioDigest DigestOf(std::string name,
                               const metrics::ExperimentResult& result) {
  ScenarioDigest d;
  d.name = std::move(name);
  d.trace_records = result.trace.size();
  d.trace_hash = HashTrace(result.trace);
  Fnv1a h;
  for (const metrics::RunStats* run :
       {&result.adaptive, &result.all_exact, &result.all_approx}) {
    for (size_t s = 0; s < adaptive::kNumProcessorStates; ++s) {
      h.U64(run->steps_per_state[s]);
      h.U64(run->transitions_into[s]);
    }
    h.U64(run->result_pairs);
    h.U64(run->exact_pairs);
    h.U64(run->approx_pairs);
    h.U64(run->distinct_children_matched);
    h.U64(run->catchup_tuples);
  }
  d.shape_hash = h.value();
  d.adaptive_steps = result.adaptive.total_steps;
  d.adaptive_pairs = result.adaptive.result_pairs;
  d.adaptive_transitions = result.adaptive.total_transitions;
  return d;
}

/// The recorded digests (testdata/reference_digests.inc).
inline const std::vector<RunDigest>& RecordedRuns() {
  static const std::vector<RunDigest> kRuns = {
#define AQP_RUN_DIGEST(name, rows, row_hash, records, trace_hash, steps, \
                       pairs, transitions)                               \
  RunDigest{name, rows, row_hash, records, trace_hash, steps, pairs,     \
            transitions},
#define AQP_SCENARIO_DIGEST(...)
#include "testdata/reference_digests.inc"
#undef AQP_RUN_DIGEST
#undef AQP_SCENARIO_DIGEST
  };
  return kRuns;
}

inline const std::vector<ScenarioDigest>& RecordedScenarios() {
  static const std::vector<ScenarioDigest> kScenarios = {
#define AQP_RUN_DIGEST(...)
#define AQP_SCENARIO_DIGEST(name, records, trace_hash, shape_hash, steps, \
                            pairs, transitions)                          \
  ScenarioDigest{name, records, trace_hash, shape_hash, steps, pairs,     \
                 transitions},
#include "testdata/reference_digests.inc"
#undef AQP_RUN_DIGEST
#undef AQP_SCENARIO_DIGEST
  };
  return kScenarios;
}

/// The recorded digest named `name`; fails the test if there is none.
inline RunDigest RecordedRun(const std::string& name) {
  for (const RunDigest& d : RecordedRuns()) {
    if (d.name == name) return d;
  }
  ADD_FAILURE() << "no recorded digest named " << name;
  return RunDigest{};
}

inline ScenarioDigest RecordedScenario(const std::string& name) {
  for (const ScenarioDigest& d : RecordedScenarios()) {
    if (d.name == name) return d;
  }
  ADD_FAILURE() << "no recorded scenario digest named " << name;
  return ScenarioDigest{};
}

/// \name Engine runs compared against the recorded digests.
/// @{

/// Everything a parity check compares about one engine run.
struct EngineRun {
  storage::Relation rows;
  adaptive::AdaptationTrace trace;
  uint64_t steps = 0;
  uint64_t pairs = 0;
  uint64_t transitions = 0;
  uint64_t monitor_steps = 0;
};

/// Reads the run observables off a finished join; `rows` is left to
/// the caller (each drive mode collects its own).
inline EngineRun Observe(const exec::parallel::ParallelAdaptiveJoin& join) {
  EngineRun run;
  run.trace = join.trace();
  run.steps = join.steps();
  run.pairs = join.pairs_emitted();
  run.transitions = join.cost().total_transitions();
  run.monitor_steps = join.monitor().steps();
  return run;
}

/// Runs `options` over `tc` and collects the rows with CollectAll.
inline EngineRun RunEngine(const datagen::TestCase& tc,
                           const exec::parallel::ParallelJoinOptions& options,
                           const exec::ExecOptions& drain = {}) {
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  exec::parallel::ParallelAdaptiveJoin join(&child, &parent, options);
  auto result = exec::CollectAll(&join, drain);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EngineRun run = Observe(join);
  if (result.ok()) run.rows = std::move(*result);
  return run;
}

/// `run` matches the digest recorded under `name`: same row count and
/// row-sequence hash, same trace, same step/pair/transition counts.
inline void ExpectRecorded(const std::string& name, const EngineRun& run) {
  const RunDigest actual = DigestOf(name, run.rows, run.trace, run.steps,
                                    run.pairs, run.transitions);
  const RunDigest recorded = RecordedRun(name);
  EXPECT_TRUE(SameRun(actual, recorded)) << "actual:   " << actual
                                         << "\nrecorded: " << recorded;
  EXPECT_EQ(run.monitor_steps, run.steps);
}

inline void ExpectSameRows(const storage::Relation& actual,
                           const storage::Relation& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual.row(i), expected.row(i)) << "row " << i;
  }
}

inline void ExpectSameTrace(const adaptive::AdaptationTrace& actual,
                            const adaptive::AdaptationTrace& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual.records()[i], expected.records()[i])
        << "assessment " << i;
  }
}

/// Row-by-row and record-by-record equality of two engine runs (the
/// cross-shard-count check, on top of the digest match).
inline void ExpectSameRun(const EngineRun& actual, const EngineRun& expected) {
  EXPECT_EQ(actual.steps, expected.steps);
  EXPECT_EQ(actual.pairs, expected.pairs);
  EXPECT_EQ(actual.transitions, expected.transitions);
  ExpectSameRows(actual.rows, expected.rows);
  ExpectSameTrace(actual.trace, expected.trace);
}

/// @}

/// \name The reference configurations.
/// @{

/// The paper scenario: few high-intensity regions, child perturbed.
inline datagen::TestCase PaperCase() {
  datagen::TestCaseOptions options;
  options.pattern = datagen::PerturbationPattern::kFewHighIntensityRegions;
  options.perturb_parent = false;
  options.variant_rate = 0.10;
  options.atlas.size = 400;
  options.accidents.size = 800;
  options.seed = 20090326;
  auto tc = datagen::GenerateTestCase(options);
  EXPECT_TRUE(tc.ok());
  return std::move(*tc);
}

/// Both inputs perturbed: drives ϕ1 (lap/rap) and maximizes cross-shard
/// approximate traffic.
inline datagen::TestCase BothPerturbedCase() {
  datagen::TestCaseOptions options;
  options.pattern = datagen::PerturbationPattern::kUniform;
  options.perturb_parent = true;
  options.variant_rate = 0.15;
  options.atlas.size = 300;
  options.accidents.size = 600;
  options.seed = 42;
  auto tc = datagen::GenerateTestCase(options);
  EXPECT_TRUE(tc.ok());
  return std::move(*tc);
}

/// θ_sim 0.85, δ_adapt = W = 50, child left, parent right.
inline adaptive::AdaptiveJoinOptions AdaptiveOptions(
    const datagen::TestCase& tc) {
  adaptive::AdaptiveJoinOptions options;
  options.join.spec.left_column = datagen::kAccidentsLocationColumn;
  options.join.spec.right_column = datagen::kAtlasLocationColumn;
  options.join.spec.sim_threshold = 0.85;
  options.adaptive.parent_side = exec::Side::kRight;
  options.adaptive.parent_table_size = tc.parent.size();
  options.adaptive.delta_adapt = 50;
  options.adaptive.window = 50;
  return options;
}

inline adaptive::AdaptiveJoinOptions PinnedOptions(
    const datagen::TestCase& tc, adaptive::ProcessorState state) {
  adaptive::AdaptiveJoinOptions options = AdaptiveOptions(tc);
  options.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  options.adaptive.initial_state = state;
  return options;
}

inline std::vector<adaptive::ScriptedTransition> PaperScript() {
  return {
      {120, adaptive::ProcessorState::kLapRex},
      {300, adaptive::ProcessorState::kLapRap},
      {700, adaptive::ProcessorState::kLexRex},
  };
}

inline adaptive::AdaptiveJoinOptions ScriptedOptions(
    const datagen::TestCase& tc) {
  adaptive::AdaptiveJoinOptions options = AdaptiveOptions(tc);
  options.adaptive.policy = adaptive::AdaptivePolicy::kScripted;
  options.adaptive.script = PaperScript();
  return options;
}

/// The script on default θ_sim/δ_adapt/W (batch-parity's variant).
inline adaptive::AdaptiveJoinOptions ScriptedDefaultOptions(
    const datagen::TestCase& tc) {
  adaptive::AdaptiveJoinOptions options;
  options.join.spec.left_column = datagen::kAccidentsLocationColumn;
  options.join.spec.right_column = datagen::kAtlasLocationColumn;
  options.adaptive.policy = adaptive::AdaptivePolicy::kScripted;
  options.adaptive.script = PaperScript();
  options.adaptive.parent_side = exec::Side::kRight;
  options.adaptive.parent_table_size = tc.parent.size();
  return options;
}

/// Every combination of the three exact filters, mask bit 0 = length,
/// 1 = prefix, 2 = positional.
inline std::vector<join::ApproxFilterOptions> AllFilterCombinations() {
  std::vector<join::ApproxFilterOptions> combos;
  for (int mask = 0; mask < 8; ++mask) {
    join::ApproxFilterOptions f;
    f.length = (mask & 1) != 0;
    f.prefix = (mask & 2) != 0;
    f.positional = (mask & 4) != 0;
    combos.push_back(f);
  }
  return combos;
}

inline join::ApproxFilterOptions FullFilterStack() {
  join::ApproxFilterOptions full;
  full.length = full.prefix = full.positional = true;
  return full;
}

/// The full filter stack under a corpus-sampled gram order.
inline adaptive::AdaptiveJoinOptions SampledOrderOptions(
    const datagen::TestCase& tc) {
  adaptive::AdaptiveJoinOptions options = AdaptiveOptions(tc);
  auto order = std::make_shared<text::GramOrder>();
  for (size_t i = 0; i < tc.parent.size(); ++i) {
    order->AddSample(
        tc.parent.row(i)[datagen::kAtlasLocationColumn].AsString(),
        options.join.spec.qgram);
  }
  for (size_t i = 0; i < tc.child.size(); ++i) {
    order->AddSample(
        tc.child.row(i)[datagen::kAccidentsLocationColumn].AsString(),
        options.join.spec.qgram);
  }
  EXPECT_GT(order->distinct(), 0u);
  options.join.spec.filter = FullFilterStack();
  options.join.spec.filter.gram_order = order;
  return options;
}

/// Adaptive, with the similarity column appended to every row.
inline adaptive::AdaptiveJoinOptions WithSimilarityOptions(
    const datagen::TestCase& tc) {
  adaptive::AdaptiveJoinOptions options = AdaptiveOptions(tc);
  options.join.emit_similarity = true;
  return options;
}

/// A named reference run: test case plus join configuration.
struct ReferenceConfig {
  std::string name;
  bool both_perturbed = false;
  adaptive::AdaptiveJoinOptions (*options)(const datagen::TestCase&) =
      nullptr;
  /// Filter stack applied on top of `options` (none by default).
  join::ApproxFilterOptions filter;
};

/// Every recorded run configuration, by digest name.
inline std::vector<ReferenceConfig> ReferenceConfigs() {
  std::vector<ReferenceConfig> configs = {
      {"paper/adaptive", false, AdaptiveOptions, {}},
      {"paper/pinned/lex_rex", false,
       [](const datagen::TestCase& tc) {
         return PinnedOptions(tc, adaptive::ProcessorState::kLexRex);
       },
       {}},
      {"paper/pinned/lap_rap", false,
       [](const datagen::TestCase& tc) {
         return PinnedOptions(tc, adaptive::ProcessorState::kLapRap);
       },
       {}},
      {"paper/pinned/lap_rex", false,
       [](const datagen::TestCase& tc) {
         return PinnedOptions(tc, adaptive::ProcessorState::kLapRex);
       },
       {}},
      {"paper/scripted", false, ScriptedOptions, {}},
      {"paper/scripted_default", false, ScriptedDefaultOptions, {}},
      {"paper/adaptive/with_similarity", false, WithSimilarityOptions, {}},
      {"both_perturbed/adaptive", true, AdaptiveOptions, {}},
      {"paper/adaptive/sampled_order", false, SampledOrderOptions, {}},
  };
  for (const join::ApproxFilterOptions& filter : AllFilterCombinations()) {
    configs.push_back({"paper/adaptive/filter=" + filter.Label(), false,
                       AdaptiveOptions, filter});
  }
  return configs;
}

/// Options of the named configuration over `tc`.
inline adaptive::AdaptiveJoinOptions ConfigOptions(
    const ReferenceConfig& config, const datagen::TestCase& tc) {
  adaptive::AdaptiveJoinOptions options = config.options(tc);
  if (config.filter.any()) options.join.spec.filter = config.filter;
  return options;
}

/// Digest name of the paper case pinned to `state`
/// ("paper/pinned/lex_rex", ...).
inline std::string PinnedName(adaptive::ProcessorState state) {
  std::string name = adaptive::ProcessorStateName(state);
  name[3] = '_';
  return "paper/pinned/" + name;
}

/// The §4 experiment of paper_scenario_test for one pattern.
inline metrics::ExperimentOptions ScenarioOptions(
    datagen::PerturbationPattern pattern, bool both) {
  metrics::ExperimentOptions options;
  options.testcase.pattern = pattern;
  options.testcase.perturb_parent = both;
  options.testcase.variant_rate = 0.10;  // the paper's fixed 10%
  options.testcase.atlas.size = 500;     // scaled-down 8082
  options.testcase.accidents.size = 1000;
  options.testcase.seed = 20090326;
  options.sim_threshold = 0.85;
  options.adaptive.delta_adapt = 50;
  options.adaptive.window = 50;
  options.adaptive.theta_out = 0.05;
  options.adaptive.theta_curpert = 2;
  options.adaptive.theta_pastpert = 5;
  return options;
}

inline std::string ScenarioName(datagen::PerturbationPattern pattern,
                                bool both) {
  return std::string("scenario/") + datagen::PerturbationPatternName(pattern) +
         (both ? "/both" : "/child");
}

/// @}

}  // namespace parity
}  // namespace aqp

#endif  // AQP_TESTS_INTEGRATION_REFERENCE_RUNS_H_
