#ifndef AQP_ADAPTIVE_MAR_H_
#define AQP_ADAPTIVE_MAR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "adaptive/cost_model.h"
#include "adaptive/state.h"
#include "common/status.h"
#include "join/hybrid_core.h"
#include "join/join_types.h"
#include "stats/completeness_model.h"
#include "stats/sliding_window.h"

namespace aqp {
namespace adaptive {

/// \brief How the controller drives the processor.
enum class AdaptivePolicy {
  /// Full MAR loop (the paper's algorithm).
  kAdaptive,
  /// Stay in `initial_state` forever (baselines: pinned lex/rex is the
  /// all-exact run, pinned lap/rap the all-approximate run).
  kPinned,
  /// Replay a fixed transition script (tests, what-if analyses).
  kScripted,
};

/// "adaptive" / "pinned" / "scripted".
const char* AdaptivePolicyName(AdaptivePolicy policy);

/// \brief One entry of a scripted policy: enter `state` at the first
/// quiescent point with step count >= `at_step`.
struct ScriptedTransition {
  uint64_t at_step;
  ProcessorState state;
};

/// \brief All MAR thresholds and parameters (the paper's Table 3),
/// plus the control-policy selection.
struct AdaptiveOptions {
  /// δ_adapt: steps between successive activations of the control loop.
  uint64_t delta_adapt = 100;
  /// W: sliding-window size, in steps, for the µ predicates.
  size_t window = 100;
  /// θ_out: outlier threshold on the binomial lower-tail p-value (σ).
  /// 0 disables outlier detection entirely (the processor can then
  /// only leave lex/rex by script).
  double theta_out = 0.05;
  /// θ_curpert: µ_i holds ("input i currently unperturbed") iff the
  /// approximate matches attributed to input i within the window do
  /// not exceed this. The paper reports the tuned value 2 as a count
  /// (see DESIGN.md §4.2); set `curpert_is_ratio` to interpret the
  /// predicate as A_{t,W}/W <= theta_curpert_ratio instead.
  uint32_t theta_curpert = 2;
  bool curpert_is_ratio = false;
  double theta_curpert_ratio = 0.02;
  /// θ_pastpert: π_i holds ("input i historically mostly unperturbed")
  /// iff at most this many past assessments found input i perturbed.
  uint32_t theta_pastpert = 5;

  /// Which input is the parent (reference) table of the expected
  /// parent-child relationship (§3.2). The other is the child.
  exec::Side parent_side = exec::Side::kRight;
  /// |R|: parent-table cardinality. 0 = unknown; the binomial model
  /// then assesses only after the parent input is exhausted.
  uint64_t parent_table_size = 0;
  /// Custom completeness model; null = ParentChildBinomialModel.
  std::shared_ptr<stats::CompletenessModel> model;
  /// Use raw emitted-pair count as the observed result size O_t
  /// instead of distinct matched child tuples (see DESIGN.md).
  bool use_pairs_statistic = false;

  /// Extension (off by default — not part of the paper's evaluation):
  /// §3.5 notes that "reverting to exact join could also be motivated
  /// by realizing that the approximate join does not help in
  /// increasing the observed result size (e.g., because the estimate
  /// was simply wrong), though we do not consider this case". With
  /// this switch enabled, after `futility_patience` consecutive
  /// assessments in which σ still holds but the approximate operators
  /// produced no window evidence (µ holds on both informative
  /// windows), the responder reverts to lex/rex anyway — the shortfall
  /// is evidently not recoverable by approximate matching.
  bool enable_futility_revert = false;
  uint32_t futility_patience = 3;

  /// Control policy.
  AdaptivePolicy policy = AdaptivePolicy::kAdaptive;
  /// Start state (the paper starts optimistically in lex/rex).
  ProcessorState initial_state = ProcessorState::kLexRex;
  /// Transition script for kScripted, sorted by at_step.
  std::vector<ScriptedTransition> script;

  Status Validate() const;
};

/// \brief The monitor: maintains the observables of §3.5.
///
/// Per step it records (a) approximate matches attributed to each
/// input via the matched-exactly flags (§3.3) into per-input sliding
/// windows, and (b) whether any approximate probing was active, which
/// decides whether the µ predicates are informative.
class Monitor {
 public:
  explicit Monitor(const AdaptiveOptions& options);

  /// Ingests one completed step (tuple-at-a-time callers and tests);
  /// attribution is computed against the core's current flags.
  void OnStep(exec::Side read_side,
              const std::vector<join::JoinMatch>& matches,
              const join::HybridJoinCore& core, ProcessorState state);

  /// Ingests a whole epoch whose per-step observables the join's merge
  /// replayed in global step order. Equivalent to one OnStep per entry
  /// — the windows advance step-wise, so µ semantics do not change
  /// with epoch length.
  void OnBatch(const std::vector<join::StepObservables>& steps,
               ProcessorState state);

  /// Steps observed so far (t).
  uint64_t steps() const { return steps_; }

  /// A_{t,W}: approximate matches attributed to `side` in the window.
  uint64_t WindowApproxMatches(exec::Side side) const {
    return approx_window_[static_cast<size_t>(side)].Sum();
  }

  /// Steps in the window during which an approximate operator ran.
  uint64_t WindowApproxActiveSteps() const { return approx_active_.Sum(); }

  /// Join progress snapshot for the completeness model.
  stats::JoinProgress Progress(const join::HybridJoinCore& core,
                               bool parent_exhausted) const;

  exec::Side parent_side() const { return options_.parent_side; }
  exec::Side child_side() const {
    return exec::OtherSide(options_.parent_side);
  }

 private:
  /// Advances all windows by one step with the given attribution.
  void AdvanceOneStep(const uint32_t attributed[2], bool approx_active);

  AdaptiveOptions options_;
  stats::SlidingWindowCounter approx_window_[2];
  stats::SlidingWindowCounter approx_active_;
  uint64_t steps_ = 0;
};

/// \brief Everything the assessor concluded at one activation.
struct Assessment {
  uint64_t step = 0;
  /// Whether the completeness model could assess at all.
  bool model_assessed = false;
  /// Lower-tail p-value P(O <= observed) (1.0 when not assessed).
  double p_value = 1.0;
  double expected_matches = 0.0;
  uint64_t observed_matches = 0;
  /// σ: statistically significant shortfall.
  bool sigma = false;
  /// µ_i (indexed by Side): input currently unperturbed.
  bool mu[2] = {true, true};
  /// Whether approximate evidence existed to evaluate µ.
  bool mu_informative[2] = {false, false};
  /// A_{t,W} per input.
  uint64_t window_approx[2] = {0, 0};
  /// Past assessments that found input i perturbed.
  uint64_t past_perturbed[2] = {0, 0};
  /// π_i: input historically mostly unperturbed.
  bool pi[2] = {true, true};
  /// Deficit written off by past futility reverts (0 when the
  /// extension is off); σ tests the shortfall beyond this baseline.
  uint64_t conceded_deficit = 0;

  /// Field-wise equality (batch-size parity tests compare traces).
  friend bool operator==(const Assessment& a, const Assessment& b) {
    return a.step == b.step && a.model_assessed == b.model_assessed &&
           a.p_value == b.p_value &&
           a.expected_matches == b.expected_matches &&
           a.observed_matches == b.observed_matches && a.sigma == b.sigma &&
           a.mu[0] == b.mu[0] && a.mu[1] == b.mu[1] &&
           a.mu_informative[0] == b.mu_informative[0] &&
           a.mu_informative[1] == b.mu_informative[1] &&
           a.window_approx[0] == b.window_approx[0] &&
           a.window_approx[1] == b.window_approx[1] &&
           a.past_perturbed[0] == b.past_perturbed[0] &&
           a.past_perturbed[1] == b.past_perturbed[1] &&
           a.pi[0] == b.pi[0] && a.pi[1] == b.pi[1] &&
           a.conceded_deficit == b.conceded_deficit;
  }
  friend bool operator!=(const Assessment& a, const Assessment& b) {
    return !(a == b);
  }
};

/// \brief The assessor: evaluates the σ/µ/π predicates of Table 2.
class Assessor {
 public:
  /// Builds the completeness model from the options if none is given.
  explicit Assessor(const AdaptiveOptions& options);

  /// Computes predicates at the current progress point and updates the
  /// past-perturbation history.
  Assessment Assess(const Monitor& monitor,
                    const join::HybridJoinCore& core, bool parent_exhausted);

  /// Same, with the join progress supplied directly instead of read
  /// off a single engine core — the entry point of the parallel
  /// coordinator, which aggregates progress across shard cores before
  /// assessing once globally.
  Assessment Assess(const Monitor& monitor,
                    const stats::JoinProgress& progress);

  /// Writes off `deficit` missing matches as unrecoverable (futility
  /// extension): subsequent σ tests treat them as matched, so only a
  /// shortfall growing *beyond* the concession is significant again.
  void ConcedeDeficit(uint64_t deficit) { conceded_deficit_ = deficit; }
  uint64_t conceded_deficit() const { return conceded_deficit_; }

  const stats::CompletenessModel& model() const { return *model_; }

 private:
  AdaptiveOptions options_;
  std::shared_ptr<stats::CompletenessModel> model_;
  uint64_t past_perturbed_[2] = {0, 0};
  uint64_t conceded_deficit_ = 0;
};

/// \brief The responder's verdict at one activation.
struct Decision {
  /// State to run in next (== current means stay).
  ProcessorState next;
  /// Which transition predicate fired: 0..3 for ϕ0..ϕ3,
  /// kFutilityRevert for the futility extension, -1 for none.
  int phi = -1;

  /// Marker for futility-revert transitions in traces.
  static constexpr int kFutilityRevert = 4;
  /// Marker for transitions forced by a deadline governor (the
  /// soft-deadline clamp into lex/rex), not by any ϕ predicate.
  static constexpr int kDeadlineClamp = 5;
};

/// \brief The responder: maps (state, assessment) to the transitions of
/// Fig. 4 through the predicates ϕ0..ϕ3 (§3.5).
class Responder {
 public:
  explicit Responder(const AdaptiveOptions& options);

  /// Stateless ϕ evaluation plus, when enabled, the stateful futility
  /// counter (reset by any transition or by fresh window evidence).
  Decision Decide(ProcessorState current, const Assessment& a);

  /// Consecutive stuck assessments seen so far (for tests).
  uint32_t futility_streak() const { return futility_streak_; }

 private:
  AdaptiveOptions options_;
  uint32_t futility_streak_ = 0;
};

/// \brief Configuration of the adaptive join: the join itself, the MAR
/// loop that drives it, and the weights pricing its steps. A pinned
/// policy with initial_state kLexRex runs the all-exact SHJoin
/// baseline, with kLapRap the all-approximate SSHJoin baseline.
struct AdaptiveJoinOptions {
  /// Join spec, interleaving, output shape, approximate-probe knobs.
  join::SymmetricJoinOptions join;
  /// MAR thresholds, completeness model, control policy.
  AdaptiveOptions adaptive;
  /// Weights used by the run's cost accountant.
  StateWeights weights = StateWeights::Paper();
};

}  // namespace adaptive
}  // namespace aqp

#endif  // AQP_ADAPTIVE_MAR_H_
