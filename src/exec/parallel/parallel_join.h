#ifndef AQP_EXEC_PARALLEL_PARALLEL_JOIN_H_
#define AQP_EXEC_PARALLEL_PARALLEL_JOIN_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/cost_model.h"
#include "adaptive/mar.h"
#include "adaptive/state.h"
#include "adaptive/trace.h"
#include "common/memory_budget.h"
#include "exec/operator.h"
#include "exec/parallel/exchange.h"
#include "exec/parallel/shard.h"
#include "exec/parallel/thread_pool.h"

namespace aqp {
namespace exec {
namespace parallel {

/// \brief What an epoch governor tells the coordinator to do at a
/// control point (see ParallelJoinOptions::governor).
enum class EpochDirective {
  /// Run the epoch normally.
  kProceed,
  /// Soft-deadline response: force the processor into the cheapest
  /// exact state (lex/rex) and pin it there — the MAR loop keeps
  /// assessing, but may no longer choose approximate states. Sticky.
  kForceExactOnly,
  /// Hard-deadline response: stop consuming input. Output already
  /// produced stays deliverable; the stream then ends, reporting the
  /// partial result (the paper's time knob — completeness is whatever
  /// Completeness() says it is at that point).
  kFinalize,
  /// Abandon the query: the coordinator returns Status::Cancelled
  /// without routing another step and stays in that sticky error
  /// state. Buffered output is not delivered.
  kCancel,
};

/// \brief Progress snapshot handed to the epoch governor.
struct EpochView {
  uint64_t steps = 0;
  uint64_t pairs_emitted = 0;
  adaptive::ProcessorState state = adaptive::ProcessorState::kLexRex;
  /// Engine memory footprint as refreshed at this control point; 0
  /// when the join carries no budget node (accounting off).
  uint64_t memory_bytes = 0;
};

/// \brief Result-completeness snapshot (the paper's time-completeness
/// trade-off, measured): how much of the statistically expected result
/// the run has actually produced.
struct CompletenessStats {
  /// Expected matched children under the completeness model at the
  /// current progress point.
  double expected_matches = 0.0;
  /// Observed statistic (distinct matched children, or emitted pairs
  /// under use_pairs_statistic).
  uint64_t observed_matches = 0;
  /// observed / expected, clamped to [0, 1]; 1 when nothing was
  /// expected.
  double ratio = 1.0;
  /// Structurally malformed input rows skipped by quarantining sources
  /// (CsvSourceOptions::max_bad_rows) — input the result never saw,
  /// reported alongside the completeness ratio.
  uint64_t quarantined_rows = 0;
};

/// \brief What the engine does with a *recoverable* mid-query fault —
/// a source/routing error or a shard phase failure at an epoch
/// boundary, where every completed epoch's output is intact and
/// deliverable. Unrecoverable faults (mid-merge invariant violations,
/// partially broadcast state transitions, cancellation) always fail
/// regardless of this policy.
enum class FaultPolicy {
  /// Surface the error: the operator enters its sticky failed state
  /// (the pre-existing behavior).
  kFail,
  /// Graceful degradation: treat the fault like a hard deadline — stop
  /// consuming input, deliver the strict-prefix partial result already
  /// produced, and report CompletenessStats plus a FaultReport. The
  /// paper's time-completeness trade, with "fault" as the time knob.
  kFinalizePartial,
};

/// \brief Where and when a tolerated fault happened; attached to a
/// degraded partial result (ParallelAdaptiveJoin::fault, QueryStats).
struct FaultReport {
  /// Failpoint site name when the error carries a "site=…" breadcrumb
  /// (injected faults always do); empty otherwise.
  std::string site;
  /// Completed epochs before the fault (the result is exactly their
  /// merged output).
  uint64_t epoch = 0;
  /// Global step count at the fault, after the aborted epoch's steps
  /// were rolled back.
  uint64_t step = 0;
  /// Faulting shard for phase A/B failures; -1 when the fault is not
  /// shard-attributable (source/routing/merge-entry faults).
  int32_t shard = -1;
  /// The underlying error.
  Status status;
};

/// Process-wide default of ParallelJoinOptions::pipeline_ingest: true,
/// unless the AQP_PIPELINE_INGEST environment variable is set to
/// 0/off/false/no (the CI serial-fallback ctest flavor). Read once.
bool DefaultPipelineIngest();

/// \brief Ingest-overlap counters: how much source parse + routing
/// cost the pipelined ingest moved off the epoch critical path.
///
/// Written by the coordinator at epoch barriers (and by the ingest
/// task between them); read them only when the operator is quiescent —
/// between drive calls, or after the stream ended.
struct IngestStats {
  /// Epochs whose route was staged ahead by the ingest task.
  uint64_t epochs_staged = 0;
  /// Epochs routed serially on the critical path (the first epoch,
  /// and every epoch when pipeline_ingest is off).
  uint64_t epochs_routed_serially = 0;
  /// Coordinator wall time blocked at swap points waiting for (or
  /// helping finish) an in-flight ingest task. On a saturated pool
  /// this approaches overlap_route_ns — no spare lane, no real
  /// overlap (the 1-CPU bench caveat).
  int64_t stall_ns = 0;
  /// Staging wall time (source refills + routing) spent on the ingest
  /// task, i.e. attributed to overlap rather than the critical path.
  int64_t overlap_route_ns = 0;
  /// Serial routing wall time on the critical path.
  int64_t serial_route_ns = 0;
};

/// \brief Configuration of the partition-parallel adaptive join.
struct ParallelJoinOptions {
  /// Join spec, interleaving, MAR thresholds, weights.
  adaptive::AdaptiveJoinOptions base;
  /// Shard (worker) count. 0 = hardware concurrency. 1 runs the same
  /// drive loop with a single partition.
  size_t num_shards = 0;
  /// Epoch length in steps when no control point bounds it (pinned
  /// policy, or a scripted policy past its last entry). Only
  /// throughput-relevant: results and traces do not depend on it.
  uint64_t unbounded_epoch_steps = 4096;
  /// Shared worker pool (borrowed, e.g. a LinkageService's; must
  /// outlive the operator). Null = the operator creates its own
  /// (num_shards - 1)-worker pool at Open. Pool choice never changes
  /// results or traces — epochs are barrier-synchronized either way.
  ThreadPool* shared_pool = nullptr;
  /// Called by the coordinator at every epoch control point (all
  /// shards quiescent), *before* the MAR control loop runs. This is
  /// where per-query deadline budgets plug into the adaptation cycle:
  /// a service returns kForceExactOnly past a soft deadline, kFinalize
  /// past a hard one, kCancel on teardown. Null = always proceed
  /// (byte-identical to the governor-less engine).
  std::function<EpochDirective(const EpochView&)> governor;
  /// Recoverable-fault policy (see FaultPolicy). kFail preserves the
  /// sticky-error behavior.
  FaultPolicy on_fault = FaultPolicy::kFail;
  /// Bounded retry of transient (kUnavailable) source refills during
  /// ingest; absorbed retries surface via source_retries().
  SourceRetryOptions source_retry;
  /// Overlap ingest with execution: while epoch e's phases run, an
  /// ingest task group pulls source batches and routes epoch e+1 into
  /// a staged buffer tier, committed at the next epoch barrier.
  /// Results and adaptation traces are byte-identical either way
  /// (tests/integration/pipeline_parity_test.cc); the toggle exists to
  /// keep the refactor bisectable and to let CI drive the retained
  /// serial path. Default on (see DefaultPipelineIngest).
  bool pipeline_ingest = DefaultPipelineIngest();
  /// Per-query budget node of the hierarchical accounting tree
  /// (borrowed; must outlive the join). When set, the join creates one
  /// child node per shard plus a coordinator node under it at Open and
  /// refreshes them at every epoch control point, so the governor (and
  /// the node's ancestors, up to a service-global root) observe the
  /// engine's footprint while it runs. Null = no accounting, no
  /// refresh work — byte-identical behavior AND identical hot-path
  /// cost to the pre-budget engine.
  mem::BudgetNode* memory_budget = nullptr;
};

/// \brief One late-materialized output match of the parallel join:
/// the pair's tuples addressed by (shard, shard-local id).
struct ParallelMatchRef {
  uint32_t left_shard = 0;
  uint32_t right_shard = 0;
  storage::TupleId left_id = 0;
  storage::TupleId right_id = 0;
  double similarity = 1.0;
  join::MatchKind kind = join::MatchKind::kExact;
};

/// \brief The paper's hybrid join operator: a pipelined symmetric hash
/// join whose per-input matching mode (exact / approximate) is driven
/// at runtime by the Monitor-Assess-Respond loop, partitioned over N
/// shards with one globally coordinated MAR loop. It is the system's
/// only join operator; at num_shards = 1 it is the single-threaded
/// join.
///
/// Execution starts in `options.base.adaptive.initial_state` (lex/rex
/// by default). Every δ_adapt steps — always at a quiescent state —
/// the monitor's observables are assessed: a statistically significant
/// shortfall of the observed result size versus the parent-child
/// binomial expectation (σ) switches perturbed inputs to approximate
/// matching (ϕ1–ϕ3); a window of consistently exact matches switches
/// back (ϕ0). A pinned policy never switches: pinned lex/rex is SHJoin
/// (§2.1), pinned lap/rap is SSHJoin (§2.2).
///
/// \code
///   ParallelJoinOptions options;
///   options.base.join.spec.left_column = 1;    // accidents.location
///   options.base.join.spec.right_column = 0;   // atlas.location
///   options.base.adaptive.parent_side = exec::Side::kRight;
///   options.base.adaptive.parent_table_size = atlas.size();
///   options.num_shards = 1;
///   ParallelAdaptiveJoin join(&accidents_scan, &atlas_scan, options);
///   auto result = exec::CollectAll(&join);
/// \endcode
///
/// A radix exchange reads the two children in the interleave
/// scheduler's order and routes each tuple by join-key hash to one of
/// N shards, each owning
/// its own TupleStore / ExactIndex / QGramIndex (inside a
/// HybridJoinCore). Execution is epoch-synchronized: one epoch spans
/// the steps to the next MAR control point (δ_adapt in adaptive mode),
/// and runs as
///
///   control point  →  route epoch  →  phase A (parallel: per-shard
///   step loops)  →  phase B (parallel: cross-shard approximate
///   probes, sequence-gated)  →  merge (serial: global observation
///   stream)  →  next control point
///
/// Adaptation stays *global*: the coordinator merges every shard's
/// per-step matches back into global step order, replays the §3.3
/// attribution against coordinator-owned matched-exactly flags, feeds
/// one global Monitor, and runs Assess/Respond once per epoch. A
/// chosen transition is broadcast to all shards, each catching up its
/// own lagging structures, before any shard executes a step of the
/// next epoch — the paper's safe-state-transfer guarantee, since every
/// shard is quiescent at the barrier.
///
/// Equivalence contract (tests/integration/parallel_parity_test.cc and
/// the other parity suites): the output row *sequence* and the
/// adaptation trace are byte-identical across shard counts, child
/// batch sizes, drive modes, and pipelined vs serial ingest, and
/// against the recorded reference digests
/// (tests/integration/testdata/reference_digests.inc). Exact matches
/// are intra-shard by construction (equal keys hash equally);
/// approximate cross-shard matches are recovered by phase B with the
/// same prefix visibility as a single index; and the merge emits each
/// step's matches sorted by the stored tuple's global ordinal — the
/// deterministic shard merge order, which equals one index's
/// ascending-stored-id probe output order.
///
/// Four drive modes are supported, all producing identical streams:
/// columnar batches (NextColumnBatch, cells written straight from the
/// shard stores), the row protocol (Next, materialized at delivery),
/// match refs (NextMatchRefs + MaterializeRow), and the counting drain
/// (AdvanceUnmaterialized; never builds a row).
class ParallelAdaptiveJoin : public exec::Operator,
                             public exec::UnmaterializedCounter {
 public:
  /// Children are borrowed, not owned, and must outlive the join.
  ParallelAdaptiveJoin(exec::Operator* left, exec::Operator* right,
                       ParallelJoinOptions options);
  ~ParallelAdaptiveJoin() override;

  Status Open() override;
  Result<std::optional<storage::Tuple>> Next() override;
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override {
    return output_schema_;
  }
  /// Quiescent iff no produced-but-undelivered match refs remain
  /// buffered (every routed tuple is fully joined at epoch barriers).
  bool quiescent() const override { return out_pos_ >= out_buffer_.size(); }
  std::string name() const override { return "ParallelAdaptiveJoin"; }

  /// \name Match-ref drive mode.
  /// @{
  /// Appends up to `max_refs` output refs to `*out` (cleared first).
  /// An empty result after an OK return signals end-of-stream.
  Status NextMatchRefs(size_t max_refs, std::vector<ParallelMatchRef>* out);

  /// Concatenates the stored tuples of `ref` (left fields, right
  /// fields, optional similarity column).
  storage::Tuple MaterializeRow(const ParallelMatchRef& ref) const;

  /// Columnar materialization of one ref: writes the output cells
  /// straight from the shard stores' columns into `out` (no row
  /// payload constructed).
  void MaterializeRefInto(const ParallelMatchRef& ref,
                          storage::ColumnBatch* out) const;
  /// @}

  /// exec::UnmaterializedCounter.
  Result<size_t> AdvanceUnmaterialized(size_t max_rows) override;

  /// \name Deadline controls (also reachable via options().governor).
  /// @{
  /// Forces the processor into lex/rex at the next epoch boundary and
  /// pins it there (soft-deadline semantics; sticky).
  void ForceExactOnly() { exact_only_ = true; }
  /// Stops consuming input at the next epoch boundary: buffered output
  /// is still delivered, then the stream ends (hard-deadline
  /// semantics; sticky).
  void FinalizeEarly() { finalize_requested_ = true; }
  /// True iff the stream was ended by FinalizeEarly / kFinalize while
  /// input remained.
  bool finalized_early() const { return finalized_early_; }
  /// True once no further input will be consumed (exhausted or
  /// finalized). Buffered output may still be undelivered.
  bool stream_done() const { return stream_done_; }
  /// Completeness of the result produced so far, under the configured
  /// completeness model — the number a deadline-expired query reports
  /// alongside its partial result.
  CompletenessStats Completeness() const;
  /// The tolerated fault that ended the stream early; engaged only
  /// when on_fault == kFinalizePartial caught a recoverable fault.
  const std::optional<FaultReport>& fault() const { return fault_; }
  /// Transient source refill failures retried away during ingest.
  uint64_t source_retries() const {
    return exchange_ ? exchange_->source_retries() : 0;
  }
  /// Ingest-overlap counters (see IngestStats for the read contract).
  const IngestStats& ingest_stats() const { return ingest_stats_; }
  /// Epochs routed, executed, and merged to completion.
  uint64_t epochs_completed() const { return epoch_; }
  /// @}

  /// \name Run introspection (valid during and after execution).
  /// @{
  adaptive::ProcessorState state() const { return state_; }
  const adaptive::CostAccountant& cost() const { return cost_; }
  const adaptive::Monitor& monitor() const { return *monitor_; }
  const adaptive::AdaptationTrace& trace() const { return trace_; }
  uint64_t steps() const { return exchange_ ? exchange_->steps() : 0; }
  /// Measured wall time of the epochs run in `s` (phase A, phase B,
  /// and merge; one clock pair per epoch), in nanoseconds.
  int64_t state_time_ns(adaptive::ProcessorState s) const {
    return state_time_ns_[adaptive::StateIndex(s)];
  }
  /// Measured wall time of the catch-up broadcasts of transitions
  /// *into* `s`, in nanoseconds (the raw material for the §4.3 v_i
  /// weights).
  int64_t transition_time_ns(adaptive::ProcessorState s) const {
    return transition_time_ns_[adaptive::StateIndex(s)];
  }
  uint64_t pairs_emitted() const { return pairs_emitted_; }
  uint64_t exact_pairs() const { return exact_pairs_; }
  uint64_t approximate_pairs() const { return approximate_pairs_; }
  /// Distinct tuples of `side` matched at least once (global, i.e.
  /// including cross-shard matches the shard cores cannot see).
  uint64_t distinct_matched(exec::Side side) const {
    return matched_any_count_[static_cast<size_t>(side)];
  }
  size_t num_shards() const { return shards_.size(); }
  const JoinShard& shard(size_t i) const { return *shards_[i]; }
  const ParallelJoinOptions& options() const { return options_; }

  /// Engine memory footprint right now: shard committed+staged tiers,
  /// exchange refill batches, and coordinator buffers. Call only when
  /// quiescent (between drive calls with no ingest task in flight, or
  /// after the stream ended) — the per-control-point refresh uses the
  /// race-free split internally.
  uint64_t ApproximateMemoryUsage() const;
  /// Footprint as of the last control-point refresh (0 before any).
  uint64_t memory_bytes() const { return memory_bytes_; }
  /// High-water of the refreshed footprint across the run. A final
  /// snapshot is folded in when the stream ends, so with accounting
  /// off (memory_budget null) this is simply the end-of-run footprint.
  uint64_t peak_memory_bytes() const { return peak_memory_bytes_; }
  /// @}

 private:
  /// One merged match during the per-step merge, with global per-side
  /// ordinals alongside the (shard, local id) address.
  struct MergedMatch {
    ParallelMatchRef ref;
    exec::Side probe_side = exec::Side::kLeft;
    uint32_t probe_ordinal = 0;
    uint32_t stored_ordinal = 0;
  };

  /// Runs one epoch (control point, route-or-swap, phases, merge).
  /// Sets `*stream_ended` when no step could be routed. With
  /// pipeline_ingest on, the epoch's route was usually staged by an
  /// ingest task during the previous epoch; the swap point waits for
  /// that task, commits the staged tier, and submits staging of the
  /// *next* epoch before the phases run.
  Status PumpEpoch(bool* stream_ended);

  /// \name Pipelined ingest (all coordinator-side).
  /// @{
  /// Submits a one-task ingest group that stages the next epoch
  /// (predicted budget) into the exchange/shard staged tiers. No-op
  /// when pipelining is off, no pool exists, the stream is ending, or
  /// both inputs are already exhausted.
  void MaybeSubmitIngest();
  /// Waits for the in-flight ingest task (stall time accounted) and
  /// returns its outcome: the task-group error if it threw, else the
  /// StageEpoch status.
  Status WaitIngest();
  /// What the next pump's StepsToNextControlPoint() will return —
  /// evaluated one epoch early by simulating the control-point updates
  /// on (published) committed counters. Exact, not a heuristic: the
  /// swap point re-derives the truth and Internal-errors on mismatch.
  uint64_t PredictNextEpochBudget() const;
  /// Drains any in-flight ingest task and discards the staged tier
  /// (terminal paths: finalize, cancel, faults, Close, destruction).
  /// A staging error is swallowed — the serial engine would never
  /// have routed that epoch.
  void AbandonStagedIngest();
  /// Ingest-task fault at the swap point: the staged (never
  /// committed) epoch is discarded, then the fault degrades or goes
  /// sticky exactly like HandleEpochFault — same FaultReport shape,
  /// no rollback needed because nothing was published.
  Status HandleIngestFault(Status error, bool* stream_ended);
  /// @}

  /// Refills the output buffer by pumping epochs until output exists
  /// or the stream ends.
  Status EnsureOutput(bool* have_output);

  /// \name Memory accounting (tentpole PR 9).
  /// @{
  /// Control-point refresh: recomputes the engine footprint (race-free
  /// against an in-flight ingest task via the committed/ingest-side
  /// split), pushes it into the budget nodes, and updates
  /// memory_bytes_/peak_memory_bytes_. Evaluates the `budget.charge`
  /// failpoint first; a non-OK charge is returned for the caller to
  /// degrade through HandleEpochFault. Only called when a budget node
  /// is attached.
  Status RefreshMemoryAccounting();
  /// Sum of the tiers owned by the ingest/staging context: exchange
  /// refill batches, shard staged tiers, and the staged route. Called
  /// by the ingest task after staging (published via
  /// ingest_side_bytes_), or by the coordinator when no task is in
  /// flight.
  uint64_t IngestSideMemoryUsage() const;
  /// Coordinator-owned buffers (route, merge scratch, output buffer,
  /// matched flags) — always safe from the coordinator.
  uint64_t CoordinatorMemoryUsage() const;
  /// The refresh body without the failpoint: recompute, push into the
  /// budget nodes (if any), update memory_bytes_ and the peak. Also
  /// called directly on stream-end paths (no ingest task is in flight
  /// there), so the final footprint is always folded into the peak —
  /// including with accounting off, which is what fixes the
  /// parallel-runs-report-no-memory RunStats bug.
  void UpdateMemoryAccounting();
  /// @}

  /// Epoch control point: replays due script entries (scripted), runs
  /// the MAR loop every δ_adapt steps (adaptive), or nothing (pinned).
  /// An error (failed catch-up broadcast) leaves shard states
  /// inconsistent and is never degradable.
  Status ControlPoint();
  /// One MAR activation on the global aggregates: assess, decide,
  /// transition or record the stay.
  Status RunControlLoop();
  /// Steps until the next control point bounds the epoch.
  uint64_t StepsToNextControlPoint() const;
  /// Broadcasts `next` to all shards (parallel per-shard catch-up) and
  /// records costs and the trace entry.
  Status ApplyTransition(adaptive::ProcessorState next,
                         const adaptive::Assessment& assessment, int phi);
  /// Abandons the epoch whose route is in `route_` (pending rows
  /// discarded, exchange counters rolled back to the last completed
  /// epoch), then either degrades — on_fault == kFinalizePartial and
  /// `error` is recoverable: record a FaultReport, end the stream as a
  /// finalized partial result, return OK with `*stream_ended` set — or
  /// makes `error` the sticky pump error. `shard` attributes phase
  /// faults (-1 otherwise).
  Status HandleEpochFault(Status error, int32_t shard, bool* stream_ended);
  /// Serial coordinator merge of one routed epoch: global observation
  /// stream, matched-flag replay, monitor feed, output append. Errors
  /// only on broken phase invariants (misordered shard outputs).
  Status MergeEpoch();
  /// Aggregates the global JoinProgress snapshot the completeness
  /// model consumes (shared by RunControlLoop and Completeness).
  stats::JoinProgress Progress() const;
  /// Runs one task batch on the pool (coordinator participates), or
  /// inline when single-sharded; either way a throwing task is
  /// contained and returned as the group's first error. When
  /// `failed_task` is non-null it receives the failing task's index
  /// (-1 if none) — phase callers pass one task per shard, so the
  /// index names the faulting shard.
  Status RunTasks(std::vector<std::function<void()>> tasks,
                  int32_t* failed_task = nullptr);

  exec::Operator* left_;
  exec::Operator* right_;
  ParallelJoinOptions options_;
  storage::Schema output_schema_;
  /// Left input arity (output column offset of the right fields).
  size_t left_width_ = 0;

  std::vector<std::unique_ptr<JoinShard>> shards_;
  std::vector<JoinShard*> shard_ptrs_;
  std::unique_ptr<RadixExchange> exchange_;
  /// Owned pool when no shared_pool was injected.
  std::unique_ptr<ThreadPool> pool_;
  /// The pool phase task groups actually run on: options_.shared_pool,
  /// else pool_.get(), else null (single shard runs inline).
  ThreadPool* active_pool_ = nullptr;

  /// Global MAR state (the coordinator is the only writer).
  std::unique_ptr<adaptive::Monitor> monitor_;
  std::unique_ptr<adaptive::Assessor> assessor_;
  std::unique_ptr<adaptive::Responder> responder_;
  adaptive::CostAccountant cost_;
  adaptive::AdaptationTrace trace_;
  adaptive::ProcessorState state_;
  uint64_t last_assessment_step_ = 0;
  size_t script_position_ = 0;
  std::array<int64_t, adaptive::kNumProcessorStates> state_time_ns_{};
  std::array<int64_t, adaptive::kNumProcessorStates> transition_time_ns_{};

  /// Coordinator-owned global matched flags, indexed by per-side
  /// ordinal: shard-core flags only see intra-shard matches, so the
  /// §3.3 attribution and the distinct-matched statistic live here.
  std::vector<uint8_t> matched_exactly_[2];
  std::vector<uint8_t> matched_any_[2];
  uint64_t matched_any_count_[2] = {0, 0};
  uint64_t pairs_emitted_ = 0;
  uint64_t exact_pairs_ = 0;
  uint64_t approximate_pairs_ = 0;

  /// Budget-tree children under options_.memory_budget (empty when
  /// accounting is off): one node per shard plus one coordinator node
  /// (exchange + ingest-side + coordinator buffers). Destroyed before
  /// the borrowed parent, auto-releasing their usage.
  std::vector<std::unique_ptr<mem::BudgetNode>> shard_nodes_;
  std::unique_ptr<mem::BudgetNode> coord_node_;
  uint64_t memory_bytes_ = 0;
  uint64_t peak_memory_bytes_ = 0;
  /// Ingest-side footprint published by the staging task after each
  /// StageEpoch (relaxed; read by the coordinator's refresh while the
  /// task is in flight, exact values re-read after the barrier).
  std::atomic<uint64_t> ingest_side_bytes_{0};

  /// Pipelined-ingest state. The ingest task writes staged_route_,
  /// ingest_status_, and the overlap counter; the coordinator touches
  /// them only after TaskGroupHandle::Wait() (the pool's barrier).
  std::vector<RouteEntry> staged_route_;
  uint64_t staged_budget_ = 0;
  Status ingest_status_;
  TaskGroupHandle ingest_handle_;
  bool ingest_inflight_ = false;
  IngestStats ingest_stats_;

  /// Current epoch's route, per-shard merge cursors, and scratch.
  std::vector<RouteEntry> route_;
  std::vector<size_t> merge_cursor_;
  std::vector<size_t> cross_cursor_;
  std::vector<MergedMatch> merge_scratch_;
  std::vector<join::StepObservables> epoch_observables_;

  /// Produced-but-undelivered output refs, in global order.
  std::vector<ParallelMatchRef> out_buffer_;
  size_t out_pos_ = 0;
  /// Bumped whenever out_buffer_ is recycled (NextColumnBatch's
  /// error-path cursor rewind is only valid within one buffer
  /// generation).
  uint64_t buffer_generation_ = 0;

  bool open_ = false;
  bool stream_done_ = false;
  /// Deadline state (see ForceExactOnly / FinalizeEarly).
  bool exact_only_ = false;
  bool finalize_requested_ = false;
  bool finalized_early_ = false;
  /// Epochs merged to completion (FaultReport::epoch).
  uint64_t epoch_ = 0;
  /// The tolerated fault that degraded this run, if any.
  std::optional<FaultReport> fault_;
  /// Sticky failure: a mid-epoch routing or merge error leaves the
  /// exchange's scheduler position unrecoverable, so the operator
  /// hard-fails every subsequent pump with the original status instead
  /// of double-ingesting a retried epoch.
  Status pump_error_;
};

}  // namespace parallel
}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_PARALLEL_PARALLEL_JOIN_H_
