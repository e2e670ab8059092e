// The two direct-drive workloads: one client opens a
// ParallelAdaptiveJoin per query and drains it with NextMatchRefs +
// MaterializeRefInto into column batches, queries back to back.
//
//   exact_bulk  10^6 CSV rows, pinned lex/rex, 2 shards
//   paper_mar   the paper's §4 scale, fully adaptive, 2 shards

#include <algorithm>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "datagen/accidents.h"
#include "datagen/atlas.h"
#include "datagen/generator.h"
#include "datagen/scale.h"
#include "exec/csv_io.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "metrics/experiment.h"
#include "workload.h"

namespace linkbench {

namespace {

using aqp::adaptive::ProcessorState;
using aqp::adaptive::StateIndex;
namespace par = aqp::exec::parallel;

/// Two shards, not one per CPU: on a 4-vCPU host whose hypervisor steals
/// CPU time, four shards stalled every barrier-synchronized epoch on
/// whichever vCPU was descheduled, and query latency varied up to 3x
/// between runs; two leave spare vCPUs to absorb it.
constexpr size_t kShards = 2;
/// Refs pulled per NextMatchRefs call (one column batch each).
constexpr size_t kDrainRefs = aqp::storage::ColumnBatch::kDefaultCapacity;

/// Governor-hook epoch log of one traced query: a `parallel.epoch` span
/// runs from one control point to the next, or to the end of the
/// NextMatchRefs call it ran in, whichever comes first.
class EpochLog {
 public:
  EpochLog(Tracer* tracer, uint64_t query) : tracer_(tracer), query_(query) {}

  /// Governor body (coordinator thread, inside NextMatchRefs).
  void OnControlPoint(const par::EpochView& view) {
    const int64_t now = NowNs();
    Close(now);
    points_.push_back({now, view.steps, view.state});
    span_.name = "parallel.epoch";
    span_.layer = "parallel";
    span_.id = tracer_->NewId();
    span_.parent = Tracer::Current();
    span_.query = query_;
    span_.start_ns = now;
    span_.count = view.steps;
    Tracer::Push(span_.id);
    open_ = true;
  }

  /// Ends the open epoch span (called when NextMatchRefs returns).
  void Close(int64_t now) {
    if (!open_) return;
    span_.end_ns = now;
    Tracer::Pop();
    tracer_->Record(span_);
    durations_ns_.push_back(now - span_.start_ns);
    open_ = false;
  }

  /// Attributes each epoch's time and steps to the state it ran in:
  /// the state seen at the next control point, or `final_state`. An
  /// epoch whose control point switched state carries the catch-up; the
  /// steady epoch after it gives the per-step rate to subtract.
  void Fold(uint64_t final_steps, ProcessorState final_state,
            LayerCounters* layers) const {
    const size_t n = std::min(points_.size(), durations_ns_.size());
    std::vector<ProcessorState> ran(n);
    std::vector<uint64_t> steps(n);
    std::vector<double> ms(n);
    for (size_t k = 0; k < n; ++k) {
      const bool last = k + 1 == points_.size();
      ran[k] = last ? final_state : points_[k + 1].state;
      steps[k] = (last ? final_steps : points_[k + 1].steps) - points_[k].steps;
      ms[k] = static_cast<double>(durations_ns_[k]) / 1e6;
    }
    auto switched = [&](size_t k) { return ran[k] != points_[k].state; };
    for (size_t k = 0; k < n; ++k) {
      const size_t s = StateIndex(ran[k]);
      layers->epoch_us.push_back(ms[k] * 1e3);
      layers->time_ms[s] += ms[k];
      if (!switched(k)) {
        layers->steady_ms[s] += ms[k];
        layers->steady_steps[s] += steps[k];
        continue;
      }
      ++layers->entries[s];
      if (k + 1 < n && !switched(k + 1) && steps[k + 1] > 0) {
        layers->catchup_ms[s] +=
            ms[k] - static_cast<double>(steps[k]) * ms[k + 1] /
                        static_cast<double>(steps[k + 1]);
        ++layers->catchup_n[s];
      }
    }
  }

 private:
  struct Point {
    int64_t at_ns;
    uint64_t steps;
    ProcessorState state;
  };
  Tracer* tracer_;
  uint64_t query_;
  Span span_;
  bool open_ = false;
  std::vector<Point> points_;
  std::vector<int64_t> durations_ns_;
};

/// Reads the engine's public counters after the stream ended.
void FoldEngine(const par::ParallelAdaptiveJoin& join, double recall,
                LayerCounters* layers) {
  const par::IngestStats& ingest = join.ingest_stats();
  layers->ingest_stall_ms += static_cast<double>(ingest.stall_ns) / 1e6;
  layers->ingest_overlap_route_ms +=
      static_cast<double>(ingest.overlap_route_ns) / 1e6;
  layers->ingest_serial_route_ms +=
      static_cast<double>(ingest.serial_route_ns) / 1e6;
  layers->ingest_epochs_staged += ingest.epochs_staged;

  double max_store = 0;
  double sum_store = 0;
  for (size_t i = 0; i < join.num_shards(); ++i) {
    const aqp::join::HybridJoinCore& core = join.shard(i).core();
    const double stored =
        static_cast<double>(core.store(aqp::exec::Side::kLeft).size() +
                            core.store(aqp::exec::Side::kRight).size());
    max_store = std::max(max_store, stored);
    sum_store += stored;
    for (const aqp::join::ApproxProbeStats* stats :
         {&core.approx_probe_stats(), &join.shard(i).cross_probe_stats()}) {
      layers->postings_scanned += stats->postings_scanned;
      layers->candidates += stats->candidates;
      layers->verified += stats->verified;
      layers->matches += stats->matches;
    }
  }
  if (sum_store > 0) {
    layers->shard_skew_sum +=
        max_store / (sum_store / static_cast<double>(join.num_shards()));
    ++layers->shard_skew_n;
  }
  layers->pairs_exact += join.exact_pairs();
  layers->pairs_approx += join.approximate_pairs();

  for (ProcessorState s : aqp::adaptive::kAllProcessorStates) {
    layers->steps[StateIndex(s)] += join.cost().steps(s);
  }
  layers->transitions += join.trace().transition_count();
  for (const aqp::adaptive::AssessmentRecord& record : join.trace().records()) {
    layers->catchup_tuples += record.catchup_left + record.catchup_right;
    if (record.assessment.sigma) ++layers->sigma_count;
  }
  layers->model_gap_sum += join.Completeness().ratio - recall;
  ++layers->model_gap_n;
  layers->engine_peak_mb =
      std::max(layers->engine_peak_mb,
               static_cast<double>(join.peak_memory_bytes()) / (1 << 20));
}

/// Time from start until `cumulative` first reached 90% of its last
/// value; `cumulative` holds (ns since start, true pairs so far).
int64_t TimeTo90(const std::vector<std::pair<int64_t, uint64_t>>& cumulative) {
  if (cumulative.empty() || cumulative.back().second == 0) return -1;
  const uint64_t total = cumulative.back().second;
  for (const auto& [at_ns, pairs] : cumulative) {
    if (pairs * 10 >= total * 9) return at_ns;
  }
  return cumulative.back().first;
}

/// One direct-drive query over unopened children.
struct DirectQuery {
  std::string config;
  aqp::exec::Operator* left = nullptr;
  aqp::exec::Operator* right = nullptr;
  par::ParallelJoinOptions options;
  const PairChecker* checker = nullptr;
  uint64_t truth = 0;
};

QueryOutcome Drive(const DirectQuery& q, Tracer* tracer, uint64_t query_id,
                   LayerCounters* layers) {
  QueryOutcome outcome;
  outcome.config = q.config;
  outcome.truth = q.truth;

  const uint64_t root = tracer != nullptr ? tracer->NewId() : 0;
  TimedSource timed_left(q.left, tracer);
  TimedSource timed_right(q.right, tracer);
  timed_left.BindQuery(root, query_id);
  timed_right.BindQuery(root, query_id);
  par::ParallelJoinOptions options = q.options;
  std::unique_ptr<EpochLog> epochs;
  if (tracer != nullptr) {
    epochs = std::make_unique<EpochLog>(tracer, query_id);
    options.governor = [log = epochs.get()](const par::EpochView& view) {
      log->OnControlPoint(view);
      return par::EpochDirective::kProceed;
    };
  }
  par::ParallelAdaptiveJoin join(
      tracer != nullptr ? &timed_left : q.left,
      tracer != nullptr ? &timed_right : q.right, std::move(options));

  // One reused batch, checked as it is drained. The check is the
  // benchmark's own work: its time is taken out of the query's clock.
  aqp::storage::ColumnBatch batch;
  std::vector<aqp::join::MatchKind> kinds;
  std::vector<par::ParallelMatchRef> refs;
  std::vector<std::pair<int64_t, uint64_t>> progress;
  int64_t check_ns = 0;
  const int64_t start = NowNs();
  aqp::Status status;
  {
    SpanScope span(tracer, "parallel.open", "parallel", root, query_id);
    status = join.Open();
  }
  while (status.ok()) {
    {
      SpanScope span(tracer, "parallel.next_match_refs", "parallel", root,
                     query_id);
      status = join.NextMatchRefs(kDrainRefs, &refs);
      if (epochs) epochs->Close(NowNs());
      span.set_count(refs.size());
    }
    if (!status.ok() || refs.empty()) break;
    {
      SpanScope span(tracer, "storage.materialize", "storage", root, query_id);
      batch.Reset(&join.output_schema(), refs.size());
      kinds.clear();
      for (const par::ParallelMatchRef& ref : refs) {
        join.MaterializeRefInto(ref, &batch);
        kinds.push_back(ref.kind);
      }
      span.set_count(refs.size());
    }
    const int64_t in_hand = NowNs();
    {
      SpanScope span(tracer, "bench.check", "bench", root, query_id);
      q.checker->CheckBatch(batch, kinds, &outcome.tally);
      span.set_count(batch.size());
    }
    progress.emplace_back(in_hand - start - check_ns, outcome.tally.true_pairs);
    check_ns += NowNs() - in_hand;
  }
  const int64_t end = NowNs();
  if (tracer != nullptr) {
    Span query;
    query.name = "query";
    query.layer = "query";
    query.id = root;
    query.query = query_id;
    query.start_ns = start;
    query.end_ns = end;
    query.count = join.steps();
    tracer->Record(query);
  }
  outcome.latency_ns = end - start - check_ns;
  outcome.rows = join.steps();
  if (!status.ok()) {
    outcome.error = status.ToString();
    (void)join.Close();
    return outcome;
  }

  outcome.t90_ns = TimeTo90(progress);
  if (outcome.tally.violations > 0) {
    outcome.error = outcome.tally.first_violation;
  }
  if (tracer != nullptr) {
    const double recall = static_cast<double>(outcome.tally.true_pairs) /
                          static_cast<double>(q.truth);
    FoldEngine(join, recall, layers);
    epochs->Fold(join.steps(), join.state(), layers);
  }
  status = join.Close();
  if (!status.ok() && outcome.error.empty()) outcome.error = status.ToString();
  return outcome;
}

/// Closed loop: queries back to back, rotating through `configs`, until
/// `seconds` passed at the end of a whole rotation (so every config ran
/// equally often).
RunRecord Loop(double seconds, size_t configs,
               const std::function<QueryOutcome(size_t)>& one) {
  RunRecord record;
  const int64_t start = NowNs();
  const auto budget = static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; i % configs != 0 || i == 0 || NowNs() - start < budget;
       ++i) {
    record.queries.push_back(one(i));
  }
  record.wall_ns = NowNs() - start;
  return record;
}

par::ParallelJoinOptions BaseOptions(const aqp::adaptive::AdaptiveJoinOptions& base) {
  par::ParallelJoinOptions options;
  options.base = base;
  options.num_shards = kShards;
  return options;
}

/// Appends `field` to `out` as one CSV cell.
void AppendCsvCell(std::string_view field, std::string* out) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

// ------------------------------------------------------------ exact_bulk

class ExactBulk : public Workload {
 public:
  static constexpr size_t kParents = 500000;
  static constexpr size_t kChildren = 500000;

  aqp::Status Setup(uint64_t seed) override {
    aqp::datagen::ScaledCorpusOptions corpus_options;
    corpus_options.parent_rows = kParents;
    corpus_options.child_rows = kChildren;
    corpus_options.variant_rate = 0.10;
    corpus_options.seed = seed;
    corpus_ = std::make_unique<aqp::datagen::ScaledCorpus>(corpus_options);
    parent_csv_ = "location,municipality_id\n";
    child_csv_ = "location,report_id\n";
    true_parent_.resize(kChildren);
    for (size_t row = 0; row < kParents; ++row) {
      AppendCsvCell(corpus_->ParentLocation(row), &parent_csv_);
      parent_csv_ += ',' + std::to_string(row) + '\n';
    }
    for (size_t row = 0; row < kChildren; ++row) {
      AppendCsvCell(corpus_->ChildLocation(row), &child_csv_);
      child_csv_ += ',' + std::to_string(row) + '\n';
      true_parent_[row] = static_cast<uint32_t>(corpus_->ChildParent(row));
    }

    aqp::adaptive::AdaptiveJoinOptions base;
    base.join.spec.left_column = 0;
    base.join.spec.right_column = 0;
    base.join.spec.sim_threshold = 0.85;
    base.join.left_size_hint = kChildren;
    base.join.right_size_hint = kParents;
    base.adaptive.parent_side = aqp::exec::Side::kRight;
    base.adaptive.parent_table_size = kParents;
    base.adaptive.policy = aqp::adaptive::AdaptivePolicy::kPinned;
    base.adaptive.initial_state = ProcessorState::kLexRex;
    options_ = BaseOptions(base);

    CheckLayout layout;
    layout.left_key = 0;
    layout.left_id = 1;
    layout.right_key = 2;
    layout.right_id = 3;
    layout.spec = base.join.spec;
    layout.true_parent = &true_parent_;
    checker_ = std::make_unique<PairChecker>(layout);
    return aqp::Status::OK();
  }

  RunRecord Run(double seconds, Tracer* tracer) override {
    LayerCounters layers;
    RunRecord record = Loop(seconds, 1, [&](size_t i) {
      aqp::exec::CsvSource child(corpus_->child_schema(), child_csv_);
      aqp::exec::CsvSource parent(corpus_->parent_schema(), parent_csv_);
      DirectQuery q;
      q.config = "scaled/pinned_exact";
      q.left = &child;
      q.right = &parent;
      q.options = options_;
      q.checker = checker_.get();
      q.truth = kChildren;
      return Drive(q, tracer, i + 1, &layers);
    });
    record.layers = std::move(layers);
    record.notes.push_back(
        "exact_bulk: CSV text " + std::to_string(child_csv_.size() >> 20) +
        " MiB child + " + std::to_string(parent_csv_.size() >> 20) +
        " MiB parent, parsed per query");
    return record;
  }

  size_t shards() const override { return kShards; }
  size_t workers() const override { return kShards - 1; }

 private:
  std::unique_ptr<aqp::datagen::ScaledCorpus> corpus_;
  std::string parent_csv_;
  std::string child_csv_;
  std::vector<uint32_t> true_parent_;
  par::ParallelJoinOptions options_;
  std::unique_ptr<PairChecker> checker_;
};

// ------------------------------------------------------------- paper_mar

class PaperMar : public Workload {
 public:
  aqp::Status Setup(uint64_t seed) override {
    cases_.clear();
    const std::pair<aqp::datagen::PerturbationPattern, bool> specs[] = {
        {aqp::datagen::PerturbationPattern::kFewHighIntensityRegions, false},
        {aqp::datagen::PerturbationPattern::kUniform, true}};
    for (const auto& [pattern, both] : specs) {
      aqp::datagen::TestCaseOptions tc_options;
      tc_options.pattern = pattern;
      tc_options.perturb_parent = both;
      tc_options.variant_rate = 0.10;
      tc_options.atlas.size = 8082;
      tc_options.accidents.size = 10000;
      tc_options.seed = seed;
      auto tc = aqp::datagen::GenerateTestCase(tc_options);
      if (!tc.ok()) return tc.status();
      Case& c = cases_.emplace_back();
      c.tc = std::make_unique<aqp::datagen::TestCase>(std::move(*tc));
      c.config = c.tc->options.Label();
      c.true_parent.assign(c.tc->child_true_parent.begin(),
                           c.tc->child_true_parent.end());
      // Library-default MAR options (δ_adapt = W = 100, θ_out = 0.05).
      const aqp::adaptive::AdaptiveJoinOptions base =
          aqp::metrics::MakeJoinOptions(*c.tc, aqp::metrics::ExperimentOptions{});
      c.options = BaseOptions(base);
      CheckLayout layout;
      layout.left_key = aqp::datagen::kAccidentsLocationColumn;
      layout.left_id = 0;
      const size_t offset = c.tc->child.schema().num_fields();
      layout.right_key = offset + aqp::datagen::kAtlasLocationColumn;
      layout.right_id = offset + 1;
      layout.spec = base.join.spec;
      layout.true_parent = &c.true_parent;
      c.checker = std::make_unique<PairChecker>(layout);
    }
    return aqp::Status::OK();
  }

  RunRecord Run(double seconds, Tracer* tracer) override {
    LayerCounters layers;
    RunRecord record = Loop(seconds, cases_.size(), [&](size_t i) {
      const Case& c = cases_[i % cases_.size()];
      aqp::exec::RelationScan child(&c.tc->child);
      aqp::exec::RelationScan parent(&c.tc->parent);
      DirectQuery q;
      q.config = c.config;
      q.left = &child;
      q.right = &parent;
      q.options = c.options;
      q.checker = c.checker.get();
      q.truth = c.tc->child.size();
      return Drive(q, tracer, i + 1, &layers);
    });
    record.layers = std::move(layers);
    return record;
  }

  size_t shards() const override { return kShards; }
  size_t workers() const override { return kShards - 1; }

 private:
  struct Case {
    std::string config;
    std::unique_ptr<aqp::datagen::TestCase> tc;
    std::vector<uint32_t> true_parent;
    par::ParallelJoinOptions options;
    std::unique_ptr<PairChecker> checker;
  };
  /// A deque keeps each case's address (checkers point into it).
  std::deque<Case> cases_;
};

}  // namespace

std::unique_ptr<Workload> MakeExactBulk() { return std::make_unique<ExactBulk>(); }
std::unique_ptr<Workload> MakePaperMar() { return std::make_unique<PaperMar>(); }

}  // namespace linkbench
