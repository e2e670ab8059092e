// serving_mix: a LinkageService with 1 pool worker and admission of 2
// concurrent queries x 2 shards (the two runner threads join their own
// queries' phase work, so three threads carry the load). One client
// thread keeps 4 queries outstanding over small child-only test cases
// (four per Fig. 5 pattern); tenants alternate adaptive and pinned
// exact, and every fourth query carries a hard step deadline, so it
// returns the finalize-early partial result.

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datagen/accidents.h"
#include "datagen/atlas.h"
#include "datagen/generator.h"
#include "exec/scan.h"
#include "metrics/experiment.h"
#include "service/linkage_service.h"
#include "workload.h"

namespace linkbench {

namespace {

namespace svc = aqp::service;

/// One worker, not two, for the same reason the direct workloads use two
/// shards: a spare vCPU absorbs hypervisor steal.
constexpr size_t kWorkers = 1;
constexpr size_t kConcurrent = 2;
constexpr size_t kShardsPerQuery = 2;
constexpr size_t kOutstanding = 4;
constexpr uint64_t kDeadlineSteps = 1500;
/// Test cases per pattern, each from its own seed derived from the run's:
/// the cost of an adaptive query depends on its data by about ±10%, and
/// averaging four draws keeps one seed's luck out of the run's numbers.
constexpr size_t kCasesPerPattern = 4;
/// Case × tenant; the deadline follows the query's position.
constexpr size_t kConfigs = 4 * kCasesPerPattern * 2;

class ServingMix : public Workload {
 public:
  aqp::Status Setup(uint64_t seed) override {
    service_.reset();
    cases_.clear();
    for (size_t i = 0; i < 4 * kCasesPerPattern; ++i) {
      aqp::datagen::TestCaseOptions tc_options;
      tc_options.pattern = aqp::datagen::kAllPatterns[i % 4];
      tc_options.perturb_parent = false;
      tc_options.variant_rate = 0.10;
      tc_options.atlas.size = 1000;
      tc_options.accidents.size = 2000;
      tc_options.seed = (seed << 8) | (i / 4);
      auto tc = aqp::datagen::GenerateTestCase(tc_options);
      if (!tc.ok()) return tc.status();
      Case& c = cases_.emplace_back();
      c.tc = std::make_unique<aqp::datagen::TestCase>(std::move(*tc));
      c.label = c.tc->options.Label() + "/case" + std::to_string(i / 4);
      c.true_parent.assign(c.tc->child_true_parent.begin(),
                           c.tc->child_true_parent.end());
      c.base = aqp::metrics::MakeJoinOptions(*c.tc, aqp::metrics::ExperimentOptions{});
      CheckLayout layout;
      layout.left_key = aqp::datagen::kAccidentsLocationColumn;
      layout.left_id = 0;
      const size_t offset = c.tc->child.schema().num_fields();
      layout.right_key = offset + aqp::datagen::kAtlasLocationColumn;
      layout.right_id = offset + 1;
      layout.spec = c.base.join.spec;
      layout.true_parent = &c.true_parent;
      c.checker = std::make_unique<PairChecker>(layout);
    }
    svc::ServiceOptions options;
    options.worker_threads = kWorkers;
    options.admission.max_concurrent_queries = kConcurrent;
    options.admission.max_total_shards = kConcurrent * kShardsPerQuery;
    service_ = std::make_unique<svc::LinkageService>(options);
    return aqp::Status::OK();
  }

  RunRecord Run(double seconds, Tracer* tracer) override {
    RunRecord record;
    // The service outlives one run; its lifetime counters are read as
    // this run's deltas.
    const size_t admitted_before = service_->admitted_total();
    const size_t released_before = service_->released_total();
    std::deque<std::unique_ptr<InFlight>> inflight;
    const int64_t start = NowNs();
    const auto budget = static_cast<int64_t>(seconds * 1e9);
    size_t next = 0;
    // Whole rotations only, so every config runs equally often.
    auto want_more = [&] {
      return next % kConfigs != 0 || next == 0 || NowNs() - start < budget;
    };
    while (true) {
      while (inflight.size() < kOutstanding && want_more()) {
        inflight.push_back(Submit(next++, tracer));
      }
      if (inflight.empty()) break;
      std::unique_ptr<InFlight> q = std::move(inflight.front());
      inflight.pop_front();
      Complete(q.get(), tracer, &record);
    }
    record.wall_ns = NowNs() - start;

    LayerCounters& layers = record.layers;
    layers.peak_running = service_->peak_running_queries();
    layers.admitted_total = service_->admitted_total() - admitted_before;
    layers.released_total = service_->released_total() - released_before;
    if (layers.admitted_total != layers.released_total) {
      record.balance_errors.push_back(
          "admitted_total " + std::to_string(layers.admitted_total) +
          " != released_total " + std::to_string(layers.released_total));
    }
    if (layers.peak_running > kConcurrent) {
      record.balance_errors.push_back("peak_running above the admission cap");
    }
    if (service_->shards_in_use() != 0) {
      record.balance_errors.push_back("shards still held at quiescence");
    }
    record.notes.push_back(
        "serving_mix: the service installs its own epoch governor and owns "
        "the engine, so parallel.epoch*, parallel.ingest.*, join.*, "
        "adaptive.* and storage.engine_peak_mb are not observable from "
        "outside and read 0 here; a query's span also covers the client's "
        "time on the other outstanding queries, so span coverage is low");
    return record;
  }

  size_t shards() const override { return kShardsPerQuery; }
  size_t workers() const override { return kWorkers; }

 private:
  struct Case {
    std::string label;
    std::unique_ptr<aqp::datagen::TestCase> tc;
    std::vector<uint32_t> true_parent;
    aqp::adaptive::AdaptiveJoinOptions base;
    std::unique_ptr<PairChecker> checker;
  };

  /// A submitted query and the children it borrows until it is terminal.
  struct InFlight {
    size_t index = 0;
    svc::QueryId id = 0;
    const Case* c = nullptr;
    std::unique_ptr<aqp::exec::RelationScan> child;
    std::unique_ptr<aqp::exec::RelationScan> parent;
    std::unique_ptr<TimedSource> timed_child;
    std::unique_ptr<TimedSource> timed_parent;
    QueryOutcome outcome;
    int64_t start_ns = 0;
    uint64_t root = 0;
  };

  std::unique_ptr<InFlight> Submit(size_t i, Tracer* tracer) {
    auto q = std::make_unique<InFlight>();
    q->index = i;
    q->c = &cases_[i % cases_.size()];
    const bool pinned = (i / cases_.size()) % 2 == 1;
    const bool deadline = i % 4 == 3;
    q->outcome.config = q->c->label +
                        (pinned ? "/pinned_exact" : "/adaptive") +
                        (deadline ? "/deadline" : "");
    q->outcome.truth = q->c->tc->child.size();
    q->child = std::make_unique<aqp::exec::RelationScan>(&q->c->tc->child);
    q->parent = std::make_unique<aqp::exec::RelationScan>(&q->c->tc->parent);
    aqp::exec::Operator* left = q->child.get();
    aqp::exec::Operator* right = q->parent.get();
    if (tracer != nullptr) {
      q->root = tracer->NewId();
      q->timed_child = std::make_unique<TimedSource>(left, tracer);
      q->timed_parent = std::make_unique<TimedSource>(right, tracer);
      q->timed_child->BindQuery(q->root, i + 1);
      q->timed_parent->BindQuery(q->root, i + 1);
      left = q->timed_child.get();
      right = q->timed_parent.get();
    }
    svc::QueryOptions options;
    options.join.base = q->c->base;
    options.join.num_shards = kShardsPerQuery;
    if (pinned) {
      options.join.base.adaptive.policy = aqp::adaptive::AdaptivePolicy::kPinned;
      options.join.base.adaptive.initial_state =
          aqp::adaptive::ProcessorState::kLexRex;
    }
    if (deadline) options.deadline.hard_deadline_steps = kDeadlineSteps;

    q->start_ns = NowNs();
    SpanScope span(tracer, "service.submit", "service", q->root, i + 1);
    auto id = service_->Submit(left, right, std::move(options));
    if (!id.ok()) {
      q->outcome.error = id.status().ToString();
    } else {
      q->id = *id;
    }
    return q;
  }

  void Complete(InFlight* q, Tracer* tracer, RunRecord* record) {
    QueryOutcome& outcome = q->outcome;
    if (outcome.error.empty()) {
      std::optional<aqp::Result<svc::QueryStats>> stats;
      {
        SpanScope span(tracer, "service.wait", "service", q->root, q->index + 1);
        stats.emplace(service_->Wait(q->id));
      }
      std::optional<aqp::Result<aqp::storage::Relation>> result;
      {
        SpanScope span(tracer, "service.take_result", "service", q->root,
                       q->index + 1);
        result.emplace(service_->TakeResult(q->id));
        span.set_count(result->ok() ? (*result)->size() : 0);
      }
      const int64_t end = NowNs();
      outcome.latency_ns = end - q->start_ns;
      if (!stats->ok()) {
        outcome.error = stats->status().ToString();
      } else if ((*stats)->state != svc::QueryState::kDone) {
        outcome.error = std::string("query ended ") +
                        svc::QueryStateName((*stats)->state) + ": " +
                        (*stats)->status.ToString();
      } else if (!result->ok()) {
        outcome.error = result->status().ToString();
      } else {
        outcome.rows = (*stats)->steps;
        const double elapsed_ms =
            static_cast<double>((*stats)->elapsed.count()) / 1e6;
        record->layers.run_ms.push_back(elapsed_ms);
        record->layers.queue_wait_ms.push_back(
            static_cast<double>(outcome.latency_ns) / 1e6 - elapsed_ms);
        q->c->checker->CheckRelation(**result, &outcome.tally);
        // The whole result arrives at once, so 90% of its true pairs
        // are in hand exactly when TakeResult returns.
        outcome.t90_ns = outcome.tally.true_pairs > 0 ? outcome.latency_ns : -1;
        if (outcome.tally.violations > 0) {
          outcome.error = outcome.tally.first_violation;
        }
      }
      if (tracer != nullptr) {
        Span query;
        query.name = "query";
        query.layer = "query";
        query.id = q->root;
        query.query = q->index + 1;
        query.start_ns = q->start_ns;
        query.end_ns = end;
        query.count = outcome.rows;
        tracer->Record(query);
      }
    }
    record->queries.push_back(std::move(outcome));
  }

  /// A deque keeps each case's address (checkers point into it).
  std::deque<Case> cases_;
  std::unique_ptr<svc::LinkageService> service_;
};

}  // namespace

std::unique_ptr<Workload> MakeServingMix() { return std::make_unique<ServingMix>(); }

}  // namespace linkbench
