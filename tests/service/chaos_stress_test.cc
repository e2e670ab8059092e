// Chaos harness: a 10-query mixed burst (every policy flavor, 1-3
// shards each) runs against a seeded fault matrix — every failpoint
// site armed, across the Once / OnNthHit / WithProbability policies and
// three seeds per policy. Whatever fires, the service must stay sane:
//
//   * no deadlock — every Wait() returns (the CI timeout is the
//     enforcement backstop);
//   * no budget leak — after each burst the admission counters are
//     balanced and no shards remain in use;
//   * fault isolation — a query untouched by any fault is byte-
//     identical to its solo run;
//   * graceful degradation — a faulted query is terminal in `failed`,
//     or in `done` with a strict-prefix partial result plus a
//     FaultReport when it opted into kFinalizePartial.
//
// Runs under both ASan (leak check on) and TSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "service/linkage_service.h"

namespace aqp {
namespace service {
namespace {

using exec::parallel::FaultPolicy;
using exec::parallel::ParallelAdaptiveJoin;
using exec::parallel::ParallelJoinOptions;

const datagen::TestCase& ChaosCase() {
  static const datagen::TestCase* tc = [] {
    datagen::TestCaseOptions options;
    options.pattern = datagen::PerturbationPattern::kUniform;
    options.perturb_parent = true;
    options.variant_rate = 0.15;
    options.atlas.size = 300;
    options.accidents.size = 600;
    options.seed = 42;
    auto generated = datagen::GenerateTestCase(options);
    EXPECT_TRUE(generated.ok());
    return new datagen::TestCase(std::move(*generated));
  }();
  return *tc;
}

ParallelJoinOptions MakeOptions(const datagen::TestCase& tc, size_t flavor) {
  ParallelJoinOptions options;
  options.base.join.spec.left_column = datagen::kAccidentsLocationColumn;
  options.base.join.spec.right_column = datagen::kAtlasLocationColumn;
  options.base.join.spec.sim_threshold = 0.85;
  options.base.adaptive.parent_side = exec::Side::kRight;
  options.base.adaptive.parent_table_size = tc.parent.size();
  options.base.adaptive.delta_adapt = 50;
  options.base.adaptive.window = 50;
  options.num_shards = 1 + flavor % 3;
  // Even flavors force the pipelined ingest path on regardless of the
  // AQP_PIPELINE_INGEST environment override, so the exchange.stage
  // site is exercised in every CI flavor; odd flavors keep the
  // process default (serial in the pipeline-off ctest flavor).
  if (flavor % 2 == 0) options.pipeline_ingest = true;
  switch (flavor % 4) {
    case 0:  // full adaptive
      break;
    case 1:
      options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
      options.base.adaptive.initial_state =
          adaptive::ProcessorState::kLexRex;
      break;
    case 2:
      options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
      options.base.adaptive.initial_state =
          adaptive::ProcessorState::kLapRap;
      break;
    case 3:
      options.base.adaptive.policy = adaptive::AdaptivePolicy::kScripted;
      options.base.adaptive.script = {
          {100, adaptive::ProcessorState::kLapRex},
          {250, adaptive::ProcessorState::kLapRap},
          {600, adaptive::ProcessorState::kLexRex},
      };
      break;
  }
  return options;
}

/// The status a site injects. Scan/CSV sites inject kUnavailable so the
/// bounded source retry also gets exercised by the matrix; everything
/// else injects a plain (recoverable) IO error.
Status InjectedStatus(const std::string& site) {
  if (site == fail::site::kScanNext || site == fail::site::kCsvRead ||
      site == fail::site::kCsvOpen) {
    return Status::Unavailable("injected fault");
  }
  return Status::IOError("injected fault");
}

/// Arms every known site under one policy kind, parameters derived
/// deterministically from (seed, site index).
void ArmMatrix(int policy_kind, uint64_t seed) {
  const std::vector<std::string> sites = fail::KnownSites();
  for (size_t i = 0; i < sites.size(); ++i) {
    const Status injected = InjectedStatus(sites[i]);
    switch (policy_kind) {
      case 0:
        fail::Arm(sites[i], fail::Policy::Once(injected));
        break;
      case 1:
        fail::Arm(sites[i], fail::Policy::OnNthHit(
                                3 + (i + seed) % 8, injected));
        break;
      default:
        fail::Arm(sites[i], fail::Policy::WithProbability(
                                0.01, seed * 131 + i, injected));
        break;
    }
  }
}

TEST(ChaosStressTest, SeededFaultMatrixKeepsTheServiceSane) {
  if (!fail::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (AQP_ENABLE_FAILPOINTS off)";
  }
  fail::DisarmAll();
  const datagen::TestCase& tc = ChaosCase();
  constexpr size_t kQueries = 10;

  // Solo references per flavor — computed BEFORE any site is armed
  // (the failpoint registry is process-global).
  std::map<size_t, storage::Relation> references;
  for (size_t flavor = 0; flavor < 4; ++flavor) {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelAdaptiveJoin join(&child, &parent, MakeOptions(tc, flavor));
    auto result = exec::CollectAll(&join);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    references.emplace(flavor, std::move(*result));
  }

  size_t bursts = 0, faulted = 0, degraded = 0, clean = 0, rejected = 0;
  for (int policy_kind = 0; policy_kind < 3; ++policy_kind) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << "policy " << policy_kind
                                      << " seed " << seed);
      ++bursts;
      ServiceOptions so;
      so.worker_threads = 2;
      so.admission.max_concurrent_queries = 3;
      so.admission.max_total_shards = 6;
      LinkageService service(so);

      ArmMatrix(policy_kind, seed);
      std::vector<std::unique_ptr<exec::Operator>> scans;
      std::vector<QueryId> ids(kQueries, 0);
      std::vector<bool> submitted(kQueries, false);
      for (size_t i = 0; i < kQueries; ++i) {
        scans.push_back(std::make_unique<exec::RelationScan>(&tc.child));
        scans.push_back(std::make_unique<exec::RelationScan>(&tc.parent));
        QueryOptions qo;
        qo.join = MakeOptions(tc, i);
        // Half the burst opts into graceful degradation; a third gets
        // transient-source retries.
        if (i % 2 == 1) qo.join.on_fault = FaultPolicy::kFinalizePartial;
        if (i % 3 == 0) qo.join.source_retry.max_retries = 2;
        auto id = service.Submit(scans[scans.size() - 2].get(),
                                 scans[scans.size() - 1].get(), qo);
        if (!id.ok()) {
          // The service.admit site fired: rejection before admission is
          // a legal terminal outcome — and must not cost any budget.
          EXPECT_NE(id.status().message().find("site=service.admit"),
                    std::string::npos)
              << id.status();
          ++rejected;
          continue;
        }
        ids[i] = *id;
        submitted[i] = true;
      }

      for (size_t i = 0; i < kQueries; ++i) {
        if (!submitted[i]) continue;
        SCOPED_TRACE(testing::Message() << "query " << i);
        auto stats = service.Wait(ids[i]);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        ASSERT_TRUE(IsTerminalState(stats->state));
        if (stats->state == QueryState::kFailed) {
          // Faulted hard: the terminal status is the injected (or
          // derived) error, breadcrumbed with the query id.
          ++faulted;
          EXPECT_FALSE(stats->status.ok());
          EXPECT_NE(stats->status.message().find(
                        "query=" + std::to_string(ids[i])),
                    std::string::npos)
              << stats->status;
          EXPECT_FALSE(service.TakeResult(ids[i]).ok());
          continue;
        }
        ASSERT_EQ(stats->state, QueryState::kDone)
            << stats->status.ToString();
        auto result = service.TakeResult(ids[i]);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const storage::Relation& reference = references.at(i % 4);
        if (stats->finalized_early) {
          // Degraded: done with a prefix partial result + FaultReport.
          ++degraded;
          ASSERT_TRUE(stats->fault.has_value());
          EXPECT_FALSE(stats->fault->status.ok());
          // Injected faults always carry a site breadcrumb, and the
          // reported step count is the published one: every counted
          // step belongs to a committed epoch of the delivered prefix.
          EXPECT_FALSE(stats->fault->site.empty());
          EXPECT_EQ(stats->fault->step, stats->steps);
          EXPECT_GE(stats->completeness.ratio, 0.0);
          EXPECT_LE(stats->completeness.ratio, 1.0);
          ASSERT_LE(result->size(), reference.size());
          for (size_t r = 0; r < result->size(); ++r) {
            ASSERT_EQ(result->row(r), reference.row(r)) << "row " << r;
          }
        } else {
          // Untouched (or transparently retried): byte-identical to
          // the solo run.
          ++clean;
          EXPECT_FALSE(stats->fault.has_value());
          ASSERT_EQ(result->size(), reference.size());
          for (size_t r = 0; r < result->size(); ++r) {
            ASSERT_EQ(result->row(r), reference.row(r)) << "row " << r;
          }
        }
      }

      fail::DisarmAll();
      // Budget-leak invariant: whatever mix of outcomes the burst had,
      // the service is quiescent and every admit was released.
      EXPECT_EQ(service.running_queries(), 0u);
      EXPECT_EQ(service.queued_queries(), 0u);
      EXPECT_EQ(service.shards_in_use(), 0u);
      EXPECT_EQ(service.admitted_total(), service.released_total());
    }
  }

  // The matrix actually bit: across 9 bursts x 10 queries, faults
  // fired and at least one query of every terminal shape showed up.
  EXPECT_EQ(bursts, 9u);
  EXPECT_GT(faulted + degraded + rejected, 0u);
  EXPECT_GT(clean, 0u);
}

TEST(ChaosStressTest, MemoryPressureBurstTerminatesEveryQueryWithoutLeaks) {
  // The memory-pressure flavor: a 10-query burst against a global
  // high-water deliberately below the burst's aggregate peak, with a
  // third of the queries under a per-query hard budget of half their
  // own natural footprint. Needs no failpoints — pressure is the
  // chaos. Invariants:
  //   * every query terminal (done, possibly partial; or shed at
  //     submission with kResourceExhausted);
  //   * a hard-budgeted query finalizes early, and when the per-query
  //     budget is what tripped, its recorded peak stayed at or under
  //     the budget (the predictive bound);
  //   * partials are strict prefixes of the ungoverned reference;
  //   * no budget-counter leak: admission balanced, the governor's
  //     global aggregate back to zero.
  const datagen::TestCase& tc = ChaosCase();
  constexpr size_t kQueries = 10;

  // Calibrate each flavor solo under an unlimited budget tree: its
  // natural peak, and its footprint at the *first* control point —
  // the un-governable floor (the symmetric stores' upfront
  // reservations land before any budget decision can run). A
  // meaningful hard budget sits between the two; below the floor the
  // recorded peak is the floor, not the budget.
  std::map<size_t, storage::Relation> references;
  uint64_t flavor_floor[4] = {0, 0, 0, 0};
  uint64_t flavor_peak[4] = {0, 0, 0, 0};
  uint64_t flavor_budget[4] = {0, 0, 0, 0};
  uint64_t max_peak = 0;
  for (size_t flavor = 0; flavor < 4; ++flavor) {
    mem::BudgetNode root("calibrate");
    {
      mem::BudgetNode query("query", &root);
      exec::RelationScan child(&tc.child);
      exec::RelationScan parent(&tc.parent);
      ParallelJoinOptions options = MakeOptions(tc, flavor);
      options.memory_budget = &query;
      uint64_t first_cp = 0;
      options.governor = [&](const exec::parallel::EpochView& view) {
        if (first_cp == 0) first_cp = view.memory_bytes;
        return exec::parallel::EpochDirective::kProceed;
      };
      ParallelAdaptiveJoin join(&child, &parent, options);
      auto result = exec::CollectAll(&join);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      references.emplace(flavor, std::move(*result));
      flavor_floor[flavor] = first_cp;
      flavor_peak[flavor] = std::max(root.peak(), join.memory_bytes());
    }
    ASSERT_GT(flavor_floor[flavor], 0u);
    ASSERT_GT(flavor_peak[flavor], flavor_floor[flavor]);
    // Midway between floor and peak: unfinishable, yet above the floor
    // so the predictive bound can keep the recorded peak under it.
    flavor_budget[flavor] =
        flavor_floor[flavor] +
        (flavor_peak[flavor] - flavor_floor[flavor]) / 2;
    max_peak = std::max(max_peak, flavor_peak[flavor]);
  }

  // Global line at 1.5x one query's peak: three concurrent queries
  // overshoot it, so admission holds, sheds, or pressure-reclaims.
  ServiceOptions so;
  so.worker_threads = 2;
  so.admission.max_concurrent_queries = 3;
  so.admission.max_total_shards = 6;
  so.admission.global_memory_high_water_bytes = max_peak + max_peak / 2;
  so.governor.finalize_youngest_on_pressure = true;
  so.governor.poll_interval = std::chrono::milliseconds(2);
  LinkageService service(so);

  std::vector<std::unique_ptr<exec::RelationScan>> scans;
  std::vector<QueryId> ids(kQueries, 0);
  std::vector<bool> submitted(kQueries, false);
  size_t shed = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    scans.push_back(std::make_unique<exec::RelationScan>(&tc.child));
    scans.push_back(std::make_unique<exec::RelationScan>(&tc.parent));
    QueryOptions qo;
    qo.join = MakeOptions(tc, i);
    // A third of the burst gets a hard budget it cannot finish under.
    const bool hard_budgeted = i % 3 == 2;
    if (hard_budgeted) qo.memory.hard_bytes = flavor_budget[i % 4];
    auto id = service.Submit(scans[scans.size() - 2].get(),
                             scans[scans.size() - 1].get(), qo);
    if (!id.ok()) {
      EXPECT_TRUE(id.status().IsResourceExhausted()) << id.status();
      EXPECT_NE(id.status().ToString().find("global.high_water"),
                std::string::npos);
      ++shed;
      continue;
    }
    ids[i] = *id;
    submitted[i] = true;
  }

  size_t full = 0, partial = 0, hard_submitted = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    if (!submitted[i]) continue;
    SCOPED_TRACE(testing::Message() << "query " << i);
    auto stats = service.Wait(ids[i]);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(IsTerminalState(stats->state));
    // No faults are armed: pressure degrades, it never fails a query.
    ASSERT_EQ(stats->state, QueryState::kDone) << stats->status.ToString();
    auto result = service.TakeResult(ids[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const storage::Relation& reference = references.at(i % 4);
    ASSERT_LE(result->size(), reference.size());
    for (size_t r = 0; r < result->size(); ++r) {
      ASSERT_EQ(result->row(r), reference.row(r)) << "row " << r;
    }
    if (i % 3 == 2) {
      // Half its own peak is not survivable: governance intervened,
      // well before the run could finish.
      ++hard_submitted;
      EXPECT_TRUE(stats->finalized_early);
      EXPECT_LT(result->size(), reference.size());
      ASSERT_TRUE(stats->resource.has_value());
      if (stats->resource->site == resource_site::kQueryHardBudget) {
        EXPECT_EQ(stats->resource->budget_bytes, flavor_budget[i % 4]);
        // The predictive hard bound: the recorded peak never
        // overshot the budget it was protecting.
        EXPECT_LE(stats->resource->peak_bytes,
                  stats->resource->budget_bytes);
      } else {
        // Pressure reclaim beat the per-query budget to it.
        EXPECT_EQ(stats->resource->site, resource_site::kGlobalHighWater);
      }
    }
    if (stats->finalized_early) {
      ++partial;
    } else {
      // A reclaim flag that landed after the query's last control
      // point leaves a report but no truncation; the result is still
      // the full one.
      ++full;
      EXPECT_EQ(result->size(), reference.size());
    }
  }

  // The burst actually ran under pressure: every hard-budgeted query
  // that got in was cut to a partial, and nothing was lost — each of
  // the ten submissions is accounted full, partial, or shed.
  EXPECT_GE(partial, hard_submitted);
  EXPECT_EQ(full + partial + shed, kQueries);
  EXPECT_EQ(service.memory_shed_total(), shed);
  // Budget-counter leak check: quiescent service, balanced admission,
  // nothing left charged under the global root.
  EXPECT_EQ(service.running_queries(), 0u);
  EXPECT_EQ(service.queued_queries(), 0u);
  EXPECT_EQ(service.shards_in_use(), 0u);
  EXPECT_EQ(service.admitted_total(), service.released_total());
  EXPECT_EQ(service.governor()->used(), 0u);
  EXPECT_GT(service.governor()->peak(), 0u);
}

TEST(ChaosStressTest, BackToBackBurstsOnOneServiceStayClean) {
  // Same service instance across waves with different sites armed:
  // sticky per-query errors must not bleed into later waves.
  if (!fail::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (AQP_ENABLE_FAILPOINTS off)";
  }
  fail::DisarmAll();
  const datagen::TestCase& tc = ChaosCase();
  ServiceOptions so;
  so.worker_threads = 2;
  so.admission.max_concurrent_queries = 2;
  so.admission.max_total_shards = 4;
  LinkageService service(so);

  const std::vector<std::string> wave_sites = {
      fail::site::kShardPhaseA, fail::site::kExchangeRoute,
      fail::site::kExchangeStage, fail::site::kServiceFinalize};
  for (size_t wave = 0; wave < wave_sites.size(); ++wave) {
    SCOPED_TRACE(testing::Message() << "wave " << wave);
    fail::Arm(wave_sites[wave],
              fail::Policy::OnNthHit(4, Status::IOError("injected fault"),
                                     /*do_throw=*/wave == 0));
    std::vector<std::unique_ptr<exec::RelationScan>> scans;
    std::vector<QueryId> ids;
    for (size_t i = 0; i < 4; ++i) {
      scans.push_back(std::make_unique<exec::RelationScan>(&tc.child));
      scans.push_back(std::make_unique<exec::RelationScan>(&tc.parent));
      QueryOptions qo;
      qo.join = MakeOptions(tc, i);
      if (i % 2 == 1) qo.join.on_fault = FaultPolicy::kFinalizePartial;
      auto id = service.Submit(scans[scans.size() - 2].get(),
                               scans[scans.size() - 1].get(), qo);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(*id);
    }
    for (QueryId id : ids) {
      auto stats = service.Wait(id);
      ASSERT_TRUE(stats.ok());
      ASSERT_TRUE(IsTerminalState(stats->state));
    }
    fail::DisarmAll();
    EXPECT_EQ(service.shards_in_use(), 0u);
    EXPECT_EQ(service.admitted_total(), service.released_total());
  }

  // After the chaos, an unarmed wave completes clean.
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  QueryOptions qo;
  qo.join = MakeOptions(tc, 0);
  auto id = service.Submit(&child, &parent, qo);
  ASSERT_TRUE(id.ok());
  auto stats = service.Wait(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, QueryState::kDone) << stats->status.ToString();
  EXPECT_FALSE(stats->fault.has_value());
}

}  // namespace
}  // namespace service
}  // namespace aqp
