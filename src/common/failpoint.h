#ifndef AQP_COMMON_FAILPOINT_H_
#define AQP_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.h"

namespace aqp {
namespace fail {

/// \brief Deterministic fault injection.
///
/// A *failpoint* is a named site compiled into production code paths
/// (`AQP_FAILPOINT(site::kExchangeRoute)`) that normally does nothing,
/// but can be *armed* with a policy from tests: fire on the Nth
/// evaluation, fire once, or fire with a seeded per-site probability —
/// each either returning a configured Status from the enclosing
/// function or throwing an InjectedFault. Arming is process-global, so
/// a chaos harness can inject faults into the middle of a concurrent
/// multi-query run and then assert that the engine tore the faulted
/// query down cleanly while unaffected queries were byte-identical.
///
/// Determinism: the Nth-hit and once policies depend only on the
/// site's evaluation count since arming; the probability policy draws
/// from a per-site SplitMix64 stream seeded at Arm() time, so the same
/// seed yields the same fire/no-fire sequence for the same sequence of
/// evaluations. (Under concurrency the *interleaving* of evaluations
/// across threads may vary; the decision for evaluation #k does not.)
///
/// Cost: with `AQP_ENABLE_FAILPOINTS` undefined the macros compile to
/// nothing. With it defined but no site armed, each site is one
/// relaxed atomic load and a predicted-untaken branch.
///
/// Thread contract: Arm/Disarm/Evaluate are safe from any thread.

/// True iff failpoint sites are compiled into this build (the
/// AQP_ENABLE_FAILPOINTS kill switch; tests skip when false).
#if defined(AQP_ENABLE_FAILPOINTS)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

/// \name Canonical site names.
///
/// Every failpoint threaded through the engine uses one of these
/// constants, and KnownSites() enumerates them — the chaos harness
/// iterates that list, so a new site added here is automatically swept.
/// @{
namespace site {
/// CsvSource::Open (header validation / handle setup).
inline constexpr char kCsvOpen[] = "csv.open";
/// CsvSource batch/row scan entry (a source read error mid-stream).
inline constexpr char kCsvRead[] = "csv.read";
/// RelationScan::NextColumnBatch entry.
inline constexpr char kScanNext[] = "scan.next";
/// RadixExchange::RouteEpoch entry (routing/ingest failure).
inline constexpr char kExchangeRoute[] = "exchange.route";
/// RadixExchange::StageEpoch entry (pipelined route-ahead of the next
/// epoch; fires on the ingest task, so a fault here must discard the
/// staged epoch without touching the committed one).
inline constexpr char kExchangeStage[] = "exchange.stage";
/// ParallelAdaptiveJoin::MergeEpoch entry (coordinator merge).
inline constexpr char kExchangeMerge[] = "exchange.merge";
/// JoinShard::RunBuildPhase entry (phase A worker body; throws).
inline constexpr char kShardPhaseA[] = "shard.phase_a";
/// JoinShard::RunCrossProbePhase entry (phase B worker body; throws).
inline constexpr char kShardPhaseB[] = "shard.phase_b";
/// ThreadPool task body, every dispatched task (throws).
inline constexpr char kPoolTask[] = "pool.task";
/// TupleStore::AddRow (per-row ingest; throws — e.g. simulated
/// allocation failure / resource exhaustion).
inline constexpr char kStoreAdd[] = "store.add";
/// KeyArena::Intern (key-byte arena growth; throws).
inline constexpr char kArenaAlloc[] = "arena.alloc";
/// ParallelAdaptiveJoin::Open, after both children opened (OpenGuard
/// regression surface).
inline constexpr char kParallelOpen[] = "parallel.open";
/// LinkageService runner, right after a query is admitted.
inline constexpr char kServiceAdmit[] = "service.admit";
/// LinkageService runner, at result finalization of a done query.
inline constexpr char kServiceFinalize[] = "service.finalize";
/// ParallelAdaptiveJoin::RefreshMemoryAccounting, evaluated at each
/// epoch control point when the join carries a budget node (a failed
/// charge degrades through the recoverable-fault path).
inline constexpr char kBudgetCharge[] = "budget.charge";
/// LinkageService::Govern, before the heartbeat-guarded control-point
/// hold. Only honored when the query has a stall timeout configured;
/// a throwing policy holds the epoch (simulated stall) until the
/// watchdog force-finalizes the query.
inline constexpr char kWatchdogStall[] = "watchdog.stall";
}  // namespace site

/// All canonical site names above (the chaos matrix).
std::vector<std::string> KnownSites();
/// @}

/// \brief What an armed site does when it fires.
struct Policy {
  enum class Kind {
    /// Fire exactly on the Nth evaluation since arming (1-based).
    kNthHit,
    /// Fire on the first evaluation, then never again.
    kOnce,
    /// Fire each evaluation independently with probability `p`, drawn
    /// from a per-site deterministic stream seeded at Arm().
    kProbability,
  };

  Kind kind = Kind::kOnce;
  /// The injected error. The site name is appended as a breadcrumb
  /// when firing ("site=<name>" context).
  Status status = Status::IOError("injected fault");
  /// Fire by throwing InjectedFault instead of returning the status.
  /// Sites in void contexts (worker task bodies, store ingest) always
  /// throw when fired, whatever this flag says.
  bool throws = false;
  /// kNthHit: the 1-based evaluation count to fire on.
  uint64_t nth = 1;
  /// kProbability: per-evaluation fire probability in [0, 1].
  double probability = 0.0;
  /// kProbability: seed of the site's deterministic stream.
  uint64_t seed = 0;

  static Policy Once(Status s, bool do_throw = false) {
    Policy p;
    p.kind = Kind::kOnce;
    p.status = std::move(s);
    p.throws = do_throw;
    return p;
  }
  static Policy OnNthHit(uint64_t nth, Status s, bool do_throw = false) {
    Policy p;
    p.kind = Kind::kNthHit;
    p.nth = nth == 0 ? 1 : nth;
    p.status = std::move(s);
    p.throws = do_throw;
    return p;
  }
  static Policy WithProbability(double probability, uint64_t seed, Status s,
                                bool do_throw = false) {
    Policy p;
    p.kind = Kind::kProbability;
    p.probability = probability;
    p.seed = seed;
    p.status = std::move(s);
    p.throws = do_throw;
    return p;
  }
};

/// \brief Exception form of a fired failpoint (and of any injected
/// fault crossing a void boundary). The thread pool's containment
/// converts it back into the carried Status.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// \name Registry operations (always available; sites only evaluate
/// when compiled in).
/// @{
/// Arms `site` with `policy`, resetting the site's hit/fire counters.
void Arm(const std::string& site, Policy policy);
/// Disarms `site`; returns true iff it was armed. Counters survive
/// until the next Arm() so tests can inspect them after the run.
bool Disarm(const std::string& site);
/// Disarms every site and clears all counters.
void DisarmAll();
/// Evaluations of `site` since it was last armed.
uint64_t Hits(const std::string& site);
/// Times `site` actually fired since it was last armed.
uint64_t Fires(const std::string& site);
/// @}

/// \name Hot-path entry points (called by the macros).
/// @{
/// True iff any site is armed (one relaxed load).
bool AnyArmed();
/// Evaluates `site`: OK when not armed / not firing; the armed status
/// when firing a returning policy; throws InjectedFault when firing a
/// throwing policy.
Status Check(const char* site);
/// Evaluates `site` in a void context: any fired policy (returning or
/// throwing) becomes an InjectedFault throw.
void CheckOrThrow(const char* site);
/// @}

/// \brief RAII arm/disarm for tests.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string site, Policy policy) : site_(std::move(site)) {
    Arm(site_, std::move(policy));
  }
  ~ScopedFailpoint() { Disarm(site_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string site_;
};

}  // namespace fail
}  // namespace aqp

/// Site macro for Status- or Result-returning contexts: returns the
/// injected status from the enclosing function when the site fires
/// (or propagates the InjectedFault of a throwing policy).
#if defined(AQP_ENABLE_FAILPOINTS)
#define AQP_FAILPOINT(site_name)                                \
  do {                                                          \
    if (__builtin_expect(::aqp::fail::AnyArmed(), 0)) {         \
      ::aqp::Status _aqp_fp = ::aqp::fail::Check(site_name);    \
      if (!_aqp_fp.ok()) return _aqp_fp;                        \
    }                                                           \
  } while (false)
/// Site macro for void contexts (worker bodies, ingest paths): a fired
/// policy of either flavor throws InjectedFault, to be contained at
/// the nearest task/operator boundary.
#define AQP_FAILPOINT_THROW(site_name)                          \
  do {                                                          \
    if (__builtin_expect(::aqp::fail::AnyArmed(), 0)) {         \
      ::aqp::fail::CheckOrThrow(site_name);                     \
    }                                                           \
  } while (false)
#else
#define AQP_FAILPOINT(site_name) \
  do {                           \
  } while (false)
#define AQP_FAILPOINT_THROW(site_name) \
  do {                                 \
  } while (false)
#endif

#endif  // AQP_COMMON_FAILPOINT_H_
