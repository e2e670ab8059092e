// linkbench: the repository's linkage benchmark.
//
//   linkbench --workload <exact_bulk|paper_mar|serving_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// Builds the workload's inputs from the seed (repeatedly, before and after
// the measured loop, reporting the median set-up time), runs its closed loop for the given seconds, checks
// every emitted pair, and prints the end-to-end metrics as the last line
// of standard output. With --trace 1 it then runs the loop a second time
// with spans recorded around every call into a layer, prints the
// per-layer metrics instead, and writes the spans to
// <spans-dir>/spans-<workload>-<seed>.json. Exits non-zero when any
// query failed or returned a wrong pair, and refuses to run from a
// non-Release build.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "common/failpoint.h"
#include "report.h"
#include "trace.h"
#include "workload.h"

namespace {

using namespace linkbench;  // NOLINT

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) return false;
    } else if (key == "--spans-dir") {
      args->spans_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "exact_bulk") return MakeExactBulk();
  if (name == "paper_mar") return MakePaperMar();
  if (name == "serving_mix") return MakeServingMix();
  return nullptr;
}

/// Set-ups per timing window: at least kMinSetups, and more until the
/// window has passed (cheap set-ups get a steadier median), at most
/// kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr int64_t kSetupWindowNs = 1'000'000'000;

/// Builds the workload's inputs at least `min_runs` times and until
/// `window_ns` has passed, appending each set-up's seconds to `*times`.
bool SetUp(Workload* workload, uint64_t seed, int min_runs, int64_t window_ns,
           std::vector<double>* times) {
  const int64_t window_start = NowNs();
  for (int i = 0; i < min_runs ||
                  (i < kMaxSetups && NowNs() - window_start < window_ns);
       ++i) {
    const int64_t start = NowNs();
    aqp::Status status = workload->Setup(seed);
    times->push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) {
      std::cerr << "linkbench: set-up failed: " << status.ToString() << "\n";
      return false;
    }
  }
  return true;
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: linkbench --workload <exact_bulk|paper_mar|"
                 "serving_mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-dir <dir>]\n";
    return 2;
  }
  if (!kNdebug || std::strcmp(LINKBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "linkbench: refusing to report numbers from a non-Release "
                 "build (build type '" LINKBENCH_BUILD_TYPE "', NDEBUG "
              << (kNdebug ? "defined" : "undefined") << ")\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = Make(args.workload);
  if (!workload) {
    std::cerr << "linkbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  const std::string provenance =
      "{\"workload\": " + JsonString(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + std::to_string(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": " + JsonString(LINKBENCH_BUILD_TYPE) +
      ", \"ndebug\": " + (kNdebug ? "true" : "false") +
      ", \"failpoints_compiled_in\": " +
      (aqp::fail::kCompiledIn ? "true" : "false") +
      ", \"shards\": " + std::to_string(workload->shards()) +
      ", \"workers\": " + std::to_string(workload->workers()) + "}";
  std::cout << "provenance " << provenance << "\n";

  // Set-up: every input built from the seed, timed in two windows, before
  // and after the measured loop. The host's speed drifts over seconds, so
  // one window would report whichever state it happened to hit.
  std::vector<double> setup_s;
  if (!SetUp(workload.get(), args.seed, args.trace ? 1 : kMinSetups,
             args.trace ? 0 : kSetupWindowNs, &setup_s)) {
    return 1;
  }

  RunRecord run = workload->Run(args.seconds, nullptr);
  if (!args.trace &&
      !SetUp(workload.get(), args.seed, kMinSetups, kSetupWindowNs, &setup_s)) {
    return 1;
  }
  CheckRepeats(&run);
  const EndToEnd e2e = ComputeEndToEnd(run, setup_s);
  std::vector<std::string> balance = run.balance_errors;
  size_t attempted = e2e.attempted;
  size_t failed = e2e.failed;

  std::cout << "setup_s samples:";
  for (double s : setup_s) std::cout << " " << s;
  std::cout << "\nqueries " << e2e.attempted << " attempted, " << e2e.failed
            << " failed; latency tail at p" << e2e.tail.percentile << " with "
            << e2e.tail.beyond << " samples beyond, of "
            << (e2e.attempted - e2e.failed) << "\n";
  for (const std::string& line : e2e.configs) std::cout << "  " << line << "\n";

  Metrics reported = e2e.metrics;
  if (args.trace) {
    Tracer tracer;
    RunRecord traced = workload->Run(args.seconds, &tracer);
    CheckRepeats(&traced);
    const EndToEnd traced_e2e = ComputeEndToEnd(traced, setup_s);
    attempted += traced_e2e.attempted;
    failed += traced_e2e.failed;
    balance.insert(balance.end(), traced.balance_errors.begin(),
                   traced.balance_errors.end());
    const std::vector<Span> spans = tracer.Collect();
    const TraceSummary summary = Analyze(spans);
    auto p50 = [](const EndToEnd& run) {
      for (const Metric& m : run.metrics) {
        if (m.name == "latency_p50_ms") return m.value;
      }
      return 0.0;
    };
    reported = ComputePerLayer(traced, summary, p50(traced_e2e), p50(e2e));
    const std::string path = args.spans_dir + "/spans-" + args.workload +
                             "-" + std::to_string(args.seed) + ".json";
    if (!WriteSpans(path, spans, provenance)) {
      std::cerr << "linkbench: cannot write " << path << "\n";
      return 1;
    }
    std::cout << "spans: " << spans.size() << " written to " << path << "\n"
              << "layer self time (ms):";
    for (const auto& [layer, ms] : summary.self_ms) {
      std::cout << " " << layer << "=" << ms;
    }
    std::cout << "\nquery wall time covered by spans: "
              << 100.0 * summary.query_coverage << "%\n"
              << "tracing overhead (traced minus untraced end to end):";
    for (size_t i = 0; i < e2e.metrics.size(); ++i) {
      std::cout << " " << e2e.metrics[i].name << "="
                << traced_e2e.metrics[i].value - e2e.metrics[i].value;
    }
    std::cout << "\n";
    if (args.workload == "paper_mar") {
      for (const std::string& line : PaperGrounding(traced.layers)) {
        std::cout << line << "\n";
      }
    }
    for (const std::string& line : traced.notes) std::cout << line << "\n";
    for (const QueryOutcome& q : traced.queries) {
      if (!q.error.empty()) std::cout << "traced query failed: " << q.error << "\n";
    }
  }
  for (const QueryOutcome& q : run.queries) {
    if (!q.error.empty()) std::cout << "query failed: " << q.error << "\n";
  }
  for (const std::string& line : balance) std::cout << "balance check failed: " << line << "\n";

  const bool correct = failed == 0 && balance.empty();
  std::cout << ResultLine(correct, attempted, failed, reported) << std::endl;
  return correct ? 0 : 1;
}
