#ifndef LINKBENCH_REPORT_H_
#define LINKBENCH_REPORT_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace linkbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The highest percentile with at least 10 samples beyond it: the 11th
/// largest value, at percentile 100·(1 − 10/n). Below 100 samples that
/// would fall under p90, so the value with n/10 samples beyond it is
/// reported instead (the maximum below 10 samples); `beyond` says which.
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> values);

/// Mean over configs of each config's median. A workload that mixes
/// configs of different cost has a multi-modal latency distribution whose
/// plain median falls between the modes and jumps with small shifts;
/// this is the median query of each config, weighted as the mix is.
double MixMedian(const std::map<std::string, std::vector<double>>& by_config);

/// Marks as failed every repeat of a config whose emitted or true pair
/// count differs from the config's first run: each config's output is
/// deterministic, so a difference is a wrong result.
void CheckRepeats(RunRecord* record);

/// End-to-end metrics of an untraced run.
struct EndToEnd {
  Metrics metrics;
  size_t attempted = 0;
  size_t failed = 0;
  Tail tail;
  /// Per config: "config: true/emitted/truth" lines for the report.
  std::vector<std::string> configs;
};
EndToEnd ComputeEndToEnd(const RunRecord& record,
                         const std::vector<double>& setup_s);

/// Per-layer metrics of a traced run; the overhead compares the traced
/// and untraced latency_p50_ms.
Metrics ComputePerLayer(const RunRecord& traced, const TraceSummary& trace,
                        double traced_p50_ms, double untraced_p50_ms);

/// The paper-grounding lines: measured w and catch-up v, normalized to
/// the lex/rex step time, next to the paper's vectors.
std::vector<std::string> PaperGrounding(const LayerCounters& layers);

/// One JSON object: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const Metrics& metrics);

/// JSON string literal of `s`.
std::string JsonString(const std::string& s);

}  // namespace linkbench

#endif  // LINKBENCH_REPORT_H_
