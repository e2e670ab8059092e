#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "adaptive/cost_model.h"

namespace linkbench {

namespace {

constexpr const char* kStateSuffix[aqp::adaptive::kNumProcessorStates] = {
    "lex_rex", "lap_rex", "lex_rap", "lap_rap"};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

/// Steady per-step time of state `s` in microseconds (0 if it never ran
/// an epoch without a transition).
double UsPerStep(const LayerCounters& layers, size_t s) {
  return Ratio(layers.steady_ms[s] * 1e3,
               static_cast<double>(layers.steady_steps[s]));
}

/// Mean catch-up estimate per transition into `s`, in microseconds.
double CatchupUs(const LayerCounters& layers, size_t s) {
  return Ratio(layers.catchup_ms[s] * 1e3,
               static_cast<double>(layers.catchup_n[s]));
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  tail.beyond = std::min<size_t>(10, n / 10);
  tail.value = values[n - 1 - tail.beyond];
  tail.percentile =
      100.0 * (1.0 - static_cast<double>(tail.beyond) / static_cast<double>(n));
  return tail;
}

double MixMedian(const std::map<std::string, std::vector<double>>& by_config) {
  double sum = 0;
  for (const auto& [config, values] : by_config) sum += Median(values);
  return by_config.empty() ? 0.0 : sum / static_cast<double>(by_config.size());
}

void CheckRepeats(RunRecord* record) {
  std::map<std::string, const QueryOutcome*> first;
  for (QueryOutcome& q : record->queries) {
    if (!q.error.empty()) continue;
    auto [it, inserted] = first.emplace(q.config, &q);
    if (inserted) continue;
    const PairTally& a = it->second->tally;
    if (a.emitted != q.tally.emitted || a.true_pairs != q.tally.true_pairs) {
      q.error = "config " + q.config + " emitted " +
                std::to_string(q.tally.emitted) + " pairs (" +
                std::to_string(q.tally.true_pairs) + " true) on a repeat, " +
                std::to_string(a.emitted) + " (" + std::to_string(a.true_pairs) +
                ") on its first run";
    }
  }
}

EndToEnd ComputeEndToEnd(const RunRecord& record,
                         const std::vector<double>& setup_s) {
  EndToEnd e2e;
  e2e.attempted = record.queries.size();
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> config_latency_ms;
  std::map<std::string, std::vector<double>> config_t90_ms;
  double rows = 0;
  double linked = 0;
  std::map<std::string, const QueryOutcome*> first;
  for (const QueryOutcome& q : record.queries) {
    if (!q.error.empty()) {
      ++e2e.failed;
      continue;
    }
    latency_ms.push_back(static_cast<double>(q.latency_ns) / 1e6);
    config_latency_ms[q.config].push_back(latency_ms.back());
    if (q.t90_ns >= 0) {
      config_t90_ms[q.config].push_back(static_cast<double>(q.t90_ns) / 1e6);
    }
    rows += static_cast<double>(q.rows);
    linked += static_cast<double>(q.tally.true_pairs);
    first.emplace(q.config, &q);
  }
  double truth = 0;
  double true_pairs = 0;
  double emitted = 0;
  for (const auto& [config, q] : first) {
    truth += static_cast<double>(q->truth);
    true_pairs += static_cast<double>(q->tally.true_pairs);
    emitted += static_cast<double>(q->tally.emitted);
    e2e.configs.push_back(config + ": " + std::to_string(q->tally.true_pairs) +
                          " true of " + std::to_string(q->tally.emitted) +
                          " emitted, " + std::to_string(q->truth) +
                          " true pairs in the input");
  }
  const double wall_s = static_cast<double>(record.wall_ns) / 1e9;
  e2e.tail = TailOf(latency_ms);
  e2e.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"latency_p50_ms", MixMedian(config_latency_ms), "ms"},
      {"latency_tail_ms", e2e.tail.value, "ms"},
      {"rows_per_s", Ratio(rows, wall_s), "1/s"},
      {"queries_per_s",
       Ratio(static_cast<double>(latency_ms.size()), wall_s), "1/s"},
      {"linked_per_s", Ratio(linked, wall_s), "1/s"},
      {"t90_ms", MixMedian(config_t90_ms), "ms"},
      {"recall", Ratio(true_pairs, truth), "ratio"},
      {"precision", Ratio(true_pairs, emitted), "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"success_ratio",
       Ratio(static_cast<double>(e2e.attempted - e2e.failed),
             static_cast<double>(e2e.attempted)),
       "ratio"},
  };
  return e2e;
}

Metrics ComputePerLayer(const RunRecord& traced, const TraceSummary& trace,
                        double traced_p50_ms, double untraced_p50_ms) {
  const LayerCounters& l = traced.layers;
  auto name_ms = [&](const char* name) {
    auto it = trace.name_ms.find(name);
    return it == trace.name_ms.end() ? 0.0 : it->second;
  };
  auto name_count = [&](const char* name) {
    auto it = trace.name_count.find(name);
    return it == trace.name_count.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto name_calls = [&](const char* name) {
    auto it = trace.name_calls.find(name);
    return it == trace.name_calls.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto self_ms = [&](const char* layer) {
    auto it = trace.self_ms.find(layer);
    return it == trace.self_ms.end() ? 0.0 : it->second;
  };
  const double source_ms = name_ms("exec.source.read");

  Metrics m = {
      {"exec.source.busy_ms", source_ms, "ms"},
      {"exec.source.rows_per_s",
       Ratio(name_count("exec.source.read"), source_ms / 1e3), "1/s"},
      {"parallel.ingest.stall_ms", l.ingest_stall_ms, "ms"},
      {"parallel.ingest.overlap_route_ms", l.ingest_overlap_route_ms, "ms"},
      {"parallel.ingest.serial_route_ms", l.ingest_serial_route_ms, "ms"},
      {"parallel.ingest.epochs_staged",
       static_cast<double>(l.ingest_epochs_staged), "count"},
      {"parallel.epochs", static_cast<double>(l.epoch_us.size()), "count"},
      {"parallel.epoch_p50_us", Median(l.epoch_us), "us"},
      {"parallel.epoch_max_us", Max(l.epoch_us), "us"},
      {"parallel.engine_wait_ms", name_ms("parallel.next_match_refs"), "ms"},
      {"parallel.shard_skew",
       Ratio(l.shard_skew_sum, static_cast<double>(l.shard_skew_n)), "ratio"},
      {"join.probe.postings_scanned", static_cast<double>(l.postings_scanned),
       "count"},
      {"join.probe.candidates", static_cast<double>(l.candidates), "count"},
      {"join.probe.verified", static_cast<double>(l.verified), "count"},
      {"join.probe.matches", static_cast<double>(l.matches), "count"},
      {"join.probe.candidate_yield",
       Ratio(static_cast<double>(l.verified), static_cast<double>(l.candidates)),
       "ratio"},
      {"join.probe.verify_yield",
       Ratio(static_cast<double>(l.matches), static_cast<double>(l.verified)),
       "ratio"},
      {"join.pairs.exact", static_cast<double>(l.pairs_exact), "count"},
      {"join.pairs.approx", static_cast<double>(l.pairs_approx), "count"},
  };
  for (size_t s = 0; s < aqp::adaptive::kNumProcessorStates; ++s) {
    const std::string suffix = kStateSuffix[s];
    m.push_back({"adaptive.steps." + suffix, static_cast<double>(l.steps[s]),
                 "count"});
    m.push_back({"adaptive.time_ms." + suffix, l.time_ms[s], "ms"});
    m.push_back({"adaptive.us_per_step." + suffix, UsPerStep(l, s), "us"});
    m.push_back({"adaptive.catchup_us." + suffix, CatchupUs(l, s), "us"});
  }
  const Metrics tail = {
      {"adaptive.transitions", static_cast<double>(l.transitions), "count"},
      {"adaptive.catchup_tuples", static_cast<double>(l.catchup_tuples), "count"},
      {"adaptive.sigma_count", static_cast<double>(l.sigma_count), "count"},
      {"stats.model_gap",
       Ratio(l.model_gap_sum, static_cast<double>(l.model_gap_n)), "ratio"},
      {"storage.materialize_ms", name_ms("storage.materialize"), "ms"},
      {"storage.materialize_ns_per_row",
       Ratio(name_ms("storage.materialize") * 1e6,
             name_count("storage.materialize")),
       "ns"},
      {"storage.engine_peak_mb", l.engine_peak_mb, "MB"},
      {"service.queue_wait_ms_p50", Median(l.queue_wait_ms), "ms"},
      {"service.run_ms_p50", Median(l.run_ms), "ms"},
      {"service.submit_us",
       Ratio(name_ms("service.submit") * 1e3, name_calls("service.submit")),
       "us"},
      {"service.take_result_ms",
       Ratio(name_ms("service.take_result"), name_calls("service.take_result")),
       "ms"},
      {"service.peak_running", static_cast<double>(l.peak_running), "count"},
      {"service.admitted_total", static_cast<double>(l.admitted_total), "count"},
      {"service.released_total", static_cast<double>(l.released_total), "count"},
      {"self_ms.query", self_ms("query"), "ms"},
      {"self_ms.exec", self_ms("exec"), "ms"},
      {"self_ms.parallel", self_ms("parallel"), "ms"},
      {"self_ms.storage", self_ms("storage"), "ms"},
      {"self_ms.service", self_ms("service"), "ms"},
      {"trace.spans", static_cast<double>(trace.spans), "count"},
      {"trace.query_coverage", trace.query_coverage, "ratio"},
      {"trace.overhead_latency_p50_ms", traced_p50_ms - untraced_p50_ms, "ms"},
      {"trace.overhead_pct",
       100.0 * Ratio(traced_p50_ms - untraced_p50_ms, untraced_p50_ms), "%"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

std::vector<std::string> PaperGrounding(const LayerCounters& layers) {
  const aqp::adaptive::StateWeights paper = aqp::adaptive::StateWeights::Paper();
  const double ee_us = UsPerStep(layers, 0);
  std::vector<std::string> lines = {
      "paper grounding (normalized to the measured lex/rex step, " +
      Number(ee_us) + " us):",
      "  state    w measured  w paper   v measured  v paper   transitions"};
  for (size_t s = 0; s < aqp::adaptive::kNumProcessorStates; ++s) {
    char line[160];
    const bool has_w = layers.steady_steps[s] > 0 && ee_us > 0;
    const bool has_v = ee_us > 0 && layers.catchup_n[s] > 0;
    std::snprintf(line, sizeof(line), "  %-8s %10s  %8.2f  %10s  %8.2f  %llu",
                  kStateSuffix[s],
                  has_w ? Number(UsPerStep(layers, s) / ee_us).c_str() : "n/a",
                  paper.step[s],
                  has_v ? Number(CatchupUs(layers, s) / ee_us).c_str() : "n/a",
                  paper.transition[s],
                  static_cast<unsigned long long>(layers.entries[s]));
    lines.push_back(line);
  }
  lines.push_back(
      "  w: epoch wall time per step over epochs without a transition; v: "
      "an entry epoch's time beyond its steps at the next epoch's rate");
  return lines;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace linkbench
