#ifndef LINKBENCH_TRACE_H_
#define LINKBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace linkbench {

/// Steady-clock nanoseconds.
int64_t NowNs();

/// One timed call from the benchmark into a layer. `name` and `layer`
/// are string literals. Spans of one query share `query`; `parent` is
/// the span that was open on the same thread when this one began, or
/// the query's root span for work a pool thread did on its behalf.
struct Span {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
  /// Work counted at the same boundary (rows, refs, steps).
  uint64_t count = 0;
  uint32_t thread = 0;
};

/// In-memory span recorder. Each thread appends to its own buffer, so
/// pool threads record without contention; the buffers are read only
/// after the run, when every recording thread is idle or gone.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Appends to the calling thread's buffer.
  void Record(const Span& span);
  /// Innermost span open on the calling thread (0 if none).
  static uint64_t Current();
  static void Push(uint64_t id);
  static void Pop();

  /// Every span recorded so far, by start time.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// Times one call: opens at construction, records at destruction. The
/// parent is the innermost open span on this thread, else `fallback`.
/// A null tracer makes every member a no-op (no clock reads).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, const char* layer,
            uint64_t fallback_parent, uint64_t query);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_count(uint64_t count) { span_.count = count; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Operator decorator that times every child NextColumnBatch as an
/// `exec.source.read` span. The parallel join calls it from its ingest
/// task on pool threads as well as from the coordinator.
class TimedSource : public aqp::exec::Operator {
 public:
  TimedSource(aqp::exec::Operator* child, Tracer* tracer)
      : child_(child), tracer_(tracer) {}

  /// Root span and id of the query the next reads belong to.
  void BindQuery(uint64_t root_span, uint64_t query) {
    root_span_ = root_span;
    query_ = query;
  }

  aqp::Status Open() override { return child_->Open(); }
  aqp::Result<std::optional<aqp::storage::Tuple>> Next() override;
  aqp::Status NextColumnBatch(aqp::storage::ColumnBatch* out) override;
  aqp::Status Close() override { return child_->Close(); }
  const aqp::storage::Schema& output_schema() const override {
    return child_->output_schema();
  }
  bool quiescent() const override { return child_->quiescent(); }
  std::string name() const override { return "TimedSource"; }

 private:
  aqp::exec::Operator* child_;
  Tracer* tracer_;
  uint64_t root_span_ = 0;
  uint64_t query_ = 0;
};

/// What the spans say about a run.
struct TraceSummary {
  /// Per layer: Σ over its spans of duration minus the part covered by
  /// same-thread child spans, in milliseconds.
  std::map<std::string, double> self_ms;
  /// Per span name: Σ duration (ms), Σ counts, and number of spans.
  std::map<std::string, double> name_ms;
  std::map<std::string, uint64_t> name_count;
  std::map<std::string, uint64_t> name_calls;
  /// Mean over query spans of the share of the query's wall time its
  /// same-thread child spans cover.
  double query_coverage = 0.0;
  size_t spans = 0;
};

/// Self time, totals and coverage. Query root spans have layer "query".
TraceSummary Analyze(const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace-event JSON file (loadable in
/// chrome://tracing or Perfetto); `metadata` is a JSON object stored
/// under "otherData". Returns false on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::string& metadata);

}  // namespace linkbench

#endif  // LINKBENCH_TRACE_H_
