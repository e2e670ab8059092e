#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <string_view>
#include <unordered_map>

namespace linkbench {

namespace {

thread_local const Tracer* tl_owner = nullptr;
thread_local void* tl_buffer = nullptr;
thread_local std::vector<uint64_t> tl_open;

/// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (tl_owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<uint32_t>(buffers_.size());
    tl_owner = this;
    tl_buffer = buffers_.back().get();
  }
  return static_cast<Buffer*>(tl_buffer);
}

void Tracer::Record(const Span& span) {
  Buffer* buffer = ThreadBuffer();
  buffer->spans.push_back(span);
  buffer->spans.back().thread = buffer->thread;
}

uint64_t Tracer::Current() { return tl_open.empty() ? 0 : tl_open.back(); }
void Tracer::Push(uint64_t id) { tl_open.push_back(id); }
void Tracer::Pop() { tl_open.pop_back(); }

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

SpanScope::SpanScope(Tracer* tracer, const char* name, const char* layer,
                     uint64_t fallback_parent, uint64_t query)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.layer = layer;
  span_.id = tracer_->NewId();
  const uint64_t open = Tracer::Current();
  span_.parent = open != 0 ? open : fallback_parent;
  span_.query = query;
  Tracer::Push(span_.id);
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  Tracer::Pop();
  tracer_->Record(span_);
}

aqp::Result<std::optional<aqp::storage::Tuple>> TimedSource::Next() {
  SpanScope span(tracer_, "exec.source.read", "exec", root_span_, query_);
  auto row = child_->Next();
  if (row.ok() && row->has_value()) span.set_count(1);
  return row;
}

aqp::Status TimedSource::NextColumnBatch(aqp::storage::ColumnBatch* out) {
  SpanScope span(tracer_, "exec.source.read", "exec", root_span_, query_);
  aqp::Status status = child_->NextColumnBatch(out);
  if (status.ok()) span.set_count(out->size());
  return status;
}

TraceSummary Analyze(const std::vector<Span>& spans) {
  TraceSummary summary;
  summary.spans = spans.size();
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) children[span.parent].push_back(&span);
  double coverage_sum = 0.0;
  size_t queries = 0;
  for (const Span& span : spans) {
    std::vector<std::pair<int64_t, int64_t>> nested;
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        if (child->thread == span.thread) {
          nested.emplace_back(child->start_ns, child->end_ns);
        }
      }
    }
    const int64_t duration = span.end_ns - span.start_ns;
    const int64_t covered = CoveredNs(nested, span.start_ns, span.end_ns);
    summary.self_ms[span.layer] += static_cast<double>(duration - covered) / 1e6;
    summary.name_ms[span.name] += static_cast<double>(duration) / 1e6;
    summary.name_count[span.name] += span.count;
    ++summary.name_calls[span.name];
    if (std::string_view(span.layer) == "query" && duration > 0) {
      coverage_sum +=
          static_cast<double>(covered) / static_cast<double>(duration);
      ++queries;
    }
  }
  if (queries > 0) {
    summary.query_coverage = coverage_sum / static_cast<double>(queries);
  }
  return summary;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::string& metadata) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"otherData\":" << metadata << ",\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"query\":" << s.query << ",\"count\":" << s.count << "}}";
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace linkbench
