#include "exec/stream.h"

namespace aqp {
namespace exec {

Status PushSource::Push(storage::Tuple tuple) {
  if (finished_) {
    return Status::FailedPrecondition("Push after Finish on PushSource");
  }
  queue_.push_back(std::move(tuple));
  return Status::OK();
}

Status PushSource::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("PushSource already finished");
  }
  finished_ = true;
  return Status::OK();
}

Status PushSource::Open() {
  if (open_) return Status::FailedPrecondition("PushSource already open");
  open_ = true;
  return Status::OK();
}

Result<std::optional<storage::Tuple>> PushSource::Next() {
  if (!open_) return Status::FailedPrecondition("PushSource not open");
  if (!queue_.empty()) {
    blocked_ = false;
    storage::Tuple t = std::move(queue_.front());
    queue_.pop_front();
    return std::optional<storage::Tuple>(std::move(t));
  }
  if (finished_) {
    blocked_ = false;
    return std::optional<storage::Tuple>();
  }
  // Queue empty but the stream is still live: report end-of-batch.
  // The caller distinguishes "blocked" from true end-of-stream via
  // blocked().
  blocked_ = true;
  return std::optional<storage::Tuple>();
}

Status PushSource::NextColumnBatch(storage::ColumnBatch* out) {
  if (!open_) return Status::FailedPrecondition("PushSource not open");
  out->Reset(&schema_);
  // Queued tuples decompose into the batch's columns here — the one
  // row→column boundary of the push path.
  while (!out->full() && !queue_.empty()) {
    out->AppendTupleRow(queue_.front());
    queue_.pop_front();
  }
  // Same contract as Next(): an empty result before Finish() means
  // "no tuple yet", flagged through blocked().
  blocked_ = out->empty() && !finished_;
  return Status::OK();
}

Status PushSource::Close() {
  if (!open_) return Status::FailedPrecondition("PushSource not open");
  open_ = false;
  return Status::OK();
}

Status GeneratorSource::Open() {
  if (open_) return Status::FailedPrecondition("GeneratorSource already open");
  open_ = true;
  done_ = false;
  return Status::OK();
}

Result<std::optional<storage::Tuple>> GeneratorSource::Next() {
  if (!open_) return Status::FailedPrecondition("GeneratorSource not open");
  if (done_) return std::optional<storage::Tuple>();
  std::optional<storage::Tuple> t = generator_();
  if (!t.has_value()) done_ = true;
  return t;
}

Status GeneratorSource::NextColumnBatch(storage::ColumnBatch* out) {
  if (!open_) return Status::FailedPrecondition("GeneratorSource not open");
  out->Reset(&schema_);
  while (!out->full() && !done_) {
    std::optional<storage::Tuple> t = generator_();
    if (!t.has_value()) {
      done_ = true;
      break;
    }
    out->AppendTupleRow(*t);
  }
  return Status::OK();
}

Status GeneratorSource::Close() {
  if (!open_) return Status::FailedPrecondition("GeneratorSource not open");
  open_ = false;
  return Status::OK();
}

}  // namespace exec
}  // namespace aqp
