#include "exec/scan.h"

#include <algorithm>

#include "common/failpoint.h"

namespace aqp {
namespace exec {

Status RelationScan::Open() {
  if (open_) return Status::FailedPrecondition("RelationScan already open");
  open_ = true;
  position_ = 0;
  return Status::OK();
}

Result<std::optional<storage::Tuple>> RelationScan::Next() {
  if (!open_) return Status::FailedPrecondition("RelationScan not open");
  if (position_ >= relation_->size()) {
    return std::optional<storage::Tuple>();
  }
  return std::optional<storage::Tuple>(relation_->row(position_++));
}

Status RelationScan::NextColumnBatch(storage::ColumnBatch* out) {
  if (!open_) return Status::FailedPrecondition("RelationScan not open");
  AQP_FAILPOINT(fail::site::kScanNext);
  out->Reset(&relation_->schema());
  const size_t end =
      std::min(relation_->size(), position_ + out->capacity());
  // Unchecked row access: position_ < end <= size() by construction,
  // and this copy feeds every join's input path. Cells go straight
  // into the column vectors — no Tuple/Value construction — with one
  // type dispatch per column for the whole range.
  const std::vector<storage::Tuple>& rows = relation_->rows();
  out->AppendTupleRows(rows.data() + position_, end - position_);
  position_ = end;
  return Status::OK();
}

Status RelationScan::Close() {
  if (!open_) return Status::FailedPrecondition("RelationScan not open");
  open_ = false;
  return Status::OK();
}

Status VectorScan::Open() {
  if (open_) return Status::FailedPrecondition("VectorScan already open");
  open_ = true;
  position_ = 0;
  return Status::OK();
}

Result<std::optional<storage::Tuple>> VectorScan::Next() {
  if (!open_) return Status::FailedPrecondition("VectorScan not open");
  if (position_ >= tuples_.size()) {
    return std::optional<storage::Tuple>();
  }
  return std::optional<storage::Tuple>(tuples_[position_++]);
}

Status VectorScan::NextColumnBatch(storage::ColumnBatch* out) {
  if (!open_) return Status::FailedPrecondition("VectorScan not open");
  out->Reset(&schema_);
  const size_t end = std::min(tuples_.size(), position_ + out->capacity());
  // Cell copies, not tuple copies: the scan stays re-openable and the
  // batch owns plain bytes (column-major, like RelationScan).
  out->AppendTupleRows(tuples_.data() + position_, end - position_);
  position_ = end;
  return Status::OK();
}

Status VectorScan::Close() {
  if (!open_) return Status::FailedPrecondition("VectorScan not open");
  open_ = false;
  return Status::OK();
}

}  // namespace exec
}  // namespace aqp
