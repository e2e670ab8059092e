#ifndef AQP_EXEC_SCAN_H_
#define AQP_EXEC_SCAN_H_

#include <memory>
#include <string>

#include "exec/operator.h"
#include "storage/relation.h"

namespace aqp {
namespace exec {

/// \brief Sequential scan over a materialized relation.
///
/// Non-owning: the relation must outlive the scan. Scans are always
/// quiescent (they hold no cross-call per-tuple state).
///
/// NextColumnBatch is native: cells are written straight into the
/// batch's column vectors/string arena, so no Tuple copy (one
/// `vector<Value>` plus one heap string per row on this schema) ever
/// happens on the scan→join hot path.
class RelationScan : public Operator {
 public:
  /// Scans `relation` front to back.
  explicit RelationScan(const storage::Relation* relation)
      : relation_(relation) {}

  Status Open() override;
  Result<std::optional<storage::Tuple>> Next() override;
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override {
    return relation_->schema();
  }
  std::string name() const override { return "RelationScan"; }

  /// Tuples produced so far.
  size_t position() const { return position_; }

 private:
  const storage::Relation* relation_;
  size_t position_ = 0;
  bool open_ = false;
};

/// \brief Owning scan over a tuple vector with an explicit schema.
///
/// Used when the producer does not want to keep a Relation alive
/// (generator output handed straight to a join input).
class VectorScan : public Operator {
 public:
  VectorScan(storage::Schema schema, std::vector<storage::Tuple> tuples)
      : schema_(std::move(schema)), tuples_(std::move(tuples)) {}

  Status Open() override;
  Result<std::optional<storage::Tuple>> Next() override;
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "VectorScan"; }

 private:
  storage::Schema schema_;
  std::vector<storage::Tuple> tuples_;
  size_t position_ = 0;
  bool open_ = false;
};

}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_SCAN_H_
