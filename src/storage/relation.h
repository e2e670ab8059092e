#ifndef AQP_STORAGE_RELATION_H_
#define AQP_STORAGE_RELATION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_batch.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace aqp {
namespace storage {

/// \brief An in-memory table: a schema plus a row vector.
///
/// Relations are the materialized endpoints of the system — generator
/// output, scan input, and collected join results. The streaming path
/// (exec/stream.h) feeds tuples without materializing a Relation.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  /// The relation's schema.
  const Schema& schema() const { return schema_; }

  /// Number of rows.
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Row access.
  const Tuple& row(size_t i) const { return rows_.at(i); }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Mutable row access (in-place perturbation by the data generator).
  Tuple* mutable_row(size_t i) { return &rows_.at(i); }

  /// Appends a row after validating it against the schema.
  Status Append(Tuple tuple);

  /// Appends without validation (hot generator path; caller guarantees
  /// conformance).
  void AppendUnchecked(Tuple tuple) { rows_.push_back(std::move(tuple)); }

  /// Materializes a columnar batch's rows onto the relation without
  /// validation (batched CollectAll sink: the only place the columnar
  /// pipeline constructs row payloads).
  void AppendColumnBatchUnchecked(const ColumnBatch& batch) {
    rows_.reserve(rows_.size() + batch.size());
    for (size_t row = 0; row < batch.size(); ++row) {
      rows_.push_back(batch.MaterializeRow(row));
    }
  }

  /// Reserves row capacity.
  void Reserve(size_t n) { rows_.reserve(n); }

  /// Returns the distinct values of a string column, in first-seen
  /// order.
  std::vector<std::string> DistinctStrings(size_t column) const;

  /// Renders the first `limit` rows as an aligned table (debugging).
  std::string ToString(size_t limit = 10) const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace storage
}  // namespace aqp

#endif  // AQP_STORAGE_RELATION_H_
