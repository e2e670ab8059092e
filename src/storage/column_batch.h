#ifndef AQP_STORAGE_COLUMN_BATCH_H_
#define AQP_STORAGE_COLUMN_BATCH_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace aqp {
namespace storage {

/// \brief A fixed-capacity, schema-stamped *columnar* batch of rows —
/// the native unit of exchange of the vectorized operator protocol
/// (exec::Operator::NextColumnBatch).
///
/// Layout: one typed vector per column (`int64_t`, `double`, or
/// {offset, len} slots into a per-batch string-data arena) plus a
/// per-column null bitmap. String bytes of all string columns share one
/// contiguous arena, so filling a batch performs no per-cell heap
/// allocation — arena growth is amortized, and a recycled batch
/// (Reset with the same schema) reaches an allocation-free steady
/// state. Columns rather than rows of Values, because per-tuple
/// `std::vector<Value>` and `std::string` construction dominated the
/// exact-join loop in a profile.
///
/// An optional *join-key hash lane* carries one precomputed FNV-1a
/// hash per row (ComputeKeyHashes over the join column); consumers
/// (TupleStore::AddRow, the radix exchange) read the hash instead of
/// re-hashing key bytes, and the batch becomes the `(key view, hash,
/// payload slice)` triple the store ingests without ever constructing
/// an intermediate Tuple.
///
/// A batch borrows its schema from the producing operator (the schema
/// must outlive the batch, which holds in the pull model). Capacity is
/// a soft contract: appends past capacity degrade to growth, not
/// corruption.
///
/// Views returned by StringAt() alias the arena and are invalidated by
/// any append, Clear(), or Reset() — consume a row before mutating the
/// batch (the pipeline copies rows into stores/sinks immediately).
class ColumnBatch {
 public:
  /// Default number of rows per batch; chosen so a batch of typical
  /// linkage tuples stays comfortably inside the L2 cache. Also the
  /// join's default input refill size (SymmetricJoinOptions).
  static constexpr size_t kDefaultCapacity = 1024;

  ColumnBatch() = default;
  explicit ColumnBatch(const Schema* schema,
                       size_t capacity = kDefaultCapacity) {
    Reset(schema, capacity);
  }

  ColumnBatch(const ColumnBatch&) = default;
  ColumnBatch& operator=(const ColumnBatch&) = default;
  ColumnBatch(ColumnBatch&&) noexcept = default;
  ColumnBatch& operator=(ColumnBatch&&) noexcept = default;

  /// Clears the rows, stamps the schema, and (re)reserves capacity.
  /// Re-stamping the same schema keeps the column vectors' and arena's
  /// allocations (the refill steady state); a different schema rebuilds
  /// the column layout. A capacity of 0 keeps the previous one.
  void Reset(const Schema* schema, size_t capacity = 0);

  /// Schema of the rows (may be null for a default-constructed batch).
  const Schema* schema() const { return schema_; }

  size_t num_columns() const { return columns_.size(); }
  size_t capacity() const { return capacity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  bool full() const { return num_rows_ >= capacity_; }

  /// Drops all rows (and key hashes), keeping schema, capacity, and
  /// every allocation.
  void Clear();

  /// \name Cell-wise append: append one cell per column in schema
  /// order, then CommitRow(). The typed appenders assert the column's
  /// schema type in debug builds.
  /// @{
  void AppendNull(size_t col) {
    Column& c = columns_[col];
    c.nulls.push_back(1);
    switch (c.type) {
      case ValueType::kInt64:
        c.i64.push_back(0);
        break;
      case ValueType::kDouble:
        c.f64.push_back(0.0);
        break;
      default:
        c.offset.push_back(0);
        c.len.push_back(0);
        break;
    }
  }
  void AppendInt64(size_t col, int64_t v) {
    Column& c = columns_[col];
    assert(c.type == ValueType::kInt64 && "int64 append on non-int64 column");
    c.nulls.push_back(0);
    c.i64.push_back(v);
  }
  void AppendDouble(size_t col, double v) {
    Column& c = columns_[col];
    assert(c.type == ValueType::kDouble &&
           "double append on non-double column");
    c.nulls.push_back(0);
    c.f64.push_back(v);
  }
  void AppendString(size_t col, std::string_view v) {
    Column& c = columns_[col];
    assert((c.type == ValueType::kString || c.type == ValueType::kNull) &&
           "string append on non-string column");
    // 32-bit slots for cache density: a batch is a transient unit of
    // exchange (capacity × row width, epochs at most), so its string
    // arena is bounded well under the 4 GiB the offsets address. The
    // long-lived TupleStore payload arena uses 64-bit offsets instead.
    // The bound is enforced even in Release — wrapped offsets would
    // silently corrupt every later string cell.
    if (arena_.size() + v.size() > UINT32_MAX) DieArenaOverflow();
    c.nulls.push_back(0);
    c.offset.push_back(static_cast<uint32_t>(arena_.size()));
    c.len.push_back(static_cast<uint32_t>(v.size()));
    arena_.insert(arena_.end(), v.begin(), v.end());
  }
  /// Seals the current row. Debug builds assert every column received
  /// exactly one cell.
  void CommitRow() {
#ifndef NDEBUG
    for (const Column& c : columns_) {
      assert(c.nulls.size() == num_rows_ + 1 &&
             "CommitRow with misaligned columns");
    }
#endif
    ++num_rows_;
    committed_arena_ = arena_.size();
  }
  /// Discards the partially appended row in flight (cells appended
  /// since the last CommitRow), truncating every column lane and the
  /// string arena back to the committed watermark. This is what lets a
  /// producer abandon a half-parsed record — e.g. the CSV quarantine
  /// path — without poisoning the batch.
  void AbandonRow();
  /// @}

  /// Appends one row from a Tuple (row-protocol compatibility paths).
  /// Cell types must match the schema; NULL cells are allowed anywhere.
  void AppendTupleRow(const Tuple& tuple);

  /// Bulk-appends `count` tuples starting at `rows`, column-major: one
  /// type dispatch per column instead of per cell (relation scans feed
  /// whole row ranges through this).
  void AppendTupleRows(const Tuple* rows, size_t count);

  /// Appends `src`'s row `row` (identical schema layout required) —
  /// the unit of the parallel exchange's per-shard column scatter.
  /// Carries the row's key hash along when both batches have a lane.
  void AppendRowFrom(const ColumnBatch& src, size_t row);

  /// \name Typed cell access.
  /// @{
  bool IsNull(size_t col, size_t row) const {
    return columns_[col].nulls[row] != 0;
  }
  int64_t Int64At(size_t col, size_t row) const {
    return columns_[col].i64[row];
  }
  double DoubleAt(size_t col, size_t row) const {
    return columns_[col].f64[row];
  }
  std::string_view StringAt(size_t col, size_t row) const {
    const Column& c = columns_[col];
    return std::string_view(arena_.data() + c.offset[row], c.len[row]);
  }
  ValueType column_type(size_t col) const { return columns_[col].type; }
  /// @}

  /// Cell as a Value (adapter paths; allocates for strings).
  Value ValueAt(size_t col, size_t row) const;

  /// Appends row `row`'s cells as Values (row materialization).
  void MaterializeRowInto(size_t row, std::vector<Value>* out) const;

  /// Row as a Tuple (adapter paths).
  Tuple MaterializeRow(size_t row) const;

  /// \name Join-key hash lane.
  /// @{
  /// Fills the lane with the FNV-1a hash of every row's `col` cell
  /// (NULL hashes as the empty string). Vectorized over the column —
  /// one pass, no per-row dispatch.
  void ComputeKeyHashes(size_t col);
  bool has_key_hashes() const { return !key_hashes_.empty() || empty(); }
  uint64_t key_hash(size_t row) const { return key_hashes_[row]; }
  /// @}

  /// Allocated footprint in bytes: every column lane's capacity, the
  /// shared string arena, and the key-hash lane. Capacity-based (like
  /// TupleStore::ApproximateMemoryUsage), so a Clear()ed batch still
  /// reports its retained allocations — that is what a budget must
  /// see, since recycled batches keep their arenas by design.
  uint64_t ApproximateMemoryUsage() const;

  /// Checks per-column row alignment against the committed row count
  /// (debug paths). A null schema fails.
  Status Validate() const;

  /// "ColumnBatch(size/capacity)" plus the first rows (debugging).
  std::string ToString(size_t limit = 5) const;

 private:
  /// Aborts with a diagnostic when a batch's string arena would
  /// outgrow its 32-bit offsets (cold; see AppendString).
  [[noreturn]] static void DieArenaOverflow();

  /// One typed column vector. Only the vector matching `type` is used;
  /// string columns keep {offset, len} slots into the shared arena.
  struct Column {
    ValueType type = ValueType::kString;
    std::vector<uint8_t> nulls;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<uint32_t> offset;
    std::vector<uint32_t> len;
  };

  const Schema* schema_ = nullptr;
  std::vector<Column> columns_;
  /// Shared string-data arena of all string columns.
  std::vector<char> arena_;
  std::vector<uint64_t> key_hashes_;
  size_t num_rows_ = 0;
  /// Arena size as of the last committed row — the truncation point
  /// for AbandonRow. Every path that advances num_rows_ refreshes it.
  size_t committed_arena_ = 0;
  size_t capacity_ = kDefaultCapacity;
};

}  // namespace storage
}  // namespace aqp

#endif  // AQP_STORAGE_COLUMN_BATCH_H_
