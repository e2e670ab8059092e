#ifndef AQP_EXEC_STREAM_H_
#define AQP_EXEC_STREAM_H_

#include <deque>
#include <functional>
#include <string>

#include "exec/operator.h"

namespace aqp {
namespace exec {

/// \brief Push-style source for streaming scenarios.
///
/// A producer pushes tuples (and eventually Finish()); the consumer
/// pulls through the Operator interface. Next() on an open, non-
/// finished, empty source reports "no tuple yet" as an engaged status
/// via `blocked()` — in this single-threaded engine the caller
/// interleaves pushes and pulls, so Next() never spins.
class PushSource : public Operator {
 public:
  explicit PushSource(storage::Schema schema) : schema_(std::move(schema)) {}

  /// Enqueues one tuple. May be called before or after Open(), but not
  /// after Finish().
  Status Push(storage::Tuple tuple);

  /// Declares end-of-stream.
  Status Finish();

  /// True iff the last Next() found the queue empty before Finish().
  bool blocked() const { return blocked_; }

  /// Tuples currently queued.
  size_t queued() const { return queue_.size(); }

  Status Open() override;
  Result<std::optional<storage::Tuple>> Next() override;
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "PushSource"; }

 private:
  storage::Schema schema_;
  std::deque<storage::Tuple> queue_;
  bool open_ = false;
  bool finished_ = false;
  bool blocked_ = false;
};

/// \brief Source that draws tuples from a generator function.
///
/// The callback returns the next tuple or nullopt at end-of-stream;
/// useful for unbounded synthetic streams in tests and benches.
class GeneratorSource : public Operator {
 public:
  using Generator = std::function<std::optional<storage::Tuple>()>;

  GeneratorSource(storage::Schema schema, Generator generator)
      : schema_(std::move(schema)), generator_(std::move(generator)) {}

  Status Open() override;
  Result<std::optional<storage::Tuple>> Next() override;
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "GeneratorSource"; }

 private:
  storage::Schema schema_;
  Generator generator_;
  bool open_ = false;
  bool done_ = false;
};

}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_STREAM_H_
