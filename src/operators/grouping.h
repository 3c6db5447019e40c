#ifndef FARVIEW_OPERATORS_GROUPING_H_
#define FARVIEW_OPERATORS_GROUPING_H_

#include <memory>
#include <string>
#include <vector>

#include "hash/cuckoo_table.h"
#include "hash/lru_shift_register.h"
#include "operators/operator.h"

namespace farview {

/// Aggregation functions supported by Farview (Section 5.4: "count, min,
/// max, sum and average").
enum class AggKind { kCount, kSum, kMin, kMax, kAvg };

/// Canonical name of an aggregate function (for plan/stat output).
const char* AggKindToString(AggKind k);

/// One requested aggregate: a function over an input column (`col` is
/// ignored for COUNT). SUM/MIN/MAX/AVG require an INT64 column; COUNT and
/// SUM/MIN/MAX emit INT64, AVG emits DOUBLE.
struct AggSpec {
  AggKind kind = AggKind::kCount;
  int col = -1;

  static AggSpec Count() { return AggSpec{AggKind::kCount, -1}; }
  static AggSpec Sum(int col) { return AggSpec{AggKind::kSum, col}; }
  static AggSpec Min(int col) { return AggSpec{AggKind::kMin, col}; }
  static AggSpec Max(int col) { return AggSpec{AggKind::kMax, col}; }
  static AggSpec Avg(int col) { return AggSpec{AggKind::kAvg, col}; }
};

/// Sizing of the on-chip hash structures shared by DISTINCT and GROUP BY.
/// Defaults model a BRAM-sized deployment; the cuckoo ablation bench sweeps
/// them.
struct GroupingConfig {
  int cuckoo_ways = 4;
  uint64_t slots_per_way = 1ull << 18;  // 262144 slots per way
  int lru_depth = 8;  // covers the hash pipeline latency (≈ ways + margin)
};

/// DISTINCT operator (Section 5.4, Figure 5): hashes the key columns into
/// the cuckoo tables, masks the pipeline hazard with the shift-register LRU,
/// and emits each distinct key combination once, as it is first seen
/// (streaming). Collisions beyond the kick budget land in the overflow
/// buffer; the hardware ships those to the client for software dedup, which
/// this model performs exactly (the overflow rows stay deduplicated and are
/// counted in `overflow_rows`).
class DistinctOp : public Operator {
 public:
  static Result<OperatorPtr> Create(const Schema& input,
                                    std::vector<int> key_columns,
                                    const GroupingConfig& config = {});

  Result<Batch> Process(Batch in) override;
  Result<Batch> Flush() override { return Batch::Empty(&output_schema_); }
  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override { return "distinct"; }
  void Reset() override;

  uint64_t distinct_rows() const { return table_->size() + overflow_rows(); }
  uint64_t overflow_rows() const { return table_->overflow_size(); }
  const CuckooTable& table() const { return *table_; }
  const LruShiftRegister& lru() const { return *lru_; }

 private:
  DistinctOp(const Schema& input, std::vector<int> key_columns, Schema output,
             const GroupingConfig& config);

  void ExtractKey(const TupleView& row, uint8_t* out) const;

  Schema input_schema_;
  std::vector<int> key_columns_;
  Schema output_schema_;
  uint32_t key_width_;
  GroupingConfig config_;
  std::unique_ptr<CuckooTable> table_;
  std::unique_ptr<LruShiftRegister> lru_;
  /// Per-row key extraction scratch (Process must not allocate per batch).
  ByteBuffer key_scratch_;
};

/// GROUP BY + aggregation operator (Section 5.4): the same cuckoo tables as
/// DISTINCT but *blocking* — "the operator reads the complete table and
/// all of its tuples without sending anything over the network"; the flush
/// phase walks the insertion-order queue and emits one row per group (key
/// columns followed by the aggregates).
class GroupByOp : public Operator {
 public:
  static Result<OperatorPtr> Create(const Schema& input,
                                    std::vector<int> key_columns,
                                    std::vector<AggSpec> aggs,
                                    const GroupingConfig& config = {});

  Result<Batch> Process(Batch in) override;
  Result<Batch> Flush() override;
  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override { return "group_by"; }
  void Reset() override;

  uint64_t num_groups() const {
    return group_queue_.size() / key_width_;
  }
  const CuckooTable& table() const { return *table_; }

 private:
  GroupByOp(const Schema& input, std::vector<int> key_columns,
            std::vector<AggSpec> aggs, Schema output,
            const GroupingConfig& config);

  void ExtractKey(const TupleView& row, uint8_t* out) const;

  Schema input_schema_;
  std::vector<int> key_columns_;
  std::vector<AggSpec> aggs_;
  Schema output_schema_;
  uint32_t key_width_;
  GroupingConfig config_;
  std::unique_ptr<CuckooTable> table_;
  /// The paper's "separate queue" of distinct keys, in first-insertion
  /// order, used to flush the hash table deterministically.
  ByteBuffer group_queue_;
  /// Per-row key extraction scratch (Process must not allocate per batch).
  ByteBuffer key_scratch_;
};

/// Standalone aggregation (no grouping): a streaming fold that emits one
/// row at flush — "simple computations ... performed directly on the
/// passing data streams" (Section 5.4).
class AggregateOp : public Operator {
 public:
  static Result<OperatorPtr> Create(const Schema& input,
                                    std::vector<AggSpec> aggs);

  Result<Batch> Process(Batch in) override;
  Result<Batch> Flush() override;
  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override { return "aggregate"; }
  void Reset() override;

 private:
  AggregateOp(const Schema& input, std::vector<AggSpec> aggs, Schema output);

  Schema input_schema_;
  std::vector<AggSpec> aggs_;
  Schema output_schema_;
  ByteBuffer state_;
  bool flushed_ = false;
};

namespace internal {

/// Bytes of aggregation state per aggregate (accumulator + auxiliary).
inline constexpr uint32_t kAggStateBytes = 16;

/// Validates specs against a schema and builds the aggregate output columns
/// (used by both GroupByOp and AggregateOp).
Result<std::vector<Column>> AggOutputColumns(const Schema& input,
                                             const std::vector<AggSpec>& aggs);

/// Folds one row into the aggregation state array (one state per spec).
void AggUpdate(const std::vector<AggSpec>& aggs, const TupleView& row,
               uint8_t* state);

/// Serializes final aggregate values from state into an output row cursor.
void AggFinalize(const std::vector<AggSpec>& aggs, const uint8_t* state,
                 uint8_t* out);

}  // namespace internal
}  // namespace farview

#endif  // FARVIEW_OPERATORS_GROUPING_H_
