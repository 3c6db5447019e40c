#include "operators/grouping.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace farview {

const char* AggKindToString(AggKind k) {
  switch (k) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
  }
  return "?";
}

namespace internal {

Result<std::vector<Column>> AggOutputColumns(
    const Schema& input, const std::vector<AggSpec>& aggs) {
  if (aggs.empty()) {
    return Status::InvalidArgument("at least one aggregate required");
  }
  std::vector<Column> cols;
  cols.reserve(aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggSpec& a = aggs[i];
    std::string name = AggKindToString(a.kind);
    if (a.kind != AggKind::kCount) {
      if (a.col < 0 || a.col >= input.num_columns()) {
        return Status::InvalidArgument("aggregate column out of range");
      }
      if (input.column(a.col).type != DataType::kInt64) {
        return Status::InvalidArgument("aggregate " + name +
                                       " requires an INT64 column");
      }
      name += "_" + input.column(a.col).name;
    }
    // Disambiguate duplicates (e.g. two counts) with a positional suffix.
    name += "_" + std::to_string(i);
    const DataType out_type =
        a.kind == AggKind::kAvg ? DataType::kDouble : DataType::kInt64;
    // fvcheck:allow=hot-path-alloc setup (Create)
    cols.push_back(Column{std::move(name), out_type, 8});
  }
  return cols;
}

void AggUpdate(const std::vector<AggSpec>& aggs, const TupleView& row,
               uint8_t* state) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    uint8_t* s = state + i * kAggStateBytes;
    int64_t acc = LoadLE64Signed(s);
    uint64_t aux = LoadLE64(s + 8);
    const AggSpec& a = aggs[i];
    switch (a.kind) {
      case AggKind::kCount:
        ++acc;
        break;
      case AggKind::kSum:
        acc += row.GetInt64(a.col);
        break;
      case AggKind::kMin: {
        const int64_t v = row.GetInt64(a.col);
        if (aux == 0 || v < acc) acc = v;
        aux = 1;
        break;
      }
      case AggKind::kMax: {
        const int64_t v = row.GetInt64(a.col);
        if (aux == 0 || v > acc) acc = v;
        aux = 1;
        break;
      }
      case AggKind::kAvg:
        acc += row.GetInt64(a.col);
        ++aux;
        break;
    }
    StoreLE64Signed(s, acc);
    StoreLE64(s + 8, aux);
  }
}

void AggFinalize(const std::vector<AggSpec>& aggs, const uint8_t* state,
                 uint8_t* out) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    const uint8_t* s = state + i * kAggStateBytes;
    const int64_t acc = LoadLE64Signed(s);
    const uint64_t aux = LoadLE64(s + 8);
    uint8_t* dst = out + i * 8;
    if (aggs[i].kind == AggKind::kAvg) {
      const double avg =
          aux == 0 ? 0.0
                   : static_cast<double>(acc) / static_cast<double>(aux);
      StoreDouble(dst, avg);
    } else {
      StoreLE64Signed(dst, acc);
    }
  }
}

}  // namespace internal

namespace {

/// Builds the key sub-schema and validates key columns.
Result<Schema> KeySchema(const Schema& input,
                         const std::vector<int>& key_columns) {
  if (key_columns.empty()) {
    return Status::InvalidArgument("at least one key column required");
  }
  for (int c : key_columns) {
    if (c < 0 || c >= input.num_columns()) {
      return Status::InvalidArgument("key column out of range");
    }
  }
  return input.Project(key_columns);
}

void ExtractKeyColumns(const Schema& input, const std::vector<int>& cols,
                       const TupleView& row, uint8_t* out) {
  for (int c : cols) {
    const uint32_t w = input.width(c);
    // Fixed-size copy for the dominant 8-byte column width; the runtime
    // width otherwise forces a memcpy libc call per key column per tuple.
    if (w == 8) {
      std::memcpy(out, row.ColumnData(c), 8);
    } else {
      std::memcpy(out, row.ColumnData(c), w);
    }
    out += w;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// DistinctOp
// ---------------------------------------------------------------------------

Result<OperatorPtr> DistinctOp::Create(const Schema& input,
                                       std::vector<int> key_columns,
                                       const GroupingConfig& config) {
  FV_ASSIGN_OR_RETURN(Schema output, KeySchema(input, key_columns));
  return OperatorPtr(
      new DistinctOp(input, std::move(key_columns), std::move(output),
                     config));
}

DistinctOp::DistinctOp(const Schema& input, std::vector<int> key_columns,
                       Schema output, const GroupingConfig& config)
    : input_schema_(input),
      key_columns_(std::move(key_columns)),
      output_schema_(std::move(output)),
      key_width_(output_schema_.tuple_width()),
      config_(config) {
  table_ = std::make_unique<CuckooTable>(config_.cuckoo_ways,
                                         config_.slots_per_way, key_width_,
                                         /*payload_width=*/0);
  lru_ = std::make_unique<LruShiftRegister>(config_.lru_depth, key_width_);
  // fvcheck:allow=hot-path-alloc pooled ByteBuffer scratch
  key_scratch_.resize(key_width_);
}

void DistinctOp::ExtractKey(const TupleView& row, uint8_t* out) const {
  ExtractKeyColumns(input_schema_, key_columns_, row, out);
}

Result<Batch> DistinctOp::Process(Batch in) {
  Batch out = Batch::Empty(&output_schema_);
  uint8_t* key = key_scratch_.data();
  for (uint64_t r = 0; r < in.num_rows; ++r) {
    const TupleView row = in.Row(r);
    ExtractKey(row, key);
    // Hardware order: the LRU masks keys still in the hash pipeline; a hit
    // means "seen", so the tuple is dropped without a table access.
    if (lru_->Touch(key)) continue;
    // DISTINCT carries no aggregation state, so skip the payload relocation
    // lookup the upsert would otherwise do after an insert.
    const CuckooTable::UpsertResult res = table_->Upsert(key, nullptr);
    if (res == CuckooTable::UpsertResult::kFound) continue;
    AppendBytes(&out.data, key, key_width_);
    ++out.num_rows;
  }
  Account(in, out);
  return out;
}

void DistinctOp::Reset() {
  stats_.Clear();
  table_->Clear();
  lru_->Clear();
}

// ---------------------------------------------------------------------------
// GroupByOp
// ---------------------------------------------------------------------------

Result<OperatorPtr> GroupByOp::Create(const Schema& input,
                                      std::vector<int> key_columns,
                                      std::vector<AggSpec> aggs,
                                      const GroupingConfig& config) {
  FV_ASSIGN_OR_RETURN(Schema keys, KeySchema(input, key_columns));
  FV_ASSIGN_OR_RETURN(std::vector<Column> agg_cols,
                      internal::AggOutputColumns(input, aggs));
  std::vector<Column> cols = keys.columns();
  cols.insert(cols.end(), agg_cols.begin(), agg_cols.end());
  FV_ASSIGN_OR_RETURN(Schema output, Schema::Create(std::move(cols)));
  return OperatorPtr(new GroupByOp(input, std::move(key_columns),
                                   std::move(aggs), std::move(output),
                                   config));
}

GroupByOp::GroupByOp(const Schema& input, std::vector<int> key_columns,
                     std::vector<AggSpec> aggs, Schema output,
                     const GroupingConfig& config)
    : input_schema_(input),
      key_columns_(std::move(key_columns)),
      aggs_(std::move(aggs)),
      output_schema_(std::move(output)),
      config_(config) {
  key_width_ = 0;
  for (int c : key_columns_) key_width_ += input_schema_.width(c);
  table_ = std::make_unique<CuckooTable>(
      config_.cuckoo_ways, config_.slots_per_way, key_width_,
      static_cast<uint32_t>(aggs_.size()) * internal::kAggStateBytes);
  // fvcheck:allow=hot-path-alloc pooled ByteBuffer scratch
  key_scratch_.resize(key_width_);
}

void GroupByOp::ExtractKey(const TupleView& row, uint8_t* out) const {
  ExtractKeyColumns(input_schema_, key_columns_, row, out);
}

Result<Batch> GroupByOp::Process(Batch in) {
  uint8_t* key = key_scratch_.data();
  for (uint64_t r = 0; r < in.num_rows; ++r) {
    const TupleView row = in.Row(r);
    ExtractKey(row, key);
    // Every row updates its group's payload in the table, so the hazard
    // LRU that lets DISTINCT drop repeats early has nothing to decide here.
    uint8_t* payload = nullptr;
    const CuckooTable::UpsertResult res = table_->Upsert(key, &payload);
    if (res != CuckooTable::UpsertResult::kFound) {
      AppendBytes(&group_queue_, key, key_width_);
    }
    internal::AggUpdate(aggs_, row, payload);
  }
  Batch out = Batch::Empty(&output_schema_);
  Account(in, out);
  return out;
}

Result<Batch> GroupByOp::Flush() {
  Batch out = Batch::Empty(&output_schema_);
  const uint64_t groups = num_groups();
  const uint32_t out_width = output_schema_.tuple_width();
  // fvcheck:allow=hot-path-alloc pooled ByteBuffer
  out.data.resize(groups * out_width);
  for (uint64_t g = 0; g < groups; ++g) {
    const uint8_t* key = group_queue_.data() + g * key_width_;
    const uint8_t* payload = table_->Lookup(key);
    FV_CHECK(payload != nullptr) << "queued group missing from hash table";
    uint8_t* dst = out.data.data() + g * out_width;
    std::memcpy(dst, key, key_width_);
    internal::AggFinalize(aggs_, payload, dst + key_width_);
  }
  out.num_rows = groups;
  AccountOut(out);
  return out;
}

void GroupByOp::Reset() {
  stats_.Clear();
  table_->Clear();
  group_queue_.clear();
}

// ---------------------------------------------------------------------------
// AggregateOp
// ---------------------------------------------------------------------------

Result<OperatorPtr> AggregateOp::Create(const Schema& input,
                                        std::vector<AggSpec> aggs) {
  FV_ASSIGN_OR_RETURN(std::vector<Column> cols,
                      internal::AggOutputColumns(input, aggs));
  FV_ASSIGN_OR_RETURN(Schema output, Schema::Create(std::move(cols)));
  return OperatorPtr(new AggregateOp(input, std::move(aggs),
                                     std::move(output)));
}

AggregateOp::AggregateOp(const Schema& input, std::vector<AggSpec> aggs,
                         Schema output)
    : input_schema_(input),
      aggs_(std::move(aggs)),
      output_schema_(std::move(output)) {
  state_.assign(aggs_.size() * internal::kAggStateBytes, 0);
}

Result<Batch> AggregateOp::Process(Batch in) {
  for (uint64_t r = 0; r < in.num_rows; ++r) {
    internal::AggUpdate(aggs_, in.Row(r), state_.data());
  }
  Batch out = Batch::Empty(&output_schema_);
  Account(in, out);
  return out;
}

Result<Batch> AggregateOp::Flush() {
  Batch out = Batch::Empty(&output_schema_);
  if (!flushed_) {
    flushed_ = true;
    // fvcheck:allow=hot-path-alloc pooled ByteBuffer
    out.data.resize(output_schema_.tuple_width());
    internal::AggFinalize(aggs_, state_.data(), out.data.data());
    out.num_rows = 1;
    AccountOut(out);
  }
  return out;
}

void AggregateOp::Reset() {
  stats_.Clear();
  std::fill(state_.begin(), state_.end(), 0);
  flushed_ = false;
}

}  // namespace farview
