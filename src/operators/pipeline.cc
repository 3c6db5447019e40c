#include "operators/pipeline.h"

#include "operators/compress_op.h"
#include "operators/crypto_op.h"
#include "operators/packing.h"
#include "operators/projection.h"
#include "operators/regex_select.h"
#include "operators/selection.h"

namespace farview {

Result<Batch> Pipeline::Process(Batch in) {
  Batch b = std::move(in);
  for (OperatorPtr& op : ops_) {
    FV_ASSIGN_OR_RETURN(b, op->Process(std::move(b)));
  }
  return b;
}

Result<Batch> Pipeline::Flush() {
  // Flush front-to-back: operator i's flush output streams through
  // operators i+1..n before those are themselves flushed.
  Batch out = Batch::Empty(&output_schema());
  for (size_t i = 0; i < ops_.size(); ++i) {
    FV_ASSIGN_OR_RETURN(Batch flushed, ops_[i]->Flush());
    Batch b = std::move(flushed);
    for (size_t j = i + 1; j < ops_.size(); ++j) {
      FV_ASSIGN_OR_RETURN(b, ops_[j]->Process(std::move(b)));
    }
    AppendBytes(&out.data, b.bytes(), b.size_bytes());
    out.num_rows += b.num_rows;
  }
  return out;
}

void Pipeline::Reset() {
  for (OperatorPtr& op : ops_) op->Reset();
}

const Schema& Pipeline::output_schema() const {
  return ops_.empty() ? input_schema_ : ops_.back()->output_schema();
}

bool Pipeline::IsBlocking() const {
  for (const OperatorPtr& op : ops_) {
    const std::string n = op->name();
    if (n == "group_by" || n == "aggregate") return true;
  }
  return false;
}

std::string Pipeline::Describe() const {
  if (ops_.empty()) return "read";
  std::string out;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (i > 0) out += "|";
    out += ops_[i]->name();
  }
  return out;
}

// ---------------------------------------------------------------------------
// PipelineBuilder
// ---------------------------------------------------------------------------

PipelineBuilder::PipelineBuilder(Schema input_schema)
    : pipeline_(std::move(input_schema)) {}

const Schema& PipelineBuilder::Current() const {
  return pipeline_.output_schema();
}

namespace {

/// Appends the operator or records the first error.
void AppendOr(Pipeline* pipeline, Status* first_error,
              Result<OperatorPtr> op) {
  if (!first_error->ok()) return;
  if (!op.ok()) {
    *first_error = op.status();
    return;
  }
  pipeline->Append(std::move(op).value());
}

}  // namespace

PipelineBuilder& PipelineBuilder::Project(std::vector<int> columns) {
  AppendOr(&pipeline_, &first_error_,
           ProjectionOp::Create(Current(), std::move(columns)));
  return *this;
}

PipelineBuilder& PipelineBuilder::Select(std::vector<Predicate> predicates) {
  AppendOr(&pipeline_, &first_error_,
           SelectionOp::Create(Current(),
                               PredicateList(std::move(predicates))));
  return *this;
}

PipelineBuilder& PipelineBuilder::RegexSelect(int col,
                                              const std::string& pattern,
                                              bool full_match) {
  AppendOr(&pipeline_, &first_error_,
           RegexSelectOp::Create(Current(), col, pattern, full_match));
  return *this;
}

PipelineBuilder& PipelineBuilder::Distinct(std::vector<int> key_columns,
                                           const GroupingConfig& config) {
  AppendOr(&pipeline_, &first_error_,
           DistinctOp::Create(Current(), std::move(key_columns), config));
  return *this;
}

PipelineBuilder& PipelineBuilder::GroupBy(std::vector<int> key_columns,
                                          std::vector<AggSpec> aggs,
                                          const GroupingConfig& config) {
  AppendOr(&pipeline_, &first_error_,
           GroupByOp::Create(Current(), std::move(key_columns),
                             std::move(aggs), config));
  return *this;
}

PipelineBuilder& PipelineBuilder::Aggregate(std::vector<AggSpec> aggs) {
  AppendOr(&pipeline_, &first_error_,
           AggregateOp::Create(Current(), std::move(aggs)));
  return *this;
}

PipelineBuilder& PipelineBuilder::HashJoinSmall(
    int probe_key_col, const Table& build, int build_key_col,
    const JoinConfig& config) {
  AppendOr(&pipeline_, &first_error_,
           HashJoinOp::Create(Current(), probe_key_col, build, build_key_col,
                              config));
  return *this;
}

PipelineBuilder& PipelineBuilder::Decrypt(const uint8_t key[16],
                                          const uint8_t nonce[16],
                                          uint64_t initial_offset) {
  AppendOr(&pipeline_, &first_error_,
           CryptoOp::Create(Current(), key, nonce, initial_offset));
  return *this;
}

PipelineBuilder& PipelineBuilder::Compress() {
  if (first_error_.ok()) {
    pipeline_.Append(std::make_unique<CompressOp>(Current()));
  }
  return *this;
}

PipelineBuilder& PipelineBuilder::Pack() {
  if (first_error_.ok()) {
    pipeline_.Append(std::make_unique<PackingOp>(Current()));
  }
  return *this;
}

Result<Pipeline> PipelineBuilder::Build() {
  if (!first_error_.ok()) return first_error_;
  // Every deployed pipeline ends in the packer + sender pair (Section 5.5);
  // the sender lives in the network stack, the packer is appended here.
  pipeline_.Append(std::make_unique<PackingOp>(Current()));
  return std::move(pipeline_);
}

}  // namespace farview
