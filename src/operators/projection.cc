#include "operators/projection.h"

#include <cstring>

namespace farview {

Result<OperatorPtr> ProjectionOp::Create(const Schema& input,
                                         std::vector<int> columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("projection needs at least one column");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    const int c = columns[i];
    if (c < 0 || c >= input.num_columns()) {
      return Status::InvalidArgument("projection column out of range");
    }
    for (size_t j = 0; j < i; ++j) {
      if (columns[j] == c) {
        return Status::InvalidArgument("duplicate projection column " +
                                       input.column(c).name);
      }
    }
  }
  Schema output = input.Project(columns);
  return OperatorPtr(
      new ProjectionOp(input, std::move(columns), std::move(output)));
}

ProjectionOp::ProjectionOp(const Schema& input, std::vector<int> columns,
                           Schema output)
    : input_schema_(input),
      columns_(std::move(columns)),
      output_schema_(std::move(output)) {}

Result<Batch> ProjectionOp::Process(Batch in) {
  Batch out = Batch::Empty(&output_schema_);
  out.data.reserve(in.num_rows * output_schema_.tuple_width());
  for (uint64_t r = 0; r < in.num_rows; ++r) {
    const TupleView row = in.Row(r);
    for (size_t i = 0; i < columns_.size(); ++i) {
      const int src = columns_[i];
      const uint8_t* p = row.ColumnData(src);
      AppendBytes(&out.data, p, input_schema_.width(src));
    }
  }
  out.num_rows = in.num_rows;
  Account(in, out);
  return out;
}

Result<Batch> ProjectionOp::Flush() { return Batch::Empty(&output_schema_); }

}  // namespace farview
