#include "operators/regex_select.h"

namespace farview {

Result<OperatorPtr> RegexSelectOp::Create(const Schema& input, int col,
                                          const std::string& pattern,
                                          bool full_match) {
  if (col < 0 || col >= input.num_columns()) {
    return Status::InvalidArgument("regex column out of range");
  }
  if (input.column(col).type != DataType::kChar) {
    return Status::InvalidArgument("regex selection requires a CHAR column");
  }
  FV_ASSIGN_OR_RETURN(Regex regex, Regex::Compile(pattern));
  return OperatorPtr(
      new RegexSelectOp(input, col, std::move(regex), full_match));
}

Result<Batch> RegexSelectOp::Process(Batch in) {
  Batch out = Batch::Empty(&schema_);
  const uint32_t tw = schema_.tuple_width();
  const uint32_t w = schema_.width(col_);
  for (uint64_t r = 0; r < in.num_rows; ++r) {
    const TupleView row = in.Row(r);
    // Search mode scans the full fixed-width field (NUL padding cannot
    // produce spurious matches for text patterns); full-match mode (LIKE)
    // matches against the logical string, i.e. up to the NUL padding.
    bool matched;
    if (full_match_) {
      matched = regex_.FullMatch(row.GetString(col_));
    } else {
      const std::string_view field(
          reinterpret_cast<const char*>(row.ColumnData(col_)), w);
      matched = regex_.Search(field);
    }
    if (matched) {
      AppendBytes(&out.data, row.data(), tw);
      ++out.num_rows;
    }
  }
  Account(in, out);
  return out;
}

}  // namespace farview
