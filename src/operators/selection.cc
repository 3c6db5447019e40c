#include "operators/selection.h"

namespace farview {

Result<OperatorPtr> SelectionOp::Create(const Schema& input,
                                        PredicateList predicates) {
  FV_RETURN_IF_ERROR(predicates.Validate(input));
  return OperatorPtr(new SelectionOp(input, std::move(predicates)));
}

Result<Batch> SelectionOp::Process(Batch in) {
  Batch out = Batch::Empty(&schema_);
  const uint32_t tw = schema_.tuple_width();
  for (uint64_t r = 0; r < in.num_rows; ++r) {
    const TupleView row = in.Row(r);
    if (predicates_.Eval(row)) {
      AppendBytes(&out.data, row.data(), tw);
      ++out.num_rows;
    }
  }
  Account(in, out);
  return out;
}

}  // namespace farview
