#include "operators/batch.h"

#include <algorithm>

namespace farview {

Batch StreamParser::Push(const uint8_t* data, uint64_t len) {
  const uint32_t tw = schema_->tuple_width();
  if (partial_.empty()) {
    const uint64_t whole = len / tw;
    Batch out = Batch::Borrow(schema_, data, whole);
    AppendBytes(&partial_, data + whole * tw, len - whole * tw);
    return out;
  }

  // Complete the buffered partial tuple first. The rows after it are copied
  // behind it, so a burst still yields one contiguous batch.
  Batch out = Batch::Empty(schema_);
  const uint64_t take = std::min<uint64_t>(tw - partial_.size(), len);
  AppendBytes(&partial_, data, take);
  if (partial_.size() < tw) return out;  // still partial
  const uint64_t whole = (len - take) / tw;
  const uint64_t whole_bytes = whole * tw;
  out.data.reserve(tw + whole_bytes);
  AppendBytes(&out.data, partial_.data(), tw);
  AppendBytes(&out.data, data + take, whole_bytes);
  out.num_rows = 1 + whole;
  partial_.clear();
  AppendBytes(&partial_, data + take + whole_bytes, len - take - whole_bytes);
  return out;
}

}  // namespace farview
