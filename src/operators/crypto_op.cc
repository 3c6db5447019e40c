#include "operators/crypto_op.h"

namespace farview {

Result<OperatorPtr> CryptoOp::Create(const Schema& schema,
                                     const uint8_t key[16],
                                     const uint8_t nonce[16],
                                     uint64_t initial_offset) {
  if (key == nullptr || nonce == nullptr) {
    return Status::InvalidArgument("crypto operator needs key and nonce");
  }
  return OperatorPtr(new CryptoOp(schema, key, nonce, initial_offset));
}

Result<Batch> CryptoOp::Process(Batch in) {
  // XOR with the keystream in place; CTR encryption and decryption are the
  // same transform. Borrowed rows are read-only (they may be the node's
  // DRAM image), so take an owned copy first.
  in.Own();
  ctr_.Apply(in.data.data(), in.data.size(), offset_);
  offset_ += in.data.size();
  Batch out = std::move(in);
  // Rows and bytes pass through 1:1.
  stats_.rows_in += out.num_rows;
  stats_.rows_out += out.num_rows;
  stats_.bytes_in += out.size_bytes();
  stats_.bytes_out += out.size_bytes();
  return out;
}

}  // namespace farview
