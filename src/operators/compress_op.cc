#include "operators/compress_op.h"

namespace farview {

CompressOp::CompressOp(const Schema& input)
    : input_schema_(input), output_schema_(Schema::Strings(1, 1)) {}

Result<Batch> CompressOp::Process(Batch in) {
  Batch out = Batch::Empty(&output_schema_);
  if (in.size_bytes() > 0) {
    const ByteBuffer compressed = LzCompress(in.bytes(), in.size_bytes());
    raw_bytes_ += in.size_bytes();
    compressed_bytes_ += compressed.size();
    out.data.resize(8);  // fvcheck:allow=hot-path-alloc pooled ByteBuffer
    StoreLE32(out.data.data(), static_cast<uint32_t>(in.size_bytes()));
    StoreLE32(out.data.data() + 4, static_cast<uint32_t>(compressed.size()));
    AppendBytes(&out.data, compressed.data(), compressed.size());
    out.num_rows = out.data.size();  // 1-byte rows
  }
  Account(in, out);
  return out;
}

Result<Table> CompressOp::DecompressFrames(const ByteBuffer& frames,
                                           const Schema& row_schema) {
  ByteBuffer rows;
  uint64_t pos = 0;
  while (pos < frames.size()) {
    if (pos + 8 > frames.size()) {
      return Status::InvalidArgument("truncated frame header");
    }
    const uint32_t raw_size = LoadLE32(frames.data() + pos);
    const uint32_t comp_size = LoadLE32(frames.data() + pos + 4);
    pos += 8;
    if (pos + comp_size > frames.size()) {
      return Status::InvalidArgument("truncated frame payload");
    }
    FV_ASSIGN_OR_RETURN(
        ByteBuffer chunk,
        LzDecompress(frames.data() + pos, comp_size, raw_size));
    pos += comp_size;
    rows.insert(rows.end(), chunk.begin(), chunk.end());
  }
  return Table::FromBytes(row_schema, std::move(rows));
}

}  // namespace farview
