#ifndef FARVIEW_OPERATORS_BATCH_H_
#define FARVIEW_OPERATORS_BATCH_H_

#include <cstdint>

#include "common/bytes.h"
#include "table/schema.h"
#include "table/table.h"

namespace farview {

/// A run of whole tuples moving through an operator pipeline. Operators are
/// fed batches rather than single tuples purely as a software convenience;
/// the simulated hardware consumes one tuple per cycle regardless (timing is
/// the Farview node's concern, not the operators').
///
/// A batch either owns its rows (`data`) or borrows them: a read-only view
/// of rows that live elsewhere (the node's DRAM image, an input table),
/// valid for one `Pipeline::Process` call chain. Readers go through
/// `bytes()` / `size_bytes()` / `Row()`, which cover both cases; an operator
/// that must mutate or keep its input calls `Own()` first (DESIGN.md §8).
struct Batch {
  /// Row layout of the rows. Points into the owning pipeline/operator; valid
  /// for the lifetime of the query.
  const Schema* schema = nullptr;
  /// Owned rows; empty while the batch borrows.
  ByteBuffer data;
  uint64_t num_rows = 0;

  /// First byte of the rows, owned or borrowed.
  const uint8_t* bytes() const {
    return borrowed_ != nullptr ? borrowed_ : data.data();
  }
  uint64_t size_bytes() const {
    return borrowed_ != nullptr ? borrowed_bytes_ : data.size();
  }
  bool empty() const { return num_rows == 0; }
  bool borrowed() const { return borrowed_ != nullptr; }

  TupleView Row(uint64_t r) const {
    return TupleView(schema, bytes() + r * schema->tuple_width());
  }

  /// Copies borrowed rows into `data`; no-op for an owned batch.
  void Own() {
    if (borrowed_ == nullptr) return;
    data.clear();
    AppendBytes(&data, borrowed_, borrowed_bytes_);
    borrowed_ = nullptr;
    borrowed_bytes_ = 0;
  }

  /// An empty batch with the given layout.
  static Batch Empty(const Schema* schema) {
    Batch b;
    b.schema = schema;
    return b;
  }

  /// A batch borrowing `num_rows` whole rows at `rows`; the caller keeps
  /// them alive and unchanged for the call chain. Zero rows give an empty
  /// owned batch.
  static Batch Borrow(const Schema* schema, const uint8_t* rows,
                      uint64_t num_rows) {
    Batch b = Empty(schema);
    if (num_rows == 0) return b;
    b.num_rows = num_rows;
    b.borrowed_ = rows;
    b.borrowed_bytes_ = num_rows * schema->tuple_width();
    return b;
  }

 private:
  const uint8_t* borrowed_ = nullptr;
  uint64_t borrowed_bytes_ = 0;
};

/// Reassembles whole tuples from an arbitrary byte stream.
///
/// Data arrives from the memory stack in stripe-sized bursts whose
/// boundaries do not align with tuple boundaries; the projection operator
/// "parses the incoming data stream based on query parameters describing
/// the tuples and their size" (Section 5.2). This parser keeps the partial
/// trailing tuple between pushes.
class StreamParser {
 public:
  explicit StreamParser(const Schema* schema) : schema_(schema) {}

  /// Takes `len` raw bytes and returns a batch of all now-complete rows.
  /// With no partial tuple pending, the batch borrows its rows from `data`
  /// (zero copy; the caller keeps `data` alive for the call chain that
  /// consumes the batch). A pending partial tuple is stitched: the batch
  /// then owns a copy of the completed tuple and the whole rows after it.
  Batch Push(const uint8_t* data, uint64_t len);

  /// Bytes of the trailing partial tuple currently buffered.
  uint64_t pending_bytes() const { return partial_.size(); }

  /// Discards buffered state (between queries).
  void Reset() { partial_.clear(); }

  /// Retargets the parser at a new row layout and discards buffered state.
  /// Lets one long-lived parser (and its warm `partial_` capacity) serve
  /// successive queries with different schemas instead of constructing a
  /// fresh parser per request (DESIGN.md §8a pool-ownership discipline).
  void Rebind(const Schema* schema) {
    schema_ = schema;
    partial_.clear();
  }

 private:
  const Schema* schema_;
  ByteBuffer partial_;
};

}  // namespace farview

#endif  // FARVIEW_OPERATORS_BATCH_H_
