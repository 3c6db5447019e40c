#ifndef FARVIEW_HASH_CUCKOO_TABLE_H_
#define FARVIEW_HASH_CUCKOO_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/demand_zero_memory.h"
#include "common/status.h"

namespace farview {

/// Multi-way cuckoo hash table modeling the on-chip BRAM hash tables of
/// Farview's DISTINCT / GROUP BY operators (Section 5.4, Figure 5).
///
/// The hardware properties this mirrors:
///  - several ways (independent hash functions) looked up in parallel;
///  - no collision chains: a key displaced from its slot in one way is
///    reinserted into the next way with a different function (bounded kick
///    chain); when the chain exhausts, the entry lands in an *overflow
///    buffer* that is shipped to the client for software post-processing —
///    the table never degrades to probing;
///  - fixed capacity (BRAM is fixed), so occupancy and overflow rate are the
///    interesting metrics (see bench/ablate_cuckoo).
///
/// Keys are fixed-width byte strings (one or more packed columns); each slot
/// carries `payload_width` bytes of aggregation state.
class CuckooTable {
 public:
  /// Outcome of an upsert.
  enum class UpsertResult {
    kInserted,   ///< new key placed in some way
    kFound,      ///< key already present; payload returned for update
    kOverflow,   ///< kick chain exhausted; entry stored in overflow buffer
  };

  /// Upper bound on `num_ways` (the hardware instantiates a handful of
  /// hash circuits; per-key slot indices live on the stack).
  static constexpr int kMaxWays = 16;

  /// `slots_per_way` must be a power of two, `num_ways` in [1, kMaxWays] and
  /// `key_width` positive (checked; violations abort). Total capacity is
  /// `num_ways * slots_per_way` entries.
  CuckooTable(int num_ways, uint64_t slots_per_way, uint32_t key_width,
              uint32_t payload_width);

  /// Looks up `key`; returns a pointer to its payload or nullptr. Overflowed
  /// keys are found too (the hardware keeps them addressable until flushed).
  uint8_t* Lookup(const uint8_t* key);
  const uint8_t* Lookup(const uint8_t* key) const;

  /// Inserts `key` if absent (payload zero-initialized); returns the outcome
  /// and a pointer to the key's payload bytes via `payload_out` (valid until
  /// the next mutation).
  UpsertResult Upsert(const uint8_t* key, uint8_t** payload_out);

  /// Invokes `fn(key_bytes, payload_bytes)` for every resident entry — the
  /// flush path of the GROUP BY operator. Way entries come first, then
  /// overflow entries; within a way, slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int w = 0; w < num_ways_; ++w) {
      for (uint64_t s = 0; s < slots_per_way_; ++s) {
        const uint64_t idx = SlotIndex(w, s);
        if (occupied_[idx]) {
          fn(SlotKey(idx), SlotPayload(idx));
        }
      }
    }
    const uint64_t overflow = overflow_size();
    for (uint64_t i = 0; i < overflow; ++i) {
      fn(overflow_keys_.data() + i * key_width_,
         overflow_payloads_.data() + i * PayloadStride());
    }
  }

  /// Clears all entries (region reuse between queries).
  void Clear();

  int num_ways() const { return num_ways_; }
  uint64_t slots_per_way() const { return slots_per_way_; }
  uint32_t key_width() const { return key_width_; }
  uint32_t payload_width() const { return payload_width_; }

  /// Number of entries resident in the ways (excludes overflow).
  uint64_t size() const { return size_; }

  /// Number of entries that fell out to the overflow buffer.
  uint64_t overflow_size() const { return overflow_keys_.size() / key_width_; }

  /// Total displacements performed by kick chains (a hardware-background
  /// activity; reported for the ablation bench).
  uint64_t total_kicks() const { return total_kicks_; }

  /// Occupied fraction of the way slots.
  double LoadFactor() const {
    return static_cast<double>(size_) /
           static_cast<double>(static_cast<uint64_t>(num_ways_) *
                               slots_per_way_);
  }

 private:
  uint64_t HashWay(const uint8_t* key, int way) const;
  /// Finds `key` (ways first, then overflow) and returns its payload or
  /// nullptr. Records the key's slot in each way it hashed into `slots`;
  /// on a miss that is every way. Shared by Lookup and Upsert.
  uint8_t* Probe(const uint8_t* key, uint64_t* slots);
  /// Slot of the pending entry in `way` during a kick chain. On the first
  /// eviction (`kick == 0`) the pending entry is the upserted key, whose
  /// slots the miss probe already recorded in `key_slots`.
  uint64_t PendingSlot(int kick, const uint64_t* key_slots, int way) const {
    return kick == 0 ? key_slots[way]
                     : SlotIndex(way, HashWay(pending_key_.data(), way));
  }
  uint64_t SlotIndex(int way, uint64_t slot) const {
    return static_cast<uint64_t>(way) * slots_per_way_ + slot;
  }
  const uint8_t* SlotKey(uint64_t idx) const {
    return keys_.data() + idx * key_width_;
  }
  uint8_t* SlotKey(uint64_t idx) { return keys_.data() + idx * key_width_; }
  const uint8_t* SlotPayload(uint64_t idx) const {
    return payloads_.data() + idx * PayloadStride();
  }
  uint8_t* SlotPayload(uint64_t idx) {
    return payloads_.data() + idx * PayloadStride();
  }
  /// Payload stride is at least 1 so zero-payload (distinct) tables still
  /// have addressable (empty) payload storage.
  uint32_t PayloadStride() const {
    return payload_width_ == 0 ? 1 : payload_width_;
  }
  bool KeyEquals(const uint8_t* a, const uint8_t* b) const;

  int num_ways_;
  uint64_t slots_per_way_;
  uint32_t key_width_;
  uint32_t payload_width_;
  uint64_t slot_mask_;

  std::vector<bool> occupied_;
  /// BRAM images, demand-zero: a table costs the host only the pages its
  /// inserts have written.
  DemandZeroMemory keys_;
  DemandZeroMemory payloads_;

  ByteBuffer overflow_keys_;
  ByteBuffer overflow_payloads_;

  /// Kick-chain scratch (the pending entry and the evictee it swaps with).
  /// Members so a steady-state Upsert does not allocate — inserts run once
  /// per distinct key at line rate (DESIGN.md §8).
  ByteBuffer pending_key_;
  ByteBuffer pending_payload_;
  ByteBuffer evicted_key_;
  ByteBuffer evicted_payload_;

  uint64_t size_ = 0;
  uint64_t total_kicks_ = 0;
};

}  // namespace farview

#endif  // FARVIEW_HASH_CUCKOO_TABLE_H_
