#include "hash/cuckoo_table.h"

#include <cstring>

#include "common/logging.h"
#include "hash/hash.h"

namespace farview {

namespace {
/// Kick-chain bound: after this many displacements the entry overflows. The
/// hardware uses a small bound because eviction happens in the background
/// without stalling the pipeline.
constexpr int kMaxKicks = 32;

/// Validates the constructor arguments before the BRAM images are sized or
/// mapped; returns the total slot count.
uint64_t CheckedSlotCount(int num_ways, uint64_t slots_per_way,
                          uint32_t key_width) {
  FV_CHECK(num_ways >= 1 && num_ways <= CuckooTable::kMaxWays)
      << "num_ways must be in [1, " << CuckooTable::kMaxWays << "], got "
      << num_ways;
  FV_CHECK(IsPowerOfTwo(slots_per_way))
      << "slots_per_way must be a power of two, got " << slots_per_way;
  FV_CHECK(key_width > 0) << "key_width must be positive";
  return static_cast<uint64_t>(num_ways) * slots_per_way;
}
}  // namespace

CuckooTable::CuckooTable(int num_ways, uint64_t slots_per_way,
                         uint32_t key_width, uint32_t payload_width)
    : num_ways_(num_ways),
      slots_per_way_(slots_per_way),
      key_width_(key_width),
      payload_width_(payload_width),
      slot_mask_(slots_per_way - 1),
      occupied_(CheckedSlotCount(num_ways, slots_per_way, key_width), false),
      keys_(occupied_.size() * key_width_),
      payloads_(occupied_.size() * PayloadStride()) {
  pending_key_.reserve(key_width_);
  pending_payload_.reserve(PayloadStride());
  evicted_key_.reserve(key_width_);
  evicted_payload_.reserve(PayloadStride());
}

uint64_t CuckooTable::HashWay(const uint8_t* key, int way) const {
  // Each way uses an independent seed — the hardware instantiates one hash
  // circuit per way. Single-INT64 keys (the common shape) take the unrolled
  // HashBytes8 path; it produces the same value as the general routine.
  const uint64_t seed = 0x5bd1e995u + static_cast<uint64_t>(way);
  const uint64_t h =
      key_width_ == 8 ? HashBytes8(key, seed) : HashBytes(key, key_width_, seed);
  return h & slot_mask_;
}

bool CuckooTable::KeyEquals(const uint8_t* a, const uint8_t* b) const {
  return KeyEqual(a, b, key_width_);
}

uint8_t* CuckooTable::Probe(const uint8_t* key, uint64_t* slots) {
  for (int w = 0; w < num_ways_; ++w) {
    const uint64_t idx = SlotIndex(w, HashWay(key, w));
    slots[w] = idx;
    if (occupied_[idx] && KeyEquals(SlotKey(idx), key)) {
      return SlotPayload(idx);
    }
  }
  const uint64_t n = overflow_size();
  for (uint64_t i = 0; i < n; ++i) {
    if (KeyEquals(overflow_keys_.data() + i * key_width_, key)) {
      return overflow_payloads_.data() + i * PayloadStride();
    }
  }
  return nullptr;
}

uint8_t* CuckooTable::Lookup(const uint8_t* key) {
  uint64_t slots[kMaxWays];
  return Probe(key, slots);
}

const uint8_t* CuckooTable::Lookup(const uint8_t* key) const {
  return const_cast<CuckooTable*>(this)->Lookup(key);
}

CuckooTable::UpsertResult CuckooTable::Upsert(const uint8_t* key,
                                              uint8_t** payload_out) {
  // A miss leaves the key's slot in every way in `slots`: each way is
  // hashed once, and the first placement attempt (pending entry == key,
  // starting at way 0) reuses them.
  uint64_t slots[kMaxWays];
  if (uint8_t* p = Probe(key, slots)) {
    if (payload_out) *payload_out = p;
    return UpsertResult::kFound;
  }

  // Not present. Fast path: one of the key's own way slots is free, tried
  // in way order 0..W-1, and the key goes there directly.
  for (int w = 0; w < num_ways_; ++w) {
    const uint64_t idx = slots[w];
    if (!occupied_[idx]) {
      occupied_[idx] = true;
      std::memcpy(SlotKey(idx), key, key_width_);
      std::memset(SlotPayload(idx), 0, PayloadStride());
      ++size_;
      if (payload_out) *payload_out = SlotPayload(idx);
      return UpsertResult::kInserted;
    }
  }

  // Every way is full for this key: kick. The pending/evictee entries live
  // in member scratch (resized within their reserved capacity), so the
  // insert path is allocation-free.
  pending_key_.resize(key_width_);
  std::memcpy(pending_key_.data(), key, key_width_);
  pending_payload_.resize(PayloadStride());
  std::memset(pending_payload_.data(), 0, PayloadStride());

  int way = 0;
  for (int kick = 0; kick < kMaxKicks; ++kick) {
    // Evict the occupant of the pending entry's slot in `way`, take its
    // place, and continue with the evictee in the next way (Section 5.4:
    // "upon the eviction from one of the tables, the evicted entry is
    // inserted into the next hash table").
    const uint64_t idx = PendingSlot(kick, slots, way);
    evicted_key_.assign(SlotKey(idx), SlotKey(idx) + key_width_);
    evicted_payload_.assign(SlotPayload(idx),
                            SlotPayload(idx) + PayloadStride());
    std::memcpy(SlotKey(idx), pending_key_.data(), key_width_);
    std::memcpy(SlotPayload(idx), pending_payload_.data(), PayloadStride());
    pending_key_.swap(evicted_key_);
    pending_payload_.swap(evicted_payload_);
    ++total_kicks_;
    way = (way + 1) % num_ways_;
    // Try all ways for a free slot for the evictee.
    for (int w = 0; w < num_ways_; ++w) {
      const int try_way = (way + w) % num_ways_;
      const uint64_t free_idx =
          SlotIndex(try_way, HashWay(pending_key_.data(), try_way));
      if (!occupied_[free_idx]) {
        occupied_[free_idx] = true;
        std::memcpy(SlotKey(free_idx), pending_key_.data(), key_width_);
        std::memcpy(SlotPayload(free_idx), pending_payload_.data(),
                    PayloadStride());
        ++size_;
        if (payload_out) {
          // The original key is resident now, somewhere along the
          // displaced chain — return its payload.
          *payload_out = Lookup(key);
          FV_CHECK(*payload_out != nullptr);
        }
        return UpsertResult::kInserted;
      }
    }
  }

  // Kick chain exhausted: the pending entry overflows. Note the pending
  // entry may be an evictee rather than the key being inserted.
  AppendBytes(&overflow_keys_, pending_key_.data(), key_width_);
  AppendBytes(&overflow_payloads_, pending_payload_.data(), PayloadStride());
  if (payload_out) {
    *payload_out = Lookup(key);
    FV_CHECK(*payload_out != nullptr);
  }
  return UpsertResult::kOverflow;
}

void CuckooTable::Clear() {
  // Key/payload bytes of unoccupied slots are never read (every probe
  // checks `occupied_` first, and inserts overwrite both arrays, zeroing a
  // reused slot's stale payload), so only the occupancy bits need
  // resetting. This keeps Clear proportional to the bitmap, not to the BRAM
  // image — regions Clear a full-size table between queries that may have
  // touched a handful of slots.
  std::fill(occupied_.begin(), occupied_.end(), false);
  overflow_keys_.clear();
  overflow_payloads_.clear();
  size_ = 0;
  total_kicks_ = 0;
}

}  // namespace farview
