// Unit tests for hashing, the cuckoo hash table, and the shift-register LRU.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "hash/cuckoo_table.h"
#include "hash/hash.h"
#include "hash/lru_shift_register.h"

namespace farview {
namespace {

// ---------------------------------------------------------------------------
// Hash functions
// ---------------------------------------------------------------------------

TEST(HashTest, MixHashDeterministic) {
  EXPECT_EQ(MixHash64(42, 1), MixHash64(42, 1));
  EXPECT_NE(MixHash64(42, 1), MixHash64(42, 2));
  EXPECT_NE(MixHash64(42, 1), MixHash64(43, 1));
}

TEST(HashTest, HashBytesRespectsLength) {
  const uint8_t data[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_NE(HashBytes(data, 8, 0), HashBytes(data, 9, 0));
  EXPECT_EQ(HashBytes(data, 12, 7), HashBytes(data, 12, 7));
  EXPECT_NE(HashBytes(data, 12, 7), HashBytes(data, 12, 8));
}

TEST(HashTest, AvalancheOnSingleBitFlip) {
  uint8_t a[8] = {0};
  uint8_t b[8] = {0};
  b[0] = 1;
  const uint64_t ha = HashBytes(a, 8, 0);
  const uint64_t hb = HashBytes(b, 8, 0);
  // At least a quarter of the bits should differ.
  EXPECT_GE(__builtin_popcountll(ha ^ hb), 16);
}

TEST(HashTest, UniformBucketSpread) {
  // Sequential keys should spread across 256 buckets roughly uniformly.
  std::vector<int> buckets(256, 0);
  for (uint64_t i = 0; i < 256 * 64; ++i) {
    uint8_t key[8];
    StoreLE64(key, i);
    buckets[HashBytes(key, 8, 1) & 255]++;
  }
  for (int b : buckets) {
    EXPECT_GT(b, 16);
    EXPECT_LT(b, 256);
  }
}

// ---------------------------------------------------------------------------
// CuckooTable
// ---------------------------------------------------------------------------

void MakeKey(uint64_t v, uint8_t out[8]) { StoreLE64(out, v); }

TEST(CuckooTest, InsertAndLookup) {
  CuckooTable t(4, 1024, 8, 8);
  uint8_t key[8];
  MakeKey(7, key);
  EXPECT_EQ(t.Lookup(key), nullptr);
  uint8_t* payload = nullptr;
  EXPECT_EQ(t.Upsert(key, &payload), CuckooTable::UpsertResult::kInserted);
  ASSERT_NE(payload, nullptr);
  StoreLE64(payload, 99);
  EXPECT_EQ(t.size(), 1u);
  uint8_t* found = t.Lookup(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(LoadLE64(found), 99u);
}

TEST(CuckooTest, UpsertFindsExisting) {
  CuckooTable t(4, 1024, 8, 8);
  uint8_t key[8];
  MakeKey(5, key);
  uint8_t* p1 = nullptr;
  EXPECT_EQ(t.Upsert(key, &p1), CuckooTable::UpsertResult::kInserted);
  uint8_t* p2 = nullptr;
  EXPECT_EQ(t.Upsert(key, &p2), CuckooTable::UpsertResult::kFound);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(t.size(), 1u);
}

TEST(CuckooTest, PayloadZeroInitialized) {
  CuckooTable t(2, 64, 8, 16);
  uint8_t key[8];
  MakeKey(1, key);
  uint8_t* p = nullptr;
  t.Upsert(key, &p);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(p[i], 0);

  // Clear() leaves a reused slot's old payload bytes in place; the insert
  // must zero them rather than rely on the image being zero-initialized.
  std::memset(p, 0xab, 16);
  t.Clear();
  uint8_t* q = nullptr;
  EXPECT_EQ(t.Upsert(key, &q), CuckooTable::UpsertResult::kInserted);
  EXPECT_EQ(q, p);  // same key, empty table: the same slot
  for (int i = 0; i < 16; ++i) EXPECT_EQ(q[i], 0);
}

TEST(CuckooTest, ManyKeysAllRetrievable) {
  CuckooTable t(4, 4096, 8, 8);
  const uint64_t n = 8000;  // ~49% load
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    uint8_t* p = nullptr;
    t.Upsert(key, &p);
    StoreLE64(p, i * 2);
  }
  EXPECT_EQ(t.size() + t.overflow_size(), n);
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    const uint8_t* p = t.Lookup(key);
    ASSERT_NE(p, nullptr) << "missing key " << i;
    EXPECT_EQ(LoadLE64(p), i * 2);
  }
}

TEST(CuckooTest, OverflowBeyondCapacityStaysExact) {
  // Tiny table: force overflow and verify nothing is lost or duplicated.
  CuckooTable t(2, 16, 8, 0);
  const uint64_t n = 100;  // way beyond 32 slots
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    t.Upsert(key, nullptr);
  }
  EXPECT_EQ(t.size() + t.overflow_size(), n);
  EXPECT_GT(t.overflow_size(), 0u);
  // Re-upserting any key reports kFound (exact dedup including overflow).
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    EXPECT_EQ(t.Upsert(key, nullptr), CuckooTable::UpsertResult::kFound);
  }
  EXPECT_EQ(t.size() + t.overflow_size(), n);
}

TEST(CuckooTest, ForEachVisitsEveryEntryOnce) {
  CuckooTable t(4, 256, 8, 8);
  const uint64_t n = 500;
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    uint8_t* p = nullptr;
    t.Upsert(key, &p);
    StoreLE64(p, i);
  }
  std::set<uint64_t> seen;
  t.ForEach([&](const uint8_t* key, const uint8_t* payload) {
    const uint64_t k = LoadLE64(key);
    EXPECT_EQ(LoadLE64(payload), k);
    EXPECT_TRUE(seen.insert(k).second) << "duplicate visit of " << k;
  });
  EXPECT_EQ(seen.size(), n);
}

TEST(CuckooTest, ClearEmptiesEverything) {
  CuckooTable t(2, 16, 8, 0);
  for (uint64_t i = 0; i < 50; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    t.Upsert(key, nullptr);
  }
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.overflow_size(), 0u);
  EXPECT_EQ(t.total_kicks(), 0u);
  uint8_t key[8];
  MakeKey(1, key);
  EXPECT_EQ(t.Lookup(key), nullptr);
}

TEST(CuckooTest, WideKeysAndPayloads) {
  // Two-column 16-byte keys with 32-byte aggregation payloads.
  CuckooTable t(4, 128, 16, 32);
  for (uint64_t i = 0; i < 100; ++i) {
    uint8_t key[16];
    StoreLE64(key, i);
    StoreLE64(key + 8, i * 7);
    uint8_t* p = nullptr;
    EXPECT_EQ(t.Upsert(key, &p), CuckooTable::UpsertResult::kInserted);
    StoreLE64(p + 24, i);
  }
  for (uint64_t i = 0; i < 100; ++i) {
    uint8_t key[16];
    StoreLE64(key, i);
    StoreLE64(key + 8, i * 7);
    const uint8_t* p = t.Lookup(key);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(LoadLE64(p + 24), i);
  }
}

TEST(CuckooTest, LoadFactorAndKicks) {
  CuckooTable t(2, 64, 8, 0);
  for (uint64_t i = 0; i < 96; ++i) {  // 75% of 128 slots
    uint8_t key[8];
    MakeKey(i * 1000003, key);
    t.Upsert(key, nullptr);
  }
  EXPECT_GT(t.LoadFactor(), 0.5);
  // At 75% on 2 ways, some kicks are overwhelmingly likely.
  EXPECT_GT(t.total_kicks(), 0u);
}

// Pins the exact placement behaviour of a small table driven past capacity:
// which way each key lands in, the kick chains and which entries overflow
// all show in the ForEach order. The expected values were recorded from the
// reference implementation; any change to probe order, kick order or the
// overflow path moves them. Payloads follow their keys through kicks.
struct PlacementDigest {
  uint64_t size;
  uint64_t kicks;
  uint64_t overflow;
  uint64_t found;
  uint64_t order_hash;  // FNV-1a over the ForEach (key, payload) sequence
};

PlacementDigest DrivePlacement(uint32_t key_width) {
  CuckooTable t(2, 64, key_width, 8);
  Rng rng(2024);
  uint64_t found = 0;
  std::vector<uint8_t> key(key_width);
  for (int i = 0; i < 400; ++i) {
    // ~190 distinct keys over 128 slots, with repeats.
    const uint64_t v = rng.NextBelow(190) * 0x9e3779b97f4a7c15ull;
    for (uint32_t off = 0; off < key_width; off += 8) {
      StoreLE64(key.data() + off, v + off);
    }
    uint8_t* p = nullptr;
    if (t.Upsert(key.data(), &p) == CuckooTable::UpsertResult::kFound) {
      ++found;
    }
    EXPECT_EQ(p, t.Lookup(key.data()));
    StoreLE64(p, LoadLE64(p) + static_cast<uint64_t>(i));
  }
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const uint8_t* bytes, uint32_t n) {
    for (uint32_t b = 0; b < n; ++b) {
      h = (h ^ bytes[b]) * 0x100000001b3ull;
    }
  };
  uint64_t visited = 0;
  t.ForEach([&](const uint8_t* k, const uint8_t* payload) {
    mix(k, key_width);
    mix(payload, 8);
    ++visited;
  });
  // Every resident entry exactly once, overflow included.
  EXPECT_EQ(visited, t.size() + t.overflow_size());
  return PlacementDigest{t.size(), t.total_kicks(), t.overflow_size(), found,
                         h};
}

TEST(CuckooTest, PlacementPinnedNarrowKeys) {
  const PlacementDigest d = DrivePlacement(8);
  EXPECT_EQ(d.size, 117u);
  EXPECT_EQ(d.kicks, 1590u);
  EXPECT_EQ(d.overflow, 48u);
  EXPECT_EQ(d.found, 235u);
  EXPECT_EQ(d.order_hash, 9397037371655414035ull);
}

TEST(CuckooTest, PlacementPinnedWideKeys) {
  const PlacementDigest d = DrivePlacement(24);
  EXPECT_EQ(d.size, 117u);
  EXPECT_EQ(d.kicks, 1618u);
  EXPECT_EQ(d.overflow, 48u);
  EXPECT_EQ(d.found, 235u);
  EXPECT_EQ(d.order_hash, 381017084717462218ull);
}

TEST(CuckooDeathTest, RequiresPowerOfTwoSlots) {
  EXPECT_DEATH(CuckooTable(2, 100, 8, 0), "power of two");
}

TEST(CuckooDeathTest, RejectsBadWaysAndKeyWidth) {
  EXPECT_DEATH(CuckooTable(0, 64, 8, 0), "num_ways");
  EXPECT_DEATH(CuckooTable(CuckooTable::kMaxWays + 1, 64, 8, 0), "num_ways");
  EXPECT_DEATH(CuckooTable(2, 0, 8, 0), "power of two");
  EXPECT_DEATH(CuckooTable(2, 64, 0, 0), "key_width");
}

// ---------------------------------------------------------------------------
// LruShiftRegister
// ---------------------------------------------------------------------------

TEST(LruTest, MissThenHit) {
  LruShiftRegister lru(4, 8);
  uint8_t k[8];
  MakeKey(1, k);
  EXPECT_FALSE(lru.Touch(k));
  EXPECT_TRUE(lru.Touch(k));
  EXPECT_EQ(lru.hits(), 1u);
  EXPECT_EQ(lru.misses(), 1u);
}

TEST(LruTest, EvictsLeastRecentlyUsed) {
  LruShiftRegister lru(2, 8);
  uint8_t k1[8], k2[8], k3[8];
  MakeKey(1, k1);
  MakeKey(2, k2);
  MakeKey(3, k3);
  lru.Touch(k1);
  lru.Touch(k2);
  lru.Touch(k3);  // evicts k1
  EXPECT_FALSE(lru.Contains(k1));
  EXPECT_TRUE(lru.Contains(k2));
  EXPECT_TRUE(lru.Contains(k3));
}

TEST(LruTest, TouchRefreshesRecency) {
  LruShiftRegister lru(2, 8);
  uint8_t k1[8], k2[8], k3[8];
  MakeKey(1, k1);
  MakeKey(2, k2);
  MakeKey(3, k3);
  lru.Touch(k1);
  lru.Touch(k2);
  lru.Touch(k1);  // k1 most recent; k2 is now LRU
  lru.Touch(k3);  // evicts k2
  EXPECT_TRUE(lru.Contains(k1));
  EXPECT_FALSE(lru.Contains(k2));
}

TEST(LruTest, BackToBackDuplicatesAreHits) {
  // The hazard the hardware LRU exists to mask: equal keys closer together
  // than the hash pipeline depth.
  LruShiftRegister lru(8, 8);
  uint8_t k[8];
  MakeKey(42, k);
  EXPECT_FALSE(lru.Touch(k));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(lru.Touch(k));
  }
}

TEST(LruTest, SizeNeverExceedsDepth) {
  LruShiftRegister lru(3, 8);
  for (uint64_t i = 0; i < 100; ++i) {
    uint8_t k[8];
    MakeKey(i, k);
    lru.Touch(k);
    EXPECT_LE(lru.size(), 3u);
  }
}

TEST(LruTest, ClearForgetsEverything) {
  LruShiftRegister lru(4, 8);
  uint8_t k[8];
  MakeKey(1, k);
  lru.Touch(k);
  lru.Clear();
  EXPECT_FALSE(lru.Contains(k));
  EXPECT_EQ(lru.size(), 0u);
}

// Property: a DISTINCT built from (LRU + cuckoo) must agree with a std::set
// on random streams, including heavy duplication.
TEST(LruCuckooPropertyTest, DistinctAgreesWithReference) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    CuckooTable table(4, 256, 8, 0);
    LruShiftRegister lru(8, 8);
    std::set<uint64_t> reference;
    uint64_t emitted = 0;
    const uint64_t domain = 1 + rng.NextBelow(400);
    for (int i = 0; i < 3000; ++i) {
      const uint64_t v = rng.NextBelow(domain);
      uint8_t key[8];
      MakeKey(v, key);
      const bool is_new_ref = reference.insert(v).second;
      bool emitted_now = false;
      if (!lru.Touch(key)) {
        if (table.Upsert(key, nullptr) != CuckooTable::UpsertResult::kFound) {
          emitted_now = true;
          ++emitted;
        }
      }
      EXPECT_EQ(emitted_now, is_new_ref) << "value " << v << " trial "
                                         << trial;
    }
    EXPECT_EQ(emitted, reference.size());
  }
}

}  // namespace
}  // namespace farview
