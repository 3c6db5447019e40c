// Tests for demand-zero simulated memory: DemandZeroMemory's scrub, and the
// host footprint of the node DRAM and cuckoo BRAM images it backs.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/demand_zero_memory.h"
#include "common/units.h"
#include "hash/cuckoo_table.h"
#include "mem/dram_config.h"
#include "mem/mmu.h"
#include "mem/physical_memory.h"
#include "operators/grouping.h"

namespace farview {
namespace {

constexpr uint64_t kHostPage = 4096;

// Resident set size of this process in bytes, or -1 when the host has no
// /proc/self/status.
int64_t VmRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int64_t kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib < 0 ? -1 : kib * 1024;
}

TEST(DemandZeroMemoryTest, ZeroClearsExactlyTheRange) {
  DemandZeroMemory m(5 * kHostPage + 300);
  for (uint64_t i = 0; i < m.size(); ++i) ASSERT_EQ(m.data()[i], 0);
  std::memset(m.data(), 0xff, m.size());
  // Ranges inside one page, across one boundary, and over whole pages with
  // partial edges; each must clear [begin, end) and nothing else.
  const uint64_t ranges[][2] = {{10, 100},
                                {kHostPage - 7, 20},
                                {kHostPage + 100, 3 * kHostPage},
                                {2 * kHostPage, 2 * kHostPage},
                                {5 * kHostPage, 300},
                                {0, 0}};
  for (const auto& r : ranges) {
    SCOPED_TRACE(r[0]);
    m.Zero(r[0], r[1]);
    for (uint64_t i = 0; i < m.size(); ++i) {
      const bool inside = i >= r[0] && i < r[0] + r[1];
      ASSERT_EQ(m.data()[i], inside ? 0 : 0xff) << "byte " << i;
    }
    std::memset(m.data(), 0xff, m.size());
  }
}

TEST(DemandZeroMemoryDeathTest, ZeroOutsideTheArrayDies) {
  DemandZeroMemory m(kHostPage);
  EXPECT_DEATH(m.Zero(kHostPage - 1, 2), "outside");
}

TEST(DemandZeroFootprintTest, ConstructionTakesNoHostPages) {
  const int64_t before = VmRssBytes();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status on this host";
  // A default node's DRAM (1 GiB) and a default GROUP BY SUM table (4 ways
  // x 2^18 slots, 8 B keys, 16 B payloads: 24 MiB of BRAM image).
  PhysicalMemory pm(DramConfig{}.TotalCapacity(), Mmu::kPageSize);
  const GroupingConfig cfg;
  CuckooTable table(cfg.cuckoo_ways, cfg.slots_per_way, /*key_width=*/8,
                    internal::kAggStateBytes);
  EXPECT_EQ(pm.capacity(), 1024 * kMiB);
  EXPECT_LT(VmRssBytes() - before, static_cast<int64_t>(32 * kMiB));
}

TEST(DemandZeroFootprintTest, WrittenPagesAreChargedAndFreedFramesReturned) {
  if (VmRssBytes() < 0) GTEST_SKIP() << "no /proc/self/status on this host";
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer charges its shadow of each written page "
                  "to VmRSS too";
#endif
  PhysicalMemory pm(DramConfig{}.TotalCapacity(), Mmu::kPageSize);
  // One byte in each of the first kPages host pages: two 2 MiB frames.
  constexpr uint64_t kPages = 1024;
  const uint64_t frames = kPages * kHostPage / Mmu::kPageSize;
  for (uint64_t f = 0; f < frames; ++f) ASSERT_TRUE(pm.AllocFrame().ok());

  const int64_t before = VmRssBytes();
  const uint8_t one = 1;
  for (uint64_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(pm.WritePhysical(p * kHostPage, 1, &one).ok());
  }
  const int64_t written = VmRssBytes();
  const int64_t expected = static_cast<int64_t>(kPages * kHostPage);
  EXPECT_GE(written - before, expected * 9 / 10);
  EXPECT_LE(written - before, expected + static_cast<int64_t>(2 * kMiB));

  // The scrub hands the frames' pages back to the host.
  for (uint64_t f = 0; f < frames; ++f) ASSERT_TRUE(pm.FreeFrame(f).ok());
  EXPECT_LE(VmRssBytes() - before, expected / 10);
}

}  // namespace
}  // namespace farview
