// Google-benchmark microbenchmarks for the hot primitives underneath the
// simulator and the functional operators. These measure *host* throughput
// (how fast the simulation itself runs), not simulated time — useful when
// tuning the library and for spotting regressions.

#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/aes_ctr.h"
#include "hash/cuckoo_table.h"
#include "hash/hash.h"
#include "hash/lru_shift_register.h"
#include "mem/dram_config.h"
#include "mem/mmu.h"
#include "mem/physical_memory.h"
#include "operators/batch.h"
#include "operators/pipeline.h"
#include "regex/regex.h"
#include "sim/engine.h"
#include "sim/server.h"
#include "table/generator.h"

namespace farview {
namespace {

void BM_HashBytes8(benchmark::State& state) {
  uint8_t key[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashBytes(key, 8, seed++));
  }
}
BENCHMARK(BM_HashBytes8);

void BM_AesEncryptBlock(benchmark::State& state) {
  uint8_t key[16] = {0x2b, 0x7e};
  Aes128 aes(key);
  uint8_t block[16] = {1};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block[0]);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_AesCtrStream(benchmark::State& state) {
  uint8_t key[16] = {1};
  uint8_t nonce[16] = {2};
  AesCtr ctr(key, nonce);
  ByteBuffer data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    ctr.Apply(data.data(), data.size(), 0);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtrStream)->Arg(4096)->Arg(65536);

void BM_RegexSearch(benchmark::State& state) {
  Result<Regex> re = Regex::Compile("x(q|z)[a-f]*q?");
  if (!re.ok()) return;
  const std::string text(static_cast<size_t>(state.range(0)), 'a');
  for (auto _ : state) {
    benchmark::DoNotOptimize(re.value().Search(text));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RegexSearch)->Arg(64)->Arg(1024);

// Regex selection over CHAR(64) fields shaped like the regex workloads:
// TableGenerator::Strings rows, 25% holding the needle "farview", the rest
// random lowercase without the needle's first byte. Arg 1 searches for
// "farview" (one byte leaves the start state: the memchr skip); arg 2 for
// "[fg]arview" (two bytes: the plain table loop). Reports rows/s.
void BM_RegexStringsField(benchmark::State& state) {
  constexpr uint64_t kRows = 4096;
  constexpr uint32_t kWidth = 64;
  TableGenerator gen(7);
  Result<Table> table = gen.Strings(kRows, kWidth, "farview", 0.25);
  Result<Regex> re =
      Regex::Compile(state.range(0) == 1 ? "farview" : "[fg]arview");
  if (!table.ok() || !re.ok()) return;
  const Table& t = table.value();
  for (auto _ : state) {
    uint64_t hits = 0;
    for (uint64_t r = 0; r < kRows; ++r) {
      const std::string_view field(
          reinterpret_cast<const char*>(t.Row(r).ColumnData(0)), kWidth);
      hits += re.value().Search(field) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_RegexStringsField)->Arg(1)->Arg(2);

// One 1 MiB Mmu::ReadInto (a scan's materialization) followed by a read of
// the copy, as the region's stream parser does — the access pattern that
// decides between cached and non-temporal copy stores.
void BM_MmuReadInto(benchmark::State& state) {
  constexpr uint64_t kSpan = 1ull << 20;
  PhysicalMemory phys(4 * Mmu::kPageSize, Mmu::kPageSize);
  Mmu mmu(&phys);
  Result<uint64_t> vaddr = mmu.Alloc(0, kSpan);
  if (!vaddr.ok()) return;
  std::vector<uint8_t> src(kSpan);
  for (uint64_t i = 0; i < kSpan; ++i) src[i] = static_cast<uint8_t>(i * 131);
  if (!mmu.Write(0, vaddr.value(), kSpan, src.data()).ok()) return;
  ByteBuffer out;
  out.reserve(kSpan);
  for (auto _ : state) {
    out.clear();
    if (!mmu.ReadInto(0, vaddr.value(), kSpan, &out).ok()) return;
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    uint64_t sum = 0;
    for (uint64_t i = 0; i < kSpan; i += 8) sum += LoadLE64(out.data() + i);
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kSpan));
}
BENCHMARK(BM_MmuReadInto);

// Construction and destruction of a default node's 1 GiB DRAM backing, which
// every node set-up pays before its tables are uploaded.
void BM_PhysicalMemoryConstruct(benchmark::State& state) {
  const uint64_t capacity = DramConfig{}.TotalCapacity();
  for (auto _ : state) {
    PhysicalMemory phys(capacity, Mmu::kPageSize);
    benchmark::DoNotOptimize(phys.num_frames());
  }
}
BENCHMARK(BM_PhysicalMemoryConstruct);

// One 2 MiB frame written in full, then freed. The free's scrub hands the
// frame's pages back to the host, so the next write faults them in again;
// timing write + free together weighs that against a memset scrub of warm
// pages.
void BM_FreeFrameScrub(benchmark::State& state) {
  PhysicalMemory phys(Mmu::kPageSize, Mmu::kPageSize);
  const std::vector<uint8_t> fill(Mmu::kPageSize, 0x5a);
  for (auto _ : state) {
    Result<uint64_t> frame = phys.AllocFrame();
    if (!frame.ok()) return;
    const uint64_t base = phys.FrameAddress(frame.value());
    if (!phys.WritePhysical(base, fill.size(), fill.data()).ok()) return;
    if (!phys.FreeFrame(frame.value()).ok()) return;
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(Mmu::kPageSize));
}
BENCHMARK(BM_FreeFrameScrub);

void BM_CuckooUpsert(benchmark::State& state) {
  CuckooTable table(4, 1 << 16, 8, 8);
  Rng rng(1);
  for (auto _ : state) {
    uint8_t key[8];
    StoreLE64(key, rng.NextBelow(1 << 15));
    uint8_t* payload = nullptr;
    benchmark::DoNotOptimize(table.Upsert(key, &payload));
  }
}
BENCHMARK(BM_CuckooUpsert);

void BM_LruTouch(benchmark::State& state) {
  LruShiftRegister lru(8, 8);
  Rng rng(2);
  for (auto _ : state) {
    uint8_t key[8];
    StoreLE64(key, rng.NextBelow(16));
    benchmark::DoNotOptimize(lru.Touch(key));
  }
}
BENCHMARK(BM_LruTouch);

void BM_StreamParserPush(benchmark::State& state) {
  const Schema schema = Schema::DefaultWideRow();
  StreamParser parser(&schema);
  ByteBuffer chunk(4096, 0x5a);
  for (auto _ : state) {
    Batch b = parser.Push(chunk.data(), chunk.size());
    benchmark::DoNotOptimize(b.num_rows);
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_StreamParserPush);

void BM_SelectionPipeline(benchmark::State& state) {
  const Schema schema = Schema::DefaultWideRow();
  TableGenerator gen(3);
  Result<Table> t = gen.Uniform(schema, 16384, 100);
  if (!t.ok()) return;
  Result<Pipeline> p =
      PipelineBuilder(schema)
          .Select({Predicate::Int(0, CompareOp::kLt, 50)})
          .Build();
  if (!p.ok()) return;
  for (auto _ : state) {
    p.value().Reset();
    Batch in = Batch::Empty(&schema);
    in.data = t.value().bytes();
    in.num_rows = t.value().num_rows();
    Result<Batch> out = p.value().Process(std::move(in));
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(t.value().size_bytes()));
}
BENCHMARK(BM_SelectionPipeline);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      e.ScheduleAt(i, [&counter] { ++counter; });
    }
    e.Run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_ServerFairShare(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    sim::Server s(&e, "link", 12.5e9);
    for (int f = 0; f < 6; ++f) {
      for (int i = 0; i < 200; ++i) {
        s.Submit(f, 1024, nullptr);
      }
    }
    e.Run();
    benchmark::DoNotOptimize(s.total_bytes_served());
  }
  state.SetItemsProcessed(state.iterations() * 1200);
}
BENCHMARK(BM_ServerFairShare);

}  // namespace
}  // namespace farview

BENCHMARK_MAIN();
