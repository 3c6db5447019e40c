// Extension ablation: read scaling of a sharded Farview pool (DESIGN.md
// §13, EXPERIMENTS.md "ext_shardout").
//
// 32 key-tables are homed across S shards by key hash; 32 closed-loop
// readers pick a key per request — uniformly, or from a skewed
// distribution that sends half the traffic to the keys homed on shard 0 —
// and read the whole table. Each shard serves its stripe through its own
// network link, so aggregate throughput scales with S until the reader
// pool stops saturating the shards; under skew the hot shard's submission
// queue grows while its siblings idle, which surfaces as a p99 gap long
// before the aggregate rate collapses. The second table shows the
// per-shard request imbalance the skew creates at S=8.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "benchlib/experiment.h"
#include "common/logging.h"
#include "common/rng.h"
#include "fv/sharding.h"
#include "table/generator.h"

namespace farview {
namespace {

constexpr uint64_t kTableBytes = 256 * kKiB;
constexpr int kNumTables = 32;
constexpr int kReaders = 32;
constexpr SimTime kHorizon = 8 * kMillisecond;
/// Pause before reissuing after a failed read (queue-full or outage
/// fast-fails settle at the issuing instant; an unpaced loop would spin).
constexpr SimTime kFailPause = 50 * kMicrosecond;
/// Skew: probability that a request targets a key homed on shard 0.
constexpr double kHotShare = 0.5;

struct ShardRun {
  double gbps = 0;      ///< aggregate completed-read GB/s over the horizon
  double p50_us = 0;
  double p99_us = 0;
  double reads = 0;     ///< completed reads inside the horizon
  std::vector<double> reads_per_shard;
};

double PercentileUs(std::vector<SimTime>* latencies, double p) {
  if (latencies->empty()) return 0;
  std::sort(latencies->begin(), latencies->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(latencies->size() - 1));
  return ToMicros((*latencies)[idx]);
}

/// Runs one shard count under one key distribution and collects the
/// aggregate rate plus the read-latency tail.
ShardRun RunShardout(const Table& rows, int shards, bool skewed) {
  ShardedConfig sc;
  sc.num_shards = shards;
  // Deepen the submission queues so the reader pool can stack requests on a
  // hot shard instead of bouncing.
  // Retries stay off: a hot shard's queue wait exceeds the 250 us attempt
  // deadline by design, and this experiment measures that wait as p99 —
  // not the retry layer's reaction to it (ext_faults covers that).
  sc.cluster.node.submission_queue_depth = 64;

  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, /*client_id=*/1);
  FV_CHECK(client.OpenConnection().ok());

  // Key-tables homed by hash: key k lives wholly on shard k mod S.
  std::vector<FTable> fts(kNumTables);
  for (int k = 0; k < kNumTables; ++k) {
    FTable& ft = fts[static_cast<size_t>(k)];
    ft.name = "t" + std::to_string(k);
    ft.schema = rows.schema();
    ft.num_rows = rows.num_rows();
    FV_CHECK(client.AllocTableMem(&ft, /*home_shard=*/k % shards).ok());
    FV_CHECK(client.TableWrite(ft, rows).ok());
  }

  Rng rng(0x5eedull + 1000 * static_cast<uint64_t>(shards) +
          (skewed ? 1 : 0));
  // Hot keys are the ones homed on shard 0: k in {0, S, 2S, ...}.
  const uint64_t hot_keys =
      static_cast<uint64_t>(kNumTables) / static_cast<uint64_t>(shards);
  auto pick = [&]() -> const FTable& {
    if (skewed && rng.NextBernoulli(kHotShare)) {
      const uint64_t h = rng.NextBelow(hot_keys);
      return fts[static_cast<size_t>(h) * static_cast<size_t>(shards)];
    }
    return fts[static_cast<size_t>(rng.NextBelow(kNumTables))];
  };

  const SimTime start = engine.Now();
  const SimTime end = start + kHorizon;
  std::vector<SimTime> latencies;
  uint64_t ok_bytes = 0;

  // Closed-loop readers sharing the one sharded client: reissue on
  // completion, pause on failure so same-instant rejections cannot spin.
  std::function<void()> issue = [&]() {
    client.TableReadAsync(pick(), [&](Result<FvResult> r) {
      if (engine.Now() >= end) return;
      if (r.ok()) {
        latencies.push_back(r.value().Elapsed());
        ok_bytes += r.value().data.size();
        issue();
      } else {
        engine.ScheduleAfter(kFailPause, issue);
      }
    });
  };
  for (int c = 0; c < kReaders; ++c) issue();
  engine.Run();

  ShardRun run;
  run.reads = static_cast<double>(latencies.size());
  run.gbps = static_cast<double>(ok_bytes) /
             (static_cast<double>(kHorizon) / static_cast<double>(kSecond)) /
             1e9;
  run.p50_us = PercentileUs(&latencies, 0.50);
  run.p99_us = PercentileUs(&latencies, 0.99);
  for (int s = 0; s < shards; ++s) {
    run.reads_per_shard.push_back(static_cast<double>(
        pool.shard(s).node(0).stats().sharding().fragment_reads));
  }
  return run;
}

void Run() {
  TableGenerator gen(7);
  Result<Table> t =
      gen.Uniform(Schema::DefaultWideRow(), kTableBytes / 64, 100);
  if (!t.ok()) return;

  bench::SeriesPrinter scaling(
      "Extension: sharded pool read scaling — 32 closed-loop readers over "
      "32 x 256 KiB key-tables [aggregate GB/s, p99 us]",
      "shards",
      {"uni GB/s", "uni x1", "uni p99 us", "skew GB/s", "skew p99 us"});
  double base_gbps = 0;
  ShardRun uni8, skew8;
  for (const int shards : {1, 2, 4, 8, 16}) {
    const ShardRun uni = RunShardout(t.value(), shards, false);
    const ShardRun skew = RunShardout(t.value(), shards, true);
    if (shards == 1) base_gbps = uni.gbps;
    if (shards == 8) {
      uni8 = uni;
      skew8 = skew;
    }
    scaling.Row(std::to_string(shards),
                {uni.gbps, base_gbps > 0 ? uni.gbps / base_gbps : 0,
                 uni.p99_us, skew.gbps, skew.p99_us});
  }
  scaling.Print();

  bench::SeriesPrinter imbalance(
      "Extension: per-shard read share at S=8 — the skewed distribution "
      "concentrates on the hot shard", "shard",
      {"uniform reads", "skewed reads"});
  for (int s = 0; s < 8; ++s) {
    imbalance.Row(std::to_string(s),
                  {uni8.reads_per_shard[static_cast<size_t>(s)],
                   skew8.reads_per_shard[static_cast<size_t>(s)]});
  }
  imbalance.Print();
}

}  // namespace
}  // namespace farview

int main() {
  farview::Run();
  return 0;
}
