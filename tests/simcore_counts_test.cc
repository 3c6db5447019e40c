// Deterministic host-cost gate for the simulator core (DESIGN.md §8a).
//
// Eight representative workloads bracket the hot paths:
//  - fig6_read:    one client streaming 4 MiB raw reads (network stack and
//                  memory controller dominated; long burst trains).
//  - fig12_multiclient: six concurrent DISTINCT queries (operator pipeline,
//                  per-region servers, DRAM sharing — the densest event mix).
//  - ext_faults:   lossy 1 MiB reads with an 8-packet credit window
//                  (retransmit timers, attempt timeouts, client retries —
//                  far-future events stressing the calendar overflow).
//  - ext_failover, ext_shardout, ext_overload: the replication, sharding
//                  and admission layers' event mixes.
//  - megaclient at 1 and 4 worker threads: the partitioned core.
//
// Each workload runs twice in one process. Both runs must execute the same
// number of events, and the second run, whose pools are warm, is gated:
// its executed-event count must equal the committed count exactly, and its
// heap allocations (counted at the operator new boundary,
// common/alloc_counter.h) must not exceed the committed count. The first
// run is not gated on allocations because what it allocates depends on
// what ran earlier in the process. Counts only: nothing here reads a clock.
// A failing row prints the measured {events, allocs}, which is what a
// deliberate change copies into kRows.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/experiment.h"
#include "common/alloc_counter.h"
#include "common/logging.h"
#include "common/rng.h"
#include "fv/cluster.h"
#include "fv/megaclient.h"
#include "fv/region_scheduler.h"
#include "fv/sharding.h"
#include "net/net_config.h"
#include "table/generator.h"

namespace farview {
namespace {

struct Counts {
  uint64_t events = 0;
  uint64_t allocs = 0;
};

/// Runs `body` (which must run the fixture's engine to completion) and
/// returns the event/allocation deltas. Setup (table generation, uploads,
/// pipeline load) stays outside the counted region.
template <typename Body>
Counts Measure(sim::Engine& engine, Body body) {
  const uint64_t events0 = engine.executed_events();
  const uint64_t allocs0 = alloc_counter::allocations();
  body();
  return {engine.executed_events() - events0,
          alloc_counter::allocations() - allocs0};
}

/// fig6-style raw read: one client, 4 MiB table, three sequential reads.
Counts RunFig6Read() {
  constexpr uint64_t kBytes = 4 * kMiB;
  bench::FvFixture fx;
  TableGenerator gen(kBytes);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), kBytes / 64, 100);
  FV_CHECK(t.ok()) << t.status().message();
  const FTable ft = fx.Upload("t", t.value());
  return Measure(fx.engine(), [&] {
    for (int i = 0; i < 3; ++i) {
      Result<FvResult> read = fx.client().TableRead(ft);
      FV_CHECK(read.ok()) << read.status().message();
    }
  });
}

/// fig12-style batch: six clients each running DISTINCT over 128 Ki rows.
Counts RunFig12Multiclient() {
  constexpr int kClients = 6;
  constexpr uint64_t kRows = 1 << 17;
  bench::FvFixture fx;
  std::vector<FarviewClient*> clients{&fx.client()};
  for (int i = 1; i < kClients; ++i) clients.push_back(&fx.AddClient());

  TableGenerator gen(kRows);
  std::vector<FTable> tables;
  for (int i = 0; i < kClients; ++i) {
    Result<Table> t =
        gen.WithDistinct(Schema::DefaultWideRow(), kRows, 0, 32, 100);
    FV_CHECK(t.ok()) << t.status().message();
    FTable ft;
    ft.name = "t" + std::to_string(i);
    ft.schema = t.value().schema();
    ft.num_rows = kRows;
    FV_CHECK(clients[static_cast<size_t>(i)]->AllocTableMem(&ft).ok());
    FV_CHECK(clients[static_cast<size_t>(i)]->TableWrite(ft, t.value()).ok());
    tables.push_back(ft);
  }
  for (int i = 0; i < kClients; ++i) {
    Result<Pipeline> p = PipelineBuilder(tables[static_cast<size_t>(i)].schema)
                             .Distinct({0})
                             .Build();
    FV_CHECK(p.ok()) << p.status().message();
    clients[static_cast<size_t>(i)]->LoadPipelineAsync(std::move(p).value(),
                                                       [](Status) {});
  }
  fx.engine().Run();

  return Measure(fx.engine(), [&] {
    int completed = 0;
    for (int i = 0; i < kClients; ++i) {
      clients[static_cast<size_t>(i)]->FarviewRequestAsync(
          clients[static_cast<size_t>(i)]->ScanRequest(
              tables[static_cast<size_t>(i)]),
          [&completed](Result<FvResult> r) {
            if (r.ok()) ++completed;
          });
    }
    fx.engine().Run();
    FV_CHECK(completed == kClients);
  });
}

/// ext_faults-style lossy reads: 2% loss, 8-packet credit window, retries
/// enabled — the timer/retry-heavy regime.
Counts RunExtFaults() {
  constexpr uint64_t kBytes = 1 * kMiB;
  FarviewConfig cfg;
  cfg.net.credit_window_packets = 8;
  cfg.net.faults.enabled = true;
  cfg.net.faults.seed = 42;
  cfg.net.faults.packet_loss_rate = 2e-2;
  cfg.retry.enabled = true;
  bench::FvFixture fx(cfg);
  TableGenerator gen(kBytes);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), kBytes / 64, 100);
  FV_CHECK(t.ok()) << t.status().message();
  const FTable ft = fx.Upload("t", t.value());
  return Measure(fx.engine(), [&] {
    for (int i = 0; i < 12; ++i) {
      bool settled = false;
      fx.client().TableReadAsync(ft,
                                 [&settled](Result<FvResult>) { settled = true; });
      fx.engine().Run();
      FV_CHECK(settled);
    }
  });
}

/// ext_failover-style replicated pool: two replicas, replica 0 crashing at
/// 3 ms and restarting at 6 ms, a closed-loop reader failing over through
/// the circuit breakers and a periodic writer forcing a resync stream on
/// rejoin — the replication-layer event mix (DESIGN.md §12).
Counts RunExtFailover() {
  constexpr uint64_t kBytes = 1 * kMiB;
  constexpr SimTime kHorizon = 12 * kMillisecond;
  ClusterConfig cc;
  cc.node.retry.enabled = true;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 3 * kMillisecond;
  cc.node.faults.node_restart_at = 6 * kMillisecond;
  cc.num_replicas = 2;

  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, /*client_id=*/1);
  FV_CHECK(client.OpenConnection().ok());
  TableGenerator gen(kBytes);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), kBytes / 64, 100);
  FV_CHECK(t.ok()) << t.status().message();
  FTable ft;
  ft.name = "t";
  ft.schema = t.value().schema();
  ft.num_rows = t.value().num_rows();
  FV_CHECK(client.AllocTableMem(&ft).ok());

  return Measure(engine, [&] {
    int completed = 0;
    std::function<void()> issue_read = [&] {
      client.TableReadAsync(ft, [&](Result<FvResult> r) {
        if (engine.Now() >= kHorizon) return;
        if (r.ok()) ++completed;
        if (r.ok()) {
          issue_read();
        } else {
          engine.ScheduleAfter(50 * kMicrosecond, issue_read);
        }
      });
    };
    for (SimTime w = 250 * kMicrosecond; w < kHorizon;
         w += 500 * kMicrosecond) {
      engine.ScheduleAt(w, [&] {
        client.TableWriteAsync(ft, t.value(), [](Result<SimTime> r) {
          FV_IGNORE_ERROR(r.status(), "outage writes fail by design");
        });
      });
    }
    client.TableWriteAsync(ft, t.value(), [&](Result<SimTime> r) {
      FV_CHECK(r.ok()) << r.status().ToString();
      issue_read();
    });
    engine.Run();
    FV_CHECK(completed > 0);
  });
}

/// ext_shardout-style sharded pool: four shards serving 16 closed-loop
/// readers over hash-homed key-tables — the scatter/gather routing layer's
/// event mix on top of four independent node stacks (DESIGN.md §13).
Counts RunExtShardout() {
  constexpr uint64_t kBytes = 256 * kKiB;
  constexpr int kTables = 8;
  constexpr int kReaders = 16;
  constexpr SimTime kHorizon = 3 * kMillisecond;
  ShardedConfig sc;
  sc.num_shards = 4;
  sc.cluster.node.submission_queue_depth = 64;

  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, /*client_id=*/1);
  FV_CHECK(client.OpenConnection().ok());
  TableGenerator gen(kBytes);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), kBytes / 64, 100);
  FV_CHECK(t.ok()) << t.status().message();
  std::vector<FTable> fts(kTables);
  for (int k = 0; k < kTables; ++k) {
    fts[static_cast<size_t>(k)].name = "t" + std::to_string(k);
    fts[static_cast<size_t>(k)].schema = t.value().schema();
    fts[static_cast<size_t>(k)].num_rows = t.value().num_rows();
    FV_CHECK(client
                 .AllocTableMem(&fts[static_cast<size_t>(k)],
                                /*home_shard=*/k % sc.num_shards)
                 .ok());
    FV_CHECK(client.TableWrite(fts[static_cast<size_t>(k)], t.value()).ok());
  }

  return Measure(engine, [&] {
    Rng rng(42);
    const SimTime end = engine.Now() + kHorizon;
    int completed = 0;
    std::function<void()> issue = [&] {
      client.TableReadAsync(
          fts[static_cast<size_t>(rng.NextBelow(kTables))],
          [&](Result<FvResult> r) {
            if (engine.Now() >= end) return;
            if (r.ok()) {
              ++completed;
              issue();
            } else {
              engine.ScheduleAfter(50 * kMicrosecond, issue);
            }
          });
    };
    for (int c = 0; c < kReaders; ++c) issue();
    engine.Run();
    FV_CHECK(completed > 0);
  });
}

/// ext_overload-style admission storm (DESIGN.md §15): four closed-loop
/// latency-class tenants plus a 256-job batch burst through a
/// RegionScheduler with admission enabled — the token-bucket/EWMA gate and
/// the deficit-weighted drain on every submit/dispatch, the admission
/// layer's event mix.
Counts RunExtOverload() {
  constexpr uint64_t kVictimLen = 256 * kKiB;
  constexpr uint64_t kStormLen = 64 * kKiB;
  constexpr int kVictims = 4;
  constexpr int kVictimRequests = 25;
  constexpr int kStorm = 256;

  FarviewConfig config;
  config.admission.enabled = true;
  config.admission.tenant_queue_cap = 24;
  config.admission.tenant_burst = 64.0;
  config.admission.tenant_rate_per_sec = 2e6;
  sim::Engine engine;
  FarviewNode node(&engine, config);
  RegionScheduler scheduler(&node);

  TableGenerator gen(7);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), kVictimLen / 64, 100);
  FV_CHECK(t.ok()) << t.status().message();
  Result<QPair*> owner = node.ConnectShared(1);
  FV_CHECK(owner.ok());
  Result<uint64_t> vaddr =
      node.AllocTableMem(*owner.value(), t.value().size_bytes());
  FV_CHECK(vaddr.ok());
  FV_CHECK(node.mmu()
               .Write(1, vaddr.value(), t.value().size_bytes(),
                      t.value().data())
               .ok());
  FV_CHECK(node.ShareTableMem(*owner.value(), vaddr.value()).ok());

  const std::string key = "select<50";
  auto factory = []() {
    return PipelineBuilder(Schema::DefaultWideRow())
        .Select({Predicate::Int(0, CompareOp::kLt, 50)})
        .Build();
  };

  // Warm-up (pipeline reconfiguration) stays outside the counted region.
  Result<QPair*> warm_qp = node.ConnectShared(99);
  FV_CHECK(warm_qp.ok());
  FvRequest warm;
  warm.vaddr = vaddr.value();
  warm.len = kStormLen;
  warm.tuple_bytes = 64;
  for (int r = 0; r < node.config().num_regions; ++r) {
    scheduler.Submit(99, warm_qp.value()->qp_id, key, factory, warm,
                     [](Result<FvResult> res) { FV_CHECK(res.ok()); });
  }
  engine.Run();

  Result<QPair*> hot_qp = node.ConnectShared(7);
  FV_CHECK(hot_qp.ok());
  std::vector<QPair*> victim_qps;
  for (int v = 0; v < kVictims; ++v) {
    Result<QPair*> qp = node.ConnectShared(100 + v);
    FV_CHECK(qp.ok());
    victim_qps.push_back(qp.value());
  }

  return Measure(engine, [&] {
    uint64_t settled = 0;
    FvRequest hot_req = warm;
    hot_req.slo = SloClass::kBatch;
    for (int s = 0; s < kStorm; ++s) {
      scheduler.Submit(7, hot_qp.value()->qp_id, key, factory, hot_req,
                       [&settled](Result<FvResult>) { ++settled; });
    }
    FvRequest victim_req = warm;
    victim_req.len = kVictimLen;
    victim_req.slo = SloClass::kLatencySensitive;
    int done = 0;
    std::vector<int> remaining(kVictims, kVictimRequests);
    std::function<void(int)> issue = [&](int v) {
      scheduler.Submit(100 + v, victim_qps[static_cast<size_t>(v)]->qp_id,
                       key, factory, victim_req,
                       [&, v](Result<FvResult> res) {
                         FV_CHECK(res.ok()) << res.status().ToString();
                         if (--remaining[static_cast<size_t>(v)] > 0) {
                           issue(v);
                         } else {
                           ++done;
                         }
                       });
    };
    for (int v = 0; v < kVictims; ++v) issue(v);
    engine.Run();
    FV_CHECK(done == kVictims && settled == kStorm);
  });
}

/// Partitioned many-tenant workload (DESIGN.md §14): 20k closed-loop
/// sessions over 8 client + 4 node domains with seeded drops — the
/// conservative-window/mailbox/flow-aggregation event mix. Runs under
/// `threads` workers; the event count is thread-invariant (the differential
/// determinism suite pins this). Allocations are counted over the whole
/// run, setup included, and at threads > 1 they come from every worker.
Counts RunMegaclient(int threads) {
  const NetConfig net;
  MegaclientConfig cfg;
  cfg.sessions = 20000;
  cfg.client_domains = 8;
  cfg.node_domains = 4;
  cfg.node_units = 64;
  cfg.seed = 1;
  cfg.horizon = 20 * kMillisecond;
  cfg.request_latency = net.fv_request_latency;
  cfg.response_latency = net.fv_delivery_latency;
  cfg.drop_rate = 2e-3;

  const uint64_t allocs0 = alloc_counter::allocations();
  const MegaclientReport r = farview::RunMegaclient(cfg, threads);
  FV_CHECK(r.completed > 0);
  return {r.executed_events, alloc_counter::allocations() - allocs0};
}

struct Row {
  const char* name;
  Counts (*run)();
  /// The warm second run's counts: events exact, allocs an upper bound.
  Counts committed;
};

const Row kRows[] = {
    {"fig6_read", RunFig6Read, {39939, 38}},
    {"fig12_multiclient", RunFig12Multiclient, {24606, 74}},
    {"ext_faults", RunExtFaults, {40488, 379}},
    {"ext_failover", RunExtFailover, {485553, 1558}},
    {"ext_shardout", RunExtShardout, {423997, 7279}},
    {"ext_overload", RunExtOverload, {56352, 2933}},
    {"megaclient_t1", [] { return RunMegaclient(1); }, {857057, 115650}},
    {"megaclient_t4", [] { return RunMegaclient(4); }, {857057, 115654}},
};

class SimcoreCountsTest : public testing::TestWithParam<Row> {};

TEST_P(SimcoreCountsTest, WarmRunMatchesCommittedCounts) {
  const Row& row = GetParam();
  const Counts cold = row.run();
  const Counts warm = row.run();
  testing::Message measured;
  measured << "measured {events, allocs} = {" << warm.events << ", "
           << warm.allocs << "}";
  EXPECT_EQ(cold.events, warm.events) << "the two runs diverged";
  EXPECT_EQ(warm.events, row.committed.events) << measured;
  // Under ASan the sanitizer owns operator new and nothing is counted.
  if (alloc_counter::hook_active()) {
    EXPECT_LE(warm.allocs, row.committed.allocs) << measured;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, SimcoreCountsTest, testing::ValuesIn(kRows),
    [](const testing::TestParamInfo<Row>& p) { return p.param.name; });

// The allocation counters are bumped from every thread that allocates, so
// a 4-worker megaclient run must count the same total every time.
TEST(AllocCounterTest, ParallelRunCountsEveryAllocation) {
  if (!alloc_counter::hook_active()) {
    GTEST_SKIP() << "counting operator new hook not active in this binary";
  }
  const Counts first = RunMegaclient(4);
  const Counts second = RunMegaclient(4);
  EXPECT_EQ(first.allocs, second.allocs);
}

}  // namespace
}  // namespace farview
