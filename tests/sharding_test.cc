// Sharded Farview pool (DESIGN.md §13): address-space striping, the
// distributed allocator's edge cases, scatter/gather data paths, operator
// routing that follows the data, and the composition with the replication
// layer. Assertions are seed-independent (the `shardout` label joins the
// CI FV_FAULT_SEED sweep).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "benchlib/experiment.h"
#include "fv/sharding.h"
#include "optimizer/optimizer.h"
#include "table/generator.h"

namespace farview {
namespace {

Table MakeRows(uint64_t bytes, uint64_t gen_seed = 7) {
  TableGenerator gen(gen_seed);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), bytes / 64, 100);
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

ShardedConfig TestConfig(int shards, int replicas = 1) {
  ShardedConfig sc;
  sc.num_shards = shards;
  sc.cluster.num_replicas = replicas;
  sc.cluster.node.retry.enabled = true;
  return sc;
}

FTable AllocOnly(ShardedClient& client, const Table& rows,
                 const std::string& name = "t", int home_shard = -1) {
  FTable ft;
  ft.name = name;
  ft.schema = rows.schema();
  ft.num_rows = rows.num_rows();
  EXPECT_TRUE(client.AllocTableMem(&ft, home_shard).ok());
  return ft;
}

/// Splits packed rows into sortable per-row byte strings (order-insensitive
/// result comparison for merged group-by output).
std::vector<std::string> SortedRows(const ByteBuffer& data, uint32_t width) {
  EXPECT_EQ(data.size() % width, 0u);
  std::vector<std::string> rows;
  for (size_t off = 0; off < data.size(); off += width) {
    rows.emplace_back(reinterpret_cast<const char*>(data.data() + off), width);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ShardingTest, StripedAllocScatterGatherRoundTrip) {
  ShardedConfig sc = TestConfig(4);
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());

  const Table rows = MakeRows(1 * kMiB);
  FTable ft = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());
  Result<FvResult> read = client.TableRead(ft);
  ASSERT_TRUE(read.ok());
  // Fragment order restores row order: the gathered bytes are the table.
  EXPECT_EQ(read.value().data, rows.bytes());
  // Every shard carried exactly one fragment of the write and the read.
  for (int s = 0; s < 4; ++s) {
    const NodeStats::ShardingStats& stats =
        pool.shard(s).node(0).stats().sharding();
    EXPECT_EQ(stats.fragment_writes, 1u) << "shard " << s;
    EXPECT_EQ(stats.fragment_reads, 1u) << "shard " << s;
    EXPECT_EQ(stats.gather_bytes, rows.size_bytes() / 4) << "shard " << s;
  }
  ASSERT_TRUE(client.FreeTableMem(&ft).ok());
}

TEST(ShardingTest, OneShardPoolIsPlainDelegation) {
  // S=1 keeps the whole table in one fragment at an untranslated address;
  // the event-count/clock identity against a bare node is pinned separately
  // in fault_identity_test.cc.
  ShardedConfig sc = TestConfig(1);
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(256 * kKiB);
  FTable ft = AllocOnly(client, rows);
  EXPECT_EQ(pool.ShardOf(ft.vaddr), 0);
  EXPECT_EQ(pool.LocalVaddr(ft.vaddr), ft.vaddr);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());
  Result<FvResult> read = client.TableRead(ft);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, rows.bytes());
}

TEST(ShardingTest, AllocationSpanningShardBoundaryIsRejected) {
  // Shrink the stripe so a legal MMU allocation can cross it: the allocator
  // starts at the 2 MiB page, so a 3 MiB fragment ends at 5 MiB — past a
  // 4 MiB stripe. The pool must reject with a typed OutOfRange (never
  // silently split the fragment across stripes) and roll the whole
  // multi-shard allocation back.
  ShardedConfig sc = TestConfig(2);
  sc.shard_stride = 4 * kMiB;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());

  const Table big = MakeRows(6 * kMiB);
  FTable ft;
  ft.name = "big";
  ft.schema = big.schema();
  ft.num_rows = big.num_rows();
  const Status st = client.AllocTableMem(&ft);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
  EXPECT_NE(st.ToString().find("shard boundary"), std::string::npos);
  EXPECT_EQ(ft.vaddr, 0u);

  // Rollback: the rejected fragment was freed on shard 0 (its local base —
  // the first allocation of a fresh pool — no longer translates), and the
  // pool still serves a fitting table.
  EXPECT_FALSE(
      pool.shard(0).node(0).mmu().Translate(1, Mmu::kPageSize).ok());
  const Table small = MakeRows(1 * kMiB);
  FTable ok = AllocOnly(client, small, "small");
  ASSERT_TRUE(client.TableWrite(ok, small).ok());
  Result<FvResult> read = client.TableRead(ok);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, small.bytes());
}

TEST(ShardingTest, FreeAndShareOfRemappedVaddrFailTyped) {
  ShardedConfig sc = TestConfig(2);
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());

  const Table rows = MakeRows(256 * kKiB);
  FTable ft = AllocOnly(client, rows, "a");

  // A handle pointing at a live vaddr but describing a different table must
  // not free or share the registered table's memory.
  FTable remapped = ft;
  remapped.name = "b";
  Status st = client.FreeTableMem(&remapped);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_NE(st.ToString().find("remapped"), std::string::npos);
  EXPECT_TRUE(client.ShareTable(remapped).status().IsFailedPrecondition());

  FTable wrong_rows = ft;
  wrong_rows.num_rows = ft.num_rows / 2;
  EXPECT_TRUE(client.FreeTableMem(&wrong_rows).IsFailedPrecondition());

  // After a genuine free the address is unmapped: a stale copy of the old
  // handle gets a typed NotFound, not a silent no-op.
  FTable stale = ft;
  ASSERT_TRUE(client.FreeTableMem(&ft).ok());
  EXPECT_TRUE(client.FreeTableMem(&stale).IsNotFound());
  EXPECT_TRUE(client.ShareTable(stale).status().IsNotFound());
}

TEST(ShardingTest, AllShardsDownFastFailsAtTheIssuingInstant) {
  // Mirror of the PR 5 pool-dead fast-fail bound, one level up: with every
  // shard's only replica crashed and the breakers open, a gathered read
  // must settle at its issuing instant with Unavailable — the scatter layer
  // must not serialize per-shard timeouts or burn backoff.
  ShardedConfig sc = TestConfig(2);
  sc.cluster.node.faults.enabled = true;
  sc.cluster.node.faults.node_crash_at = 500 * kMicrosecond;
  sc.faulted_shard = -1;  // the whole pool goes dark
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(256 * kKiB);
  FTable ft = AllocOnly(client, rows);

  std::optional<Status> settled;
  SimTime issued_at = 0;
  SimTime settled_at = 0;
  engine.ScheduleAt(1 * kMillisecond, [&]() {
    issued_at = engine.Now();
    client.TableReadAsync(ft, [&](Result<FvResult> r) {
      settled.emplace(r.status());
      settled_at = engine.Now();
    });
  });
  engine.Run();

  ASSERT_TRUE(settled.has_value());
  EXPECT_TRUE(settled->IsUnavailable());
  EXPECT_EQ(settled_at, issued_at) << "gathered fast-fail burned time";
  for (int s = 0; s < 2; ++s) {
    EXPECT_GT(pool.shard(s).node(0).stats().reliability().fast_fails, 0u)
        << "shard " << s;
  }
}

TEST(ShardingTest, OneShardDownFanOutsSettleOnceWithUnavailable) {
  // Partial failure: shard 1's only replica is crashed while shard 0
  // serves. Every fan-out (scattered write, gathered read, offloaded
  // select and group-by) must settle exactly once with the down shard's
  // Unavailable — never with the healthy shard's partial result, and never
  // twice when the healthy hop arrives after the failed one.
  ShardedConfig sc = TestConfig(2);
  sc.cluster.node.faults.enabled = true;
  sc.cluster.node.faults.node_crash_at = 500 * kMicrosecond;
  sc.faulted_shard = 1;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(256 * kKiB);
  FTable ft = AllocOnly(client, rows);

  int write_settles = 0;
  int read_settles = 0;
  std::optional<Status> wrote;
  std::optional<Status> read;
  engine.ScheduleAt(1 * kMillisecond, [&]() {
    client.TableWriteAsync(ft, rows, [&](Result<SimTime> r) {
      ++write_settles;
      wrote.emplace(r.status());
    });
    client.TableReadAsync(ft, [&](Result<FvResult> r) {
      ++read_settles;
      read.emplace(r.status());
    });
  });
  engine.Run();
  EXPECT_EQ(write_settles, 1);
  EXPECT_EQ(read_settles, 1);
  ASSERT_TRUE(wrote.has_value());
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(wrote->IsUnavailable()) << wrote->ToString();
  EXPECT_TRUE(read->IsUnavailable()) << read->ToString();

  const Result<FvResult> selected =
      client.FvSelect(ft, {Predicate::Int(0, CompareOp::kLt, 50)});
  EXPECT_TRUE(selected.status().IsUnavailable())
      << selected.status().ToString();
  const Result<FvResult> grouped =
      client.FvGroupBy(ft, {0}, {AggSpec::Count(), AggSpec::Sum(1)});
  EXPECT_TRUE(grouped.status().IsUnavailable())
      << grouped.status().ToString();

  // The healthy shard applied its write fragment and served its read
  // fragment; the down shard served nothing. Neither ran an operator
  // fragment: the pipeline load already failed on the down shard, so no
  // scan was issued anywhere.
  const NodeStats::ShardingStats& up = pool.shard(0).node(0).stats().sharding();
  EXPECT_EQ(up.fragment_writes, 1u);
  EXPECT_EQ(up.fragment_reads, 1u);
  EXPECT_EQ(up.fragment_offloads, 0u);
  const NodeStats::ShardingStats& down =
      pool.shard(1).node(0).stats().sharding();
  EXPECT_EQ(down.fragment_reads, 0u);
  EXPECT_EQ(down.fragment_offloads, 0u);
}

TEST(ShardingTest, FreeDuringShardOutageRetriesOnlyUnfreedFragments) {
  // Regression: a free that fails on a later shard must keep exactly the
  // fragments it could not free registered. Keeping the whole entry made
  // the retry re-free fragment 0 (NotFound) and leak the rest for good.
  ShardedConfig sc = TestConfig(2);
  sc.cluster.node.faults.enabled = true;
  sc.cluster.node.faults.node_crash_at = 500 * kMicrosecond;
  sc.cluster.node.faults.node_restart_at = 2 * kMillisecond;
  sc.faulted_shard = 1;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(256 * kKiB);
  FTable ft = AllocOnly(client, rows);
  const uint64_t vaddr = ft.vaddr;

  std::optional<Status> during_outage;
  engine.ScheduleAt(1 * kMillisecond,
                    [&]() { during_outage.emplace(client.FreeTableMem(&ft)); });
  engine.Run();
  ASSERT_TRUE(during_outage.has_value());
  EXPECT_TRUE(during_outage->IsUnavailable()) << during_outage->ToString();
  EXPECT_EQ(ft.vaddr, vaddr) << "a failed free must keep the handle";
  ASSERT_TRUE(pool.shard(1).InSync(0)) << "shard 1 never rejoined";
  // Half freed, the table no longer has a whole row range to serve.
  EXPECT_TRUE(client.TableRead(ft).status().IsFailedPrecondition());

  const Status retried = client.FreeTableMem(&ft);
  EXPECT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(ft.vaddr, 0u);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(pool.shard(s).node(0).mmu().allocated_bytes(), 0u)
        << "shard " << s;
  }
}

TEST(ShardingTest, UnconnectedClientFailsPrecondition) {
  ShardedConfig sc = TestConfig(2);
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  const Table rows = MakeRows(64 * kKiB);
  FTable ft;
  ft.name = "t";
  ft.schema = rows.schema();
  ft.num_rows = rows.num_rows();
  ft.vaddr = Mmu::kPageSize;

  EXPECT_TRUE(client.TableWrite(ft, rows).status().IsFailedPrecondition());
  EXPECT_TRUE(client.TableRead(ft).status().IsFailedPrecondition());
  EXPECT_TRUE(client.FvSelect(ft, {}).status().IsFailedPrecondition());
  EXPECT_TRUE(client.FvGroupBy(ft, {0}, {AggSpec::Count()})
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(client.FvJoin(ft, 0, ft, 0).status().IsFailedPrecondition());
  // Async calls settle through `done` at the calling instant.
  std::optional<Status> wrote;
  std::optional<Status> read;
  client.TableWriteAsync(ft, rows,
                         [&](Result<SimTime> r) { wrote.emplace(r.status()); });
  client.TableReadAsync(ft,
                        [&](Result<FvResult> r) { read.emplace(r.status()); });
  ASSERT_TRUE(wrote.has_value());
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(wrote->IsFailedPrecondition()) << wrote->ToString();
  EXPECT_TRUE(read->IsFailedPrecondition()) << read->ToString();
}

TEST(ShardingTest, ShardedSelectMatchesSingleNodeOffload) {
  const Table rows = MakeRows(256 * kKiB);
  const std::vector<Predicate> preds = {
      Predicate::Int(0, CompareOp::kLt, 50)};
  const std::vector<int> projection = {0, 1, 2};

  bench::FvFixture fx;
  const FTable single_ft = fx.Upload("t", rows);
  Result<FvResult> single =
      fx.client().FvSelect(single_ft, preds, projection);
  ASSERT_TRUE(single.ok());

  ShardedConfig sc = TestConfig(3);
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  FTable ft = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());
  Result<FvResult> sharded = client.FvSelect(ft, preds, projection);
  ASSERT_TRUE(sharded.ok());

  // Selection/projection stream in row order per fragment and fragments
  // gather in row-range order: the result is byte-identical, not merely
  // set-equal.
  EXPECT_EQ(sharded.value().rows, single.value().rows);
  EXPECT_EQ(sharded.value().data, single.value().data);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(pool.shard(s).node(0).stats().sharding().fragment_offloads, 1u);
  }
}

TEST(ShardingTest, ShardedGroupByWithAvgMatchesSingleNode) {
  const Table rows = MakeRows(256 * kKiB);
  const std::vector<int> keys = {0};
  const std::vector<AggSpec> aggs = {AggSpec::Count(), AggSpec::Sum(1),
                                     AggSpec::Min(1), AggSpec::Max(2),
                                     AggSpec::Avg(3)};

  bench::FvFixture fx;
  const FTable single_ft = fx.Upload("t", rows);
  Result<FvResult> single = fx.client().FvGroupBy(single_ft, keys, aggs);
  ASSERT_TRUE(single.ok());

  ShardedConfig sc = TestConfig(4);
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  FTable ft = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());
  Result<FvResult> sharded = client.FvGroupBy(ft, keys, aggs);
  ASSERT_TRUE(sharded.ok());

  // The merge reassembles exactly the single-node groups (SUM/COUNT over
  // shards is exact, AVG finalizes from the combined totals); only the
  // group order differs, so compare as sorted row sets.
  ASSERT_EQ(sharded.value().rows, single.value().rows);
  const uint32_t width = static_cast<uint32_t>(
      single.value().data.size() / single.value().rows);
  EXPECT_EQ(SortedRows(sharded.value().data, width),
            SortedRows(single.value().data, width));
  // Each shard shipped at least its own partial groups for the merge.
  uint64_t partials = 0;
  for (int s = 0; s < 4; ++s) {
    partials += pool.shard(s).node(0).stats().sharding().partial_groups;
  }
  EXPECT_GE(partials, sharded.value().rows);
}

TEST(ShardingTest, ShardedJoinRepartitionsBuildSideAcrossShards) {
  const Table probe = MakeRows(256 * kKiB, 7);
  Table build(Schema::DefaultWideRow());
  for (int64_t k = 0; k < 50; ++k) {
    const uint64_t r = build.AppendRow();
    build.SetInt64(r, 0, k);
    build.SetInt64(r, 1, 1000 + k);
  }

  bench::FvFixture fx;
  const FTable single_ft = fx.Upload("probe", probe);
  Result<FvResult> single = fx.client().FvJoinSmall(single_ft, 0, build, 0);
  ASSERT_TRUE(single.ok());

  // Probe striped over all shards, build homed on shard 1: every probe
  // fragment joins against a build side that lives elsewhere, forcing the
  // repartitioning path.
  ShardedConfig sc = TestConfig(4);
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  FTable probe_ft = AllocOnly(client, probe, "probe");
  ASSERT_TRUE(client.TableWrite(probe_ft, probe).ok());
  FTable build_ft = AllocOnly(client, build, "build", /*home_shard=*/1);
  ASSERT_TRUE(client.TableWrite(build_ft, build).ok());

  Result<FvResult> sharded = client.FvJoin(probe_ft, 0, build_ft, 0);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.value().rows, single.value().rows);
  EXPECT_EQ(sharded.value().data, single.value().data);
  // The build bytes were repartitioned out of their home shard.
  EXPECT_EQ(pool.shard(1).node(0).stats().sharding().repartition_bytes,
            build.size_bytes());
}

TEST(ShardingTest, ShardedCostStubScalesDownAndDegeneratesAtOne) {
  const FarviewConfig fv;
  const CpuModelConfig cpu;
  const Optimizer opt(fv, cpu);
  // A selective scan: the shard-local offload shrinks with S while the
  // client-side gather stays small. (A selectivity-1.0 fetch would *not*
  // scale — the gather term re-reads the whole table regardless of S —
  // which is exactly the trade-off the stub exists to expose.)
  QuerySpec spec;
  spec.predicates.push_back(Predicate::Int(0, CompareOp::kLt, 5));
  const Schema schema = Schema::DefaultWideRow();
  TableStats stats;
  stats.num_rows = (256 * kMiB) / 64;
  stats.tuple_bytes = 64;
  stats.selectivity = 0.05;

  const SimTime one = opt.EstimateSharded(spec, schema, stats, 1);
  EXPECT_EQ(one, opt.EstimateFarview(spec, schema, stats, false, false, 0));
  const SimTime two = opt.EstimateSharded(spec, schema, stats, 2);
  const SimTime eight = opt.EstimateSharded(spec, schema, stats, 8);
  EXPECT_LT(two, one);
  EXPECT_LT(eight, two);
  // The gather term keeps the stub honest: sharding never estimates below
  // the client-side cost of re-reading the gathered result.
  EXPECT_GT(eight, 0);
}

TEST(ShardingTest, PartialAggSpecsRewriteAvgIntoSumAndCount) {
  std::vector<int> index;
  const std::vector<AggSpec> partials = PartialAggSpecs(
      {AggSpec::Avg(2), AggSpec::Count(), AggSpec::Max(1)}, &index);
  ASSERT_EQ(partials.size(), 4u);
  EXPECT_EQ(partials[0].kind, AggKind::kSum);
  EXPECT_EQ(partials[0].col, 2);
  EXPECT_EQ(partials[1].kind, AggKind::kCount);
  EXPECT_EQ(partials[2].kind, AggKind::kCount);
  EXPECT_EQ(partials[3].kind, AggKind::kMax);
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index[0], 0);
  EXPECT_EQ(index[1], 2);
  EXPECT_EQ(index[2], 3);
}

}  // namespace
}  // namespace farview
