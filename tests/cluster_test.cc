// Replicated-pool tests (DESIGN.md §12): mirrored writes, breaker-routed
// reads with failover, epoch fencing, crash recovery with resync, and the
// fast-fail latency bound. Labelled `failover` so CI reruns them under the
// FV_FAULT_SEED sanitizer sweep — like the `faults` suite, assertions are
// invariants that must hold for ANY seed, never seed-specific counts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "fv/cluster.h"
#include "operators/pipeline.h"
#include "table/generator.h"

namespace farview {
namespace {

/// Seed under test: FV_FAULT_SEED when set (the CI seed sweep), else 1.
uint64_t TestSeed() {
  const char* env = std::getenv("FV_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

Table MakeRows(uint64_t bytes, uint64_t gen_seed = 7) {
  TableGenerator gen(gen_seed);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), bytes / 64, 100);
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// Cluster config for tests: retry policy on, seeded from the CI sweep.
ClusterConfig TestConfig(int replicas) {
  ClusterConfig cc;
  cc.node.retry.enabled = true;
  cc.num_replicas = replicas;
  cc.seed = TestSeed();
  return cc;
}

/// Allocates without running the engine (pure bookkeeping), so tests can
/// position requests relative to config-scheduled fault instants.
FTable AllocOnly(ClusterClient& client, const Table& rows,
                 const std::string& name = "t") {
  FTable ft;
  ft.name = name;
  ft.schema = rows.schema();
  ft.num_rows = rows.num_rows();
  EXPECT_TRUE(client.AllocTableMem(&ft).ok());
  return ft;
}

/// Reads the table's bytes straight from one replica's MMU (bypassing the
/// router) to check replica convergence.
ByteBuffer ReplicaBytes(FarviewCluster& cluster, int r, int client_id,
                        const FTable& ft) {
  ByteBuffer buf;
  EXPECT_TRUE(cluster.node(r)
                  .mmu()
                  .ReadInto(client_id, ft.vaddr, ft.SizeBytes(), &buf)
                  .ok());
  return buf;
}

TEST(ClusterTest, MirroredWriteReachesEveryReplica) {
  sim::Engine engine;
  FarviewCluster cluster(&engine, TestConfig(3));
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);

  Result<SimTime> wrote = client.TableWrite(ft, rows);
  ASSERT_TRUE(wrote.ok());
  EXPECT_GT(wrote.value(), 0);

  const ByteBuffer expect(rows.data(), rows.data() + rows.size_bytes());
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(cluster.InSync(r));
    EXPECT_EQ(cluster.applied_epoch(r), cluster.epoch());
    EXPECT_EQ(ReplicaBytes(cluster, r, 1, ft), expect) << "replica " << r;
  }
}

TEST(ClusterTest, RoutedReadsRoundRobinAcrossReplicas) {
  sim::Engine engine;
  FarviewCluster cluster(&engine, TestConfig(3));
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());

  for (int i = 0; i < 6; ++i) {
    Result<FvResult> read = client.TableRead(ft);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data.size(), rows.size_bytes());
  }
  // Healthy pool: round-robin spreads the 6 reads 2-2-2.
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.node(r).stats().reliability().cluster_requests, 2u)
        << "replica " << r;
  }
}

TEST(ClusterTest, CrashFailoverKeepsReadsSucceeding) {
  ClusterConfig cc = TestConfig(2);
  cc.faulted_replica = 0;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;  // stays down
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(256 * kKiB);
  FTable ft = AllocOnly(client, rows);

  // Reads paced across the crash instant; every one must succeed — the
  // router fails the victim's traffic over to the survivor.
  int ok = 0;
  int issued = 0;
  for (SimTime t = 100 * kMicrosecond; t < 3 * kMillisecond;
       t += 200 * kMicrosecond) {
    ++issued;
    engine.ScheduleAt(t, [&]() {
      client.TableReadAsync(ft, [&](Result<FvResult> r) {
        if (r.ok()) ++ok;
      });
    });
  }
  client.TableWriteAsync(ft, rows, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  engine.Run();

  EXPECT_EQ(ok, issued);
  EXPECT_FALSE(cluster.InSync(0));
  EXPECT_TRUE(cluster.InSync(1));
  // The crash observation force-opened replica 0's breaker; its in-flight
  // read (if any) failed over. The survivor served the tail.
  EXPECT_GE(cluster.node(0).stats().reliability().circuit_opens, 1u);
  EXPECT_GT(cluster.node(1).stats().reliability().cluster_requests, 0u);
}

TEST(ClusterTest, FastFailSettlesImmediatelyWhenPoolIsDead) {
  // Regression guard for the fast-fail fix: with the only replica crashed
  // and its breaker open, a read must settle at its issuing instant with
  // Unavailable — not after completion_timeout * max_attempts of burned
  // backoff (1.75 ms with the default RetryPolicy).
  ClusterConfig cc = TestConfig(1);
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 500 * kMicrosecond;
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(64 * kKiB);
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
  EXPECT_EQ(settled_at, issued_at) << "fast-fail burned simulated time";
  uint64_t fast_fails = 0;
  fast_fails += cluster.node(0).stats().reliability().fast_fails;
  EXPECT_GT(fast_fails, 0u);
}

TEST(ClusterTest, CircuitBreakerLifecycle) {
  sim::Engine engine;
  NodeStats stats;
  CircuitBreakerPolicy policy;
  CircuitBreaker breaker(&engine, policy, TestSeed(), &stats);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < policy.failure_threshold; ++i) {
    EXPECT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.BlocksAttempts());
  EXPECT_EQ(stats.reliability().circuit_opens, 1u);

  // Advance past the worst-case reopen instant (duration + full jitter):
  // the next AllowRequest is the lazy Open -> Half-Open transition.
  engine.ScheduleAt(policy.open_duration + policy.open_jitter, []() {});
  engine.Run();
  EXPECT_FALSE(breaker.BlocksAttempts());
  bool probe = false;
  EXPECT_TRUE(breaker.AllowRequest(&probe));
  EXPECT_TRUE(probe);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(stats.reliability().circuit_half_opens, 1u);

  // A failed probe re-trips; another cool-down, then successful probes
  // close it.
  breaker.RecordFailure(/*probe=*/true);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  engine.ScheduleAt(2 * (policy.open_duration + policy.open_jitter), []() {});
  engine.Run();
  for (int i = 0; i < policy.probe_successes; ++i) {
    probe = false;
    EXPECT_TRUE(breaker.AllowRequest(&probe));
    EXPECT_TRUE(probe);
    breaker.RecordSuccess(probe);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(stats.reliability().circuit_closes, 1u);
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST(ClusterTest, ShedLoadNeverTripsTheBreaker) {
  // Regression (DESIGN.md §15): a replica shedding load with
  // `ResourceExhausted` is healthy, not dead. Sheds must neither count
  // toward the trip threshold nor mask real failures between them.
  sim::Engine engine;
  NodeStats stats;
  CircuitBreakerPolicy policy;
  CircuitBreaker breaker(&engine, policy, TestSeed(), &stats);

  // Any volume of shed load leaves the breaker Closed...
  for (int i = 0; i < 100; ++i) breaker.RecordShed();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(stats.reliability().circuit_opens, 0u);

  // ...and sheds interleaved with real failures do not reset the
  // consecutive-failure count the way a success would: the threshold-th
  // failure still trips.
  for (int i = 0; i < policy.failure_threshold - 1; ++i) {
    breaker.RecordFailure();
    breaker.RecordShed();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(stats.reliability().circuit_opens, 1u);
}

TEST(ClusterTest, ShedProbeSettlesItsHalfOpenSlot) {
  // A Half-Open probe answered with a shed proves liveness: it must settle
  // the probe slot like a success (else the slot leaks and the breaker
  // wedges Half-Open), while stale non-probe sheds stay ignored.
  sim::Engine engine;
  NodeStats stats;
  CircuitBreakerPolicy policy;
  CircuitBreaker breaker(&engine, policy, TestSeed(), &stats);

  for (int i = 0; i < policy.failure_threshold; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  engine.ScheduleAt(policy.open_duration + policy.open_jitter, []() {});
  engine.Run();

  // Stale sheds (routed pre-trip, landing now) must not advance the
  // episode.
  bool probe = false;
  ASSERT_TRUE(breaker.AllowRequest(&probe));
  ASSERT_TRUE(probe);
  breaker.RecordShed(/*probe=*/false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(stats.reliability().circuit_closes, 0u);

  // Shed probes close the breaker exactly like successful ones.
  breaker.RecordShed(/*probe=*/true);
  for (int i = 1; i < policy.probe_successes; ++i) {
    probe = false;
    ASSERT_TRUE(breaker.AllowRequest(&probe));
    ASSERT_TRUE(probe);
    breaker.RecordShed(/*probe=*/true);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(stats.reliability().circuit_closes, 1u);
}

TEST(ClusterTest, StaleCompletionsDoNotSettleHalfOpenProbes) {
  sim::Engine engine;
  NodeStats stats;
  CircuitBreakerPolicy policy;
  CircuitBreaker breaker(&engine, policy, TestSeed(), &stats);

  // Trip, then reopen Half-Open with one probe in flight.
  for (int i = 0; i < policy.failure_threshold; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  engine.ScheduleAt(policy.open_duration + policy.open_jitter, []() {});
  engine.Run();
  bool probe = false;
  ASSERT_TRUE(breaker.AllowRequest(&probe));
  ASSERT_TRUE(probe);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // Completions of requests routed while the breaker was still Closed now
  // land. Under the pre-fix accounting each would count as a probe
  // outcome: two stale successes would close the breaker without a single
  // probe ever completing, and a stale failure would re-trip it. Both must
  // be ignored.
  breaker.RecordSuccess(/*probe=*/false);
  breaker.RecordSuccess(/*probe=*/false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(stats.reliability().circuit_closes, 0u);
  breaker.RecordFailure(/*probe=*/false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // The real probe outcomes still drive the episode.
  breaker.RecordSuccess(/*probe=*/true);
  ASSERT_TRUE(breaker.AllowRequest(&probe));
  ASSERT_TRUE(probe);
  breaker.RecordSuccess(/*probe=*/true);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(stats.reliability().circuit_closes, 1u);
}

TEST(ClusterTest, NonRetryableProbeOutcomeDoesNotLeakProbeSlots) {
  // A Half-Open probe that draws a non-retryable error (bad request, not
  // replica health) must settle its slot: the router records it as a probe
  // success. Before the fix the slot was consumed and never returned, so a
  // breaker whose every probe drew a bad request wedged Half-Open with no
  // slots — permanently excluding a healthy replica from routing.
  ClusterConfig cc = TestConfig(2);
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(256 * kKiB, 3);
  FTable ft = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());

  // Trip replica 0's breaker, then wait out the cool-down.
  for (int i = 0; i < cc.breaker.failure_threshold; ++i) {
    client.breaker(0).RecordFailure();
  }
  ASSERT_EQ(client.breaker(0).state(), CircuitBreaker::State::kOpen);
  engine.ScheduleAt(engine.Now() + cc.breaker.open_duration +
                        cc.breaker.open_jitter,
                    []() {});
  engine.Run();

  // Exhaust every probe slot with reads of a bogus table (MMU NotFound —
  // non-retryable). Round-robin alternates replicas; issue enough requests
  // that at least `probe_successes` of them probe replica 0.
  FTable bogus = ft;
  bogus.vaddr = 0xDEAD0000;
  for (int i = 0; i < 2 * cc.breaker.probe_successes; ++i) {
    Result<FvResult> res = client.TableRead(bogus);
    EXPECT_FALSE(res.ok());
    EXPECT_FALSE(res.status().IsUnavailable());
  }

  // The probes settled as successes, so the breaker closed instead of
  // wedging Half-Open with zero slots; replica 0 serves reads again.
  EXPECT_EQ(client.breaker(0).state(), CircuitBreaker::State::kClosed);
  const uint64_t served_before =
      cluster.node(0).stats().reliability().cluster_requests;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.TableRead(ft).ok());
  }
  EXPECT_GT(cluster.node(0).stats().reliability().cluster_requests,
            served_before);
}

TEST(ClusterTest, RestartResyncsMissedWritesFromSurvivor) {
  ClusterConfig cc = TestConfig(2);
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(256 * kKiB, 7);
  const Table v2 = MakeRows(256 * kKiB, 8);
  FTable ft = AllocOnly(client, v1);

  // v1 lands on both replicas; v2 is written while replica 0 is down and
  // must reach it through the recovery resync stream after restart.
  std::optional<Status> wrote_v2;
  client.TableWriteAsync(ft, v1, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  engine.ScheduleAt(1500 * kMicrosecond, [&]() {
    EXPECT_FALSE(cluster.InSync(0));  // fenced while down
    client.TableWriteAsync(ft, v2, [&](Result<SimTime> w) {
      wrote_v2.emplace(w.status());
    });
  });
  engine.Run();

  ASSERT_TRUE(wrote_v2.has_value());
  EXPECT_TRUE(wrote_v2->ok());
  EXPECT_TRUE(cluster.InSync(0)) << "replica 0 never rejoined";
  EXPECT_GT(cluster.in_sync_at(0), cc.node.faults.node_restart_at);
  const ByteBuffer expect(v2.data(), v2.data() + v2.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), expect);
  const NodeStats::ReliabilityStats& rel =
      cluster.node(0).stats().reliability();
  EXPECT_EQ(rel.resyncs, 1u);
  EXPECT_EQ(rel.resync_bytes, v2.size_bytes());
  EXPECT_GT(rel.resync_time, 0);
}

TEST(ClusterTest, ControlEntriesReplayOnRejoin) {
  ClusterConfig cc = TestConfig(2);
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable keep = AllocOnly(client, rows);
  // Async: the sync wrapper would drain the whole fault timeline before
  // the scheduled mid-outage operations below were registered.
  client.TableWriteAsync(keep, rows, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });

  // While replica 0 is down: free one table, allocate + write another.
  // Rejoin must replay the free and the alloc (checking address agreement)
  // before the resync stream copies the new table's bytes.
  FTable fresh;
  std::optional<Status> late_ops;
  engine.ScheduleAt(1500 * kMicrosecond, [&]() {
    Status s = client.FreeTableMem(&keep);
    if (s.ok()) {
      fresh.name = "fresh";
      fresh.schema = rows.schema();
      fresh.num_rows = rows.num_rows();
      s = client.AllocTableMem(&fresh);
    }
    if (s.ok()) {
      client.TableWriteAsync(fresh, rows, [&](Result<SimTime> w) {
        late_ops.emplace(w.status());
      });
    } else {
      late_ops.emplace(s);
    }
  });
  engine.Run();

  ASSERT_TRUE(late_ops.has_value());
  EXPECT_TRUE(late_ops->ok());
  EXPECT_TRUE(cluster.InSync(0));
  EXPECT_EQ(cluster.applied_epoch(0), cluster.epoch());
  // The replayed allocator state matches: the fresh table's bytes are
  // readable at the agreed address on the recovered replica.
  const ByteBuffer expect(rows.data(), rows.data() + rows.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, fresh), expect);
  // And the freed table is gone on both replicas.
  for (int r = 0; r < 2; ++r) {
    EXPECT_FALSE(cluster.node(r).mmu().Translate(1, keep.vaddr).ok())
        << "replica " << r;
  }
}

TEST(ClusterTest, FencedReplicaServesNoReadsUntilInSync) {
  ClusterConfig cc = TestConfig(2);
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  // Slow the resync stream so the fenced window is wide and reads land in
  // it: 256 KiB at 1 Gbps is ~2 ms of resync.
  cc.replication.resync_rate_bytes_per_sec = GbpsToBytesPerSec(1.0);
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(256 * kKiB, 7);
  const Table v2 = MakeRows(256 * kKiB, 8);
  FTable ft = AllocOnly(client, v1);

  client.TableWriteAsync(ft, v1, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  engine.ScheduleAt(1200 * kMicrosecond, [&]() {
    client.TableWriteAsync(ft, v2, [](Result<SimTime> w) {
      EXPECT_TRUE(w.ok());
    });
  });
  // Reads issued across the resync window: every result must be v2 — a
  // read served by the stale replica would return v1 bytes.
  const ByteBuffer expect(v2.data(), v2.data() + v2.size_bytes());
  int checked = 0;
  const uint64_t before = cluster.node(0).stats().reliability()
                              .cluster_requests;
  for (SimTime t = 2100 * kMicrosecond; t < 4 * kMillisecond;
       t += 300 * kMicrosecond) {
    engine.ScheduleAt(t, [&]() {
      const bool fenced = !cluster.InSync(0);
      const uint64_t routed_before =
          cluster.node(0).stats().reliability().cluster_requests;
      client.TableReadAsync(ft, [&, fenced, routed_before](
                                    Result<FvResult> r) {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value().data, expect);
        if (fenced) {
          // Epoch fencing: the router never touched replica 0 for this
          // read while it was behind.
          EXPECT_EQ(cluster.node(0).stats().reliability().cluster_requests,
                    routed_before);
        }
        ++checked;
      });
    });
  }
  engine.Run();
  EXPECT_GT(checked, 0);
  (void)before;
  EXPECT_TRUE(cluster.InSync(0));
}

TEST(ClusterTest, SingleReplicaPoolRecoversWithoutSource) {
  // R=1: every write during the outage aborts (no in-rotation replica), so
  // rejoin needs no resync source and must not park forever.
  ClusterConfig cc = TestConfig(1);
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);

  std::optional<Status> down_write;
  client.TableWriteAsync(ft, rows, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  engine.ScheduleAt(1500 * kMicrosecond, [&]() {
    client.TableWriteAsync(ft, rows, [&](Result<SimTime> w) {
      down_write.emplace(w.status());
    });
  });
  engine.Run();

  ASSERT_TRUE(down_write.has_value());
  EXPECT_TRUE(down_write->IsUnavailable());
  EXPECT_TRUE(cluster.InSync(0)) << "lone replica parked after restart";
  // Post-recovery the pool serves reads again (pre-crash contents).
  Result<FvResult> read = client.TableRead(ft);
  ASSERT_TRUE(read.ok());
  const ByteBuffer expect(rows.data(), rows.data() + rows.size_bytes());
  EXPECT_EQ(read.value().data, expect);
}

TEST(ClusterTest, FailedControlOpDuringOutageDoesNotPoisonRecovery) {
  // Regression: a control op that fails at request level (bad free, doomed
  // alloc) while a replica is out of rotation must abort its log epoch.
  // A live entry would be replayed on rejoin, fail again, and crash
  // recovery through the replay-divergence check.
  ClusterConfig cc = TestConfig(2);
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);
  client.TableWriteAsync(ft, rows, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });

  engine.ScheduleAt(1500 * kMicrosecond, [&]() {
    // Free of memory that was never allocated: fails on the survivor.
    FTable bogus = ft;
    bogus.vaddr = ft.vaddr + 1 * kGiB;
    const Status freed = client.FreeTableMem(&bogus);
    EXPECT_FALSE(freed.ok());
    // Alloc doomed by client-side validation (nameless table): the entry
    // is appended before the first replica rejects it.
    FTable anon;
    anon.schema = rows.schema();
    anon.num_rows = rows.num_rows();
    EXPECT_FALSE(client.AllocTableMem(&anon).ok());
  });
  engine.Run();

  // Rejoin must skip both failed epochs instead of FV_CHECK-aborting.
  EXPECT_TRUE(cluster.InSync(0)) << "recovery never completed";
  EXPECT_EQ(cluster.applied_epoch(0), cluster.epoch());
  Result<FvResult> read = client.TableRead(ft);
  ASSERT_TRUE(read.ok());
  const ByteBuffer expect(rows.data(), rows.data() + rows.size_bytes());
  EXPECT_EQ(read.value().data, expect);
}

TEST(ClusterTest, RequestErrorWriteDoesNotFenceReplicas) {
  // Regression: a mirrored write failing for a non-health reason (freed
  // vaddr -> MMU NotFound) must surface the error to the caller without
  // fencing the primary — and then, identically, every other candidate —
  // out of rotation.
  sim::Engine engine;
  FarviewCluster cluster(&engine, TestConfig(3));
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());
  FTable stale = ft;  // keeps the vaddr the free below unmaps
  ASSERT_TRUE(client.FreeTableMem(&ft).ok());

  Result<SimTime> wrote = client.TableWrite(stale, rows);
  ASSERT_FALSE(wrote.ok());
  EXPECT_FALSE(wrote.status().IsUnavailable());
  EXPECT_FALSE(wrote.status().IsDeadlineExceeded());
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(cluster.InSync(r)) << "replica " << r << " was fenced";
    const NodeStats::ReliabilityStats& rel =
        cluster.node(r).stats().reliability();
    EXPECT_EQ(rel.failovers, 0u) << "replica " << r;
    EXPECT_EQ(rel.resyncs, 0u) << "replica " << r;
  }
  // The pool still takes writes and serves reads afterwards.
  FTable again = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(again, rows).ok());
  EXPECT_TRUE(client.TableRead(again).ok());
}

TEST(ClusterTest, RepeatedCrashMidResyncStillConverges) {
  // Regression: epochs consumed by an in-flight resync stream must return
  // to the missed list when the stream is aborted by a second crash —
  // otherwise the replica rejoins as in-sync while holding pre-crash
  // bytes, violating epoch fencing.
  ClusterConfig cc = TestConfig(2);
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  // 256 KiB at 1 Gbps is ~2 ms of resync: the 3 ms crash below lands
  // squarely inside the stream.
  cc.replication.resync_rate_bytes_per_sec = GbpsToBytesPerSec(1.0);
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(256 * kKiB, 7);
  const Table v2 = MakeRows(256 * kKiB, 8);
  FTable ft = AllocOnly(client, v1);

  client.TableWriteAsync(ft, v1, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  engine.ScheduleAt(1200 * kMicrosecond, [&]() {
    client.TableWriteAsync(ft, v2, [](Result<SimTime> w) {
      EXPECT_TRUE(w.ok());
    });
  });
  // Second outage, injected directly (the config schedule is one-shot),
  // while the first recovery's stream is still copying v2.
  engine.ScheduleAt(3 * kMillisecond, [&]() {
    EXPECT_FALSE(cluster.InSync(0)) << "resync finished before the crash";
    cluster.node(0).CrashNow();
  });
  engine.ScheduleAt(3500 * kMicrosecond, [&]() {
    cluster.node(0).RestartNow();
  });
  engine.Run();

  EXPECT_TRUE(cluster.InSync(0)) << "replica 0 never recovered twice";
  const ByteBuffer expect(v2.data(), v2.data() + v2.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), expect)
      << "rejoined holding pre-crash bytes";
  const NodeStats::ReliabilityStats& rel =
      cluster.node(0).stats().reliability();
  // Only the second, completed recovery counts as a resync; the aborted
  // stream still copied chunks, so total bytes exceed one table copy.
  EXPECT_GE(rel.resyncs, 1u);
  EXPECT_GT(rel.resync_bytes, v2.size_bytes());
}

TEST(ClusterTest, FailedConnectionLeavesClientDisconnected) {
  // Regression: OpenConnection failing on a later replica must not leave
  // clients_ partially populated — connected() would report true and the
  // router would index past the vector's end.
  ClusterConfig cc = TestConfig(2);
  cc.faulted_replica = 1;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 500 * kMicrosecond;  // stays down
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  engine.ScheduleAt(1 * kMillisecond, []() {});
  engine.Run();  // drive past the crash so replica 1 refuses connections

  ClusterClient client(&cluster, 1);
  EXPECT_FALSE(client.OpenConnection().ok());
  EXPECT_FALSE(client.connected());
}

TEST(ClusterTest, UnconnectedClientFailsPrecondition) {
  // Every data-path call on a client that never connected settles with
  // FailedPrecondition; async forms deliver it at the calling instant.
  sim::Engine engine;
  FarviewCluster cluster(&engine, TestConfig(2));
  ClusterClient client(&cluster, 1);
  const Table rows = MakeRows(64 * kKiB);
  FTable ft;
  ft.name = "t";
  ft.schema = rows.schema();
  ft.num_rows = rows.num_rows();
  const PipelineFactory factory = [schema = ft.schema]() {
    return PipelineBuilder(schema).Build();
  };

  EXPECT_TRUE(client.TableWrite(ft, rows).status().IsFailedPrecondition());
  EXPECT_TRUE(client.TableRead(ft).status().IsFailedPrecondition());
  EXPECT_TRUE(client.LoadPipeline(factory).IsFailedPrecondition());
  EXPECT_TRUE(client.FarviewRequest(client.ScanRequest(ft))
                  .status()
                  .IsFailedPrecondition());
  std::vector<Status> settled;
  client.TableWriteAsync(
      ft, rows, [&](Result<SimTime> r) { settled.push_back(r.status()); });
  client.TableReadAsync(
      ft, [&](Result<FvResult> r) { settled.push_back(r.status()); });
  client.LoadPipelineAsync(factory,
                           [&](Status s) { settled.push_back(s); });
  client.FarviewRequestAsync(client.ScanRequest(ft), [&](Result<FvResult> r) {
    settled.push_back(r.status());
  });
  ASSERT_EQ(settled.size(), 4u);
  for (const Status& s : settled) {
    EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
  }
}

TEST(ClusterTest, RejoinWithFailedPipelineReloadServesReadsOnly) {
  // Regression: a replica whose rejoin pipeline reload fails re-enters
  // rotation for reads (its bytes are in sync) but must be fenced from
  // operator routing — it would run a stale pipeline.
  // Loads reconfigure for region_reconfig_time (5 ms), so the fault
  // schedule sits past the initial load and the mid-outage one starts
  // after the first completes.
  ClusterConfig cc = TestConfig(2);
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 12 * kMillisecond;
  cc.node.faults.node_restart_at = 14 * kMillisecond;
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);
  bool fail_factory = false;
  PipelineFactory factory = [&fail_factory, &ft]() -> Result<Pipeline> {
    if (fail_factory) return Status::Internal("factory offline");
    return PipelineBuilder(ft.schema).Build();
  };

  client.TableWriteAsync(ft, rows, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  client.LoadPipelineAsync(factory, [](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  engine.ScheduleAt(13 * kMillisecond, [&]() {
    // Version bump replica 0 misses. The factory builds the survivor's
    // copy synchronously inside the call, so it can be failed right after
    // — replica 0's rejoin reload at 14 ms then has nothing to load.
    client.LoadPipelineAsync(factory, [](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
    fail_factory = true;
  });
  engine.Run();

  EXPECT_TRUE(cluster.InSync(0)) << "replica 0 never rejoined";
  const uint64_t routed_before =
      cluster.node(0).stats().reliability().cluster_requests;
  for (int i = 0; i < 4; ++i) {
    Result<FvResult> res = client.FarviewRequest(client.ScanRequest(ft));
    EXPECT_TRUE(res.ok()) << res.status().ToString();
  }
  // Every operator call went to the survivor with the current pipeline.
  EXPECT_EQ(cluster.node(0).stats().reliability().cluster_requests,
            routed_before)
      << "operator call routed to a replica with a stale pipeline";
  // Reads still use the rejoined replica: issue enough that round-robin
  // must touch it.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(client.TableRead(ft).ok());
  }
  EXPECT_GT(cluster.node(0).stats().reliability().cluster_requests,
            routed_before)
      << "rejoined replica serves no reads";
}

TEST(ClusterTest, AbortedEpochUnparksLoneFencedReplica) {
  // A mirror hop failing on an in-sync replica fences it immediately
  // (MarkMissed), and with no other in-sync replica the rejoin pass parks
  // it waiting for a resync source. If that write epoch is then aborted
  // (it landed nowhere), there is nothing to resync — the abort must purge
  // the epoch and restart the parked recovery, or the lone replica stays
  // fenced forever and the pool is dead.
  ClusterConfig cc = TestConfig(1);
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  FarviewCluster::LogEntry entry;
  entry.kind = FarviewCluster::LogEntry::Kind::kWrite;
  entry.client_id = 1;
  entry.vaddr = 0x1000;
  entry.bytes = 4 * kKiB;
  const uint64_t epoch = cluster.AppendEntry(entry);
  cluster.MarkMissed(0, epoch);
  ASSERT_FALSE(cluster.InSync(0)) << "missed epoch must fence the replica";
  cluster.AbortEntry(epoch);
  EXPECT_TRUE(cluster.InSync(0))
      << "aborted epoch left the lone replica parked";
}

TEST(ClusterTest, RepeatCrashWithAbortedEpochConvergesAndRejoins) {
  // Repeat-crash regression for the abort/generation bookkeeping: replica
  // 0 crashes, misses a write, restarts, crashes *again* mid-resync (the
  // generation guard must void the first stream and re-queue its epochs),
  // and while both replicas are down a write is aborted — the abort must
  // purge that epoch from both replicas' missed lists so neither recovery
  // ever waits on (or replays) an epoch whose bytes never existed. Replica
  // 1 in particular rejoins instantly: its only missed epoch is the
  // aborted one.
  ClusterConfig cc = TestConfig(2);
  sim::Engine engine;
  FarviewCluster cluster(&engine, cc);
  ClusterClient client(&cluster, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(1 * kMiB, 5);
  const Table v2 = MakeRows(1 * kMiB, 6);
  FTable ft = AllocOnly(client, v1);
  ASSERT_TRUE(client.TableWrite(ft, v1).ok());

  std::optional<Result<SimTime>> missed_write;
  std::optional<Result<SimTime>> aborted_write;
  engine.ScheduleAt(1 * kMillisecond, [&]() { cluster.node(0).CrashNow(); });
  engine.ScheduleAt(1100 * kMicrosecond, [&]() {
    // Lands on replica 1 only; replica 0 misses the epoch.
    client.TableWriteAsync(ft, v2,
                           [&](Result<SimTime> w) { missed_write.emplace(w); });
  });
  engine.ScheduleAt(2 * kMillisecond, [&]() { cluster.node(0).RestartNow(); });
  // The 1 MiB resync at 20 Gbps takes ~420 us; crash again mid-stream.
  engine.ScheduleAt(2100 * kMicrosecond, [&]() {
    EXPECT_FALSE(cluster.InSync(0));
    cluster.node(0).CrashNow();
  });
  engine.ScheduleAt(3 * kMillisecond, [&]() { cluster.node(1).CrashNow(); });
  engine.ScheduleAt(3100 * kMicrosecond, [&]() {
    // Both replicas down: the write applies nowhere and must be aborted.
    client.TableWriteAsync(
        ft, v1, [&](Result<SimTime> w) { aborted_write.emplace(w); });
  });
  engine.ScheduleAt(4 * kMillisecond, [&]() { cluster.node(1).RestartNow(); });
  engine.ScheduleAt(4500 * kMicrosecond, [&]() {
    // Replica 1 applied every live epoch; the aborted one must not block
    // its rejoin (there is no in-sync resync source to wait for).
    EXPECT_TRUE(cluster.InSync(1))
        << "aborted epoch blocked the survivor's rejoin";
  });
  engine.ScheduleAt(5 * kMillisecond, [&]() { cluster.node(0).RestartNow(); });
  engine.Run();

  ASSERT_TRUE(missed_write.has_value() && aborted_write.has_value());
  EXPECT_TRUE(missed_write->ok());
  ASSERT_FALSE(aborted_write->ok());
  EXPECT_TRUE(aborted_write->status().IsUnavailable());
  EXPECT_TRUE(cluster.InSync(0)) << "repeat-crashed replica never rejoined";
  EXPECT_TRUE(cluster.InSync(1));
  // Replica 0 converged to the survivor's bytes despite the aborted
  // stream of the first recovery attempt.
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), ReplicaBytes(cluster, 1, 1, ft));
  // The pool still serves both verbs.
  EXPECT_TRUE(client.TableWrite(ft, v2).ok());
  EXPECT_TRUE(client.TableRead(ft).ok());
}

}  // namespace
}  // namespace farview
