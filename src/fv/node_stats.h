#ifndef FARVIEW_FV_NODE_STATS_H_
#define FARVIEW_FV_NODE_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "fv/request_context.h"
#include "sim/stats.h"

namespace farview {

/// Node-wide telemetry registry: the single sink for request lifecycle
/// records that used to live as scattered one-off counters across the
/// network stack, the region scheduler and the bench drivers.
///
/// The registry aggregates, per node:
///  - one `RequestRecord` per completed request, from which the per-stage
///    latency distributions (ingress, queue wait, region execution,
///    egress+delivery, end-to-end) are built on demand;
///  - per-queue-pair throughput (requests, delivered bytes, rejections,
///    failures, queue-depth high-water marks);
///  - region busy time and, via the caller, egress-link utilization.
///
/// All recording happens at simulated instants from node code; the registry
/// itself is passive bookkeeping and never schedules events, so it cannot
/// perturb timing (the shape tests stay byte-identical with it enabled).
class NodeStats {
 public:
  /// Compact completion record kept for every finished request; tests use
  /// these to assert the stage-stamp monotonicity invariant.
  struct RequestRecord {
    uint64_t request_id = 0;
    int qp_id = -1;
    int client_id = -1;
    Verb verb = Verb::kFarview;
    SimTime submitted = 0;
    SimTime ingress_done = 0;
    SimTime region_start = 0;
    SimTime first_memory_beat = 0;
    SimTime operator_done = 0;
    SimTime egress_finished = 0;
    SimTime delivered = 0;
    uint64_t bytes_on_wire = 0;
    uint64_t packets = 0;
    uint64_t rows = 0;

    /// Same invariant as RequestContext::StampsMonotone.
    bool StampsMonotone() const {
      return LifecycleStampsMonotone({submitted, ingress_done, region_start,
                                      first_memory_beat, operator_done,
                                      egress_finished, delivered});
    }
  };

  /// Fault, retry and degradation event counts (DESIGN.md §7). All stay
  /// zero while fault injection and the retry policy are disabled, and the
  /// report section is omitted then, so fault-free telemetry output is
  /// byte-identical to the seed.
  struct ReliabilityStats {
    uint64_t region_stalls = 0;     ///< injected pre-execution stalls
    uint64_t region_faults = 0;     ///< region fault windows opened
    uint64_t node_crashes = 0;      ///< whole-node crash events
    uint64_t node_restarts = 0;     ///< recoveries after a crash
    uint64_t crash_failures = 0;    ///< requests failed by a crash/down node
    uint64_t timeouts = 0;          ///< client attempts abandoned at deadline
    uint64_t retries = 0;           ///< retry attempts issued by clients
    uint64_t fallbacks = 0;         ///< degraded raw-read fallbacks
    uint64_t late_completions = 0;  ///< completions after the client gave up

    // Replication / failover events (DESIGN.md §12). Recorded on the
    // replica the event concerns: `failovers` on the replica failed away
    // from, `cluster_requests` on the replica that served a routed call,
    // circuit transitions on the replica whose breaker moved, resync
    // progress on the recovering replica. All stay zero without a cluster.
    uint64_t failovers = 0;          ///< routed calls re-sent to another replica
    uint64_t fast_fails = 0;         ///< calls settled instantly, circuit Open
    uint64_t circuit_opens = 0;      ///< Closed/Half-Open -> Open transitions
    uint64_t circuit_half_opens = 0; ///< Open -> Half-Open transitions
    uint64_t circuit_closes = 0;     ///< Half-Open -> Closed transitions
    uint64_t cluster_requests = 0;   ///< routed calls served by this replica
    uint64_t resyncs = 0;            ///< completed crash-recovery resyncs
    uint64_t resync_bytes = 0;       ///< bytes copied by resync streams
    SimTime resync_time = 0;         ///< restart -> rejoined-rotation total

    bool AnyClusterNonZero() const {
      return failovers || fast_fails || circuit_opens || circuit_half_opens ||
             circuit_closes || cluster_requests || resyncs || resync_bytes ||
             resync_time;
    }

    bool AnyNonZero() const {
      return region_stalls || region_faults || node_crashes ||
             node_restarts || crash_failures || timeouts || retries ||
             fallbacks || late_completions || AnyClusterNonZero();
    }
  };

  /// Sharded-pool routing counters (DESIGN.md §13). Recorded on the primary
  /// node of the shard the traffic was routed to, by `ShardedClient` only —
  /// bare nodes and unsharded clusters never touch them, so the section is
  /// omitted from fault-free reports and the seed goldens stay
  /// byte-identical (same gating discipline as `ReliabilityStats`).
  struct ShardingStats {
    uint64_t fragment_reads = 0;   ///< table-fragment reads served here
    uint64_t fragment_writes = 0;  ///< table-fragment writes applied here
    uint64_t fragment_offloads = 0;  ///< operator fragments executed here
    uint64_t gather_bytes = 0;  ///< result bytes gathered at the client
    uint64_t partial_groups = 0;  ///< partial group rows shipped for merge
    uint64_t repartition_bytes = 0;  ///< build bytes moved to repartition a join

    bool AnyNonZero() const {
      return fragment_reads || fragment_writes || fragment_offloads ||
             gather_bytes || partial_groups || repartition_bytes;
    }
  };

  /// Admission-control and fair-scheduling telemetry (DESIGN.md §15).
  /// Recorded only when `AdmissionConfig::enabled` (plus the always-on
  /// scheduler overflow counter), so the report section is omitted on seed
  /// workloads and their goldens stay byte-identical.
  struct AdmissionStats {
    uint64_t admitted_latency = 0;  ///< admitted latency-sensitive requests
    uint64_t admitted_batch = 0;    ///< admitted batch requests
    uint64_t shed_bucket_latency = 0;  ///< token-bucket / tenant-cap sheds
    uint64_t shed_bucket_batch = 0;
    uint64_t shed_overload_latency = 0;  ///< queue-delay overload sheds
    uint64_t shed_overload_batch = 0;
    uint64_t scheduler_overflows = 0;  ///< node-wide scheduler-cap bounces

    /// Retry-after hints attached to sheds, bucketed by log2 of the hint
    /// in microseconds: bucket i counts hints in [2^i, 2^(i+1)) µs; bucket
    /// 0 also takes sub-microsecond hints and the last bucket everything
    /// larger.
    static constexpr int kShedDelayBuckets = 8;
    uint64_t shed_delay_hist[kShedDelayBuckets] = {};

    /// Fairness high-water mark: the deepest per-tenant backlog the region
    /// scheduler ever held (bounded by AdmissionConfig::tenant_queue_cap
    /// when admission is on).
    size_t tenant_backlog_high_water = 0;

    bool AnyNonZero() const {
      uint64_t hist = 0;
      for (uint64_t h : shed_delay_hist) hist += h;
      return admitted_latency || admitted_batch || shed_bucket_latency ||
             shed_bucket_batch || shed_overload_latency ||
             shed_overload_batch || scheduler_overflows || hist ||
             tenant_backlog_high_water;
    }
  };

  /// Per-queue-pair throughput aggregates.
  struct QpStats {
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t rejected = 0;
    uint64_t bytes_delivered = 0;
    size_t queue_high_water = 0;
    SimTime first_submitted = 0;  ///< earliest submission seen (0 = none)
    SimTime last_delivered = 0;
  };

  NodeStats() = default;

  NodeStats(const NodeStats&) = delete;
  NodeStats& operator=(const NodeStats&) = delete;

  /// Allocates the next node-unique request id (monotone from 1).
  uint64_t NextRequestId() { return ++last_request_id_; }

  /// Appends a finished request's record and folds it into the per-qp
  /// aggregates.
  void RecordCompletion(const RequestContext& ctx);

  /// Per-partition merge (DESIGN.md §14): folds `other`'s telemetry into
  /// this registry. When a simulation is partitioned into event domains,
  /// each domain records into its own NodeStats — no shared mutable state
  /// crosses a domain boundary — and the driver merges the registries in
  /// ascending domain order after the run, so the merged report depends
  /// only on the simulation, never on the thread schedule. Completion
  /// records are re-folded (distributions and per-qp aggregates rebuild
  /// exactly as if recorded here); counters add; high-water marks take the
  /// max. `other` is left untouched.
  void MergeFrom(const NodeStats& other);

  /// Counts a request that reached the node but failed with a Status.
  void RecordFailure(int qp_id);

  /// Counts a request bounced by a full submission queue.
  void RecordRejection(int qp_id);

  /// Updates qp's queue-depth high-water mark with the observed depth.
  void RecordQueueDepth(int qp_id, size_t outstanding);

  /// Accumulates a region's busy interval (request occupancy).
  void RecordRegionBusy(int region_id, SimTime busy);

  // --- Reliability events (DESIGN.md §7) -----------------------------------

  void RecordRegionStall() { ++reliability_.region_stalls; }
  void RecordRegionFault() { ++reliability_.region_faults; }
  void RecordNodeCrash() { ++reliability_.node_crashes; }
  void RecordNodeRestart() { ++reliability_.node_restarts; }
  void RecordCrashFailure() { ++reliability_.crash_failures; }
  void RecordTimeout() { ++reliability_.timeouts; }
  void RecordRetry() { ++reliability_.retries; }
  void RecordFallback() { ++reliability_.fallbacks; }
  void RecordLateCompletion() { ++reliability_.late_completions; }

  // --- Replication / failover events (DESIGN.md §12) -----------------------

  void RecordFailover() { ++reliability_.failovers; }
  void RecordFastFail() { ++reliability_.fast_fails; }
  void RecordCircuitOpen() { ++reliability_.circuit_opens; }
  void RecordCircuitHalfOpen() { ++reliability_.circuit_half_opens; }
  void RecordCircuitClose() { ++reliability_.circuit_closes; }
  void RecordClusterRequest() { ++reliability_.cluster_requests; }
  void RecordResyncBytes(uint64_t bytes) {
    reliability_.resync_bytes += bytes;
  }
  void RecordResyncDone(SimTime elapsed) {
    ++reliability_.resyncs;
    reliability_.resync_time += elapsed;
  }

  // --- Sharded-pool routing events (DESIGN.md §13) -------------------------

  void RecordFragmentRead(uint64_t gathered_bytes) {
    ++sharding_.fragment_reads;
    sharding_.gather_bytes += gathered_bytes;
  }
  void RecordFragmentWrite() { ++sharding_.fragment_writes; }
  void RecordFragmentOffload(uint64_t gathered_bytes) {
    ++sharding_.fragment_offloads;
    sharding_.gather_bytes += gathered_bytes;
  }
  void RecordPartialGroups(uint64_t rows) { sharding_.partial_groups += rows; }
  void RecordRepartitionBytes(uint64_t bytes) {
    sharding_.repartition_bytes += bytes;
  }

  // --- Admission / fair-scheduling events (DESIGN.md §15) ------------------

  /// Counts a request the admission controller let through.
  void RecordAdmitted(SloClass slo);

  /// Counts a shed request: `overload` distinguishes queue-delay overload
  /// sheds from token-bucket/tenant-cap sheds; `retry_after` is the hint
  /// attached to the rejection (folded into the shed-delay histogram).
  void RecordShed(SloClass slo, bool overload, SimTime retry_after);

  /// Counts a job bounced by the node-wide scheduler queue cap.
  void RecordSchedulerOverflow() { ++admission_.scheduler_overflows; }

  /// Updates the fairness high-water mark with an observed tenant backlog.
  void RecordTenantBacklog(size_t backlog);

  // --- Queries -------------------------------------------------------------

  uint64_t completed_count() const { return completed_.size(); }
  uint64_t failed_count() const { return failed_; }
  uint64_t rejected_count() const { return rejected_; }

  const std::vector<RequestRecord>& completed() const { return completed_; }
  const std::map<int, QpStats>& per_qp() const { return per_qp_; }
  const ReliabilityStats& reliability() const { return reliability_; }
  const ShardingStats& sharding() const { return sharding_; }
  const AdmissionStats& admission() const { return admission_; }

  /// Stage distributions (latencies in picoseconds), built from the
  /// completion records in completion order. A record counts toward a
  /// stage only once it carries that stage's end stamp (and, for execute
  /// and egress, its start stamp).
  sim::SampleStats ingress_latency() const {
    return StageLatency(&RequestRecord::submitted,
                        &RequestRecord::ingress_done, false);
  }
  sim::SampleStats queue_wait() const {
    return StageLatency(&RequestRecord::ingress_done,
                        &RequestRecord::region_start, false);
  }
  sim::SampleStats execute_latency() const {
    return StageLatency(&RequestRecord::region_start,
                        &RequestRecord::operator_done, true);
  }
  sim::SampleStats egress_latency() const {
    return StageLatency(&RequestRecord::operator_done,
                        &RequestRecord::delivered, true);
  }
  sim::SampleStats total_latency() const {
    return StageLatency(&RequestRecord::submitted, &RequestRecord::delivered,
                        false);
  }

  /// Accumulated busy time of `region_id` (0 when never busy).
  SimTime region_busy_time(int region_id) const;

  /// Text dump used by the benches: stage latency percentiles, per-qp
  /// throughput, queue-depth high-water marks, region busy fractions and
  /// the egress-link utilization supplied by the caller.
  std::string FormatReport(SimTime now, double link_utilization) const;

 private:
  /// Shared tail of RecordCompletion and MergeFrom: appends `rec` and folds
  /// it into the per-qp aggregates.
  void FoldRecord(const RequestRecord& rec);

  /// `end - begin` over every record with `end` stamped (and `begin` too
  /// when `begin_required`).
  using Stamp = SimTime RequestRecord::*;
  sim::SampleStats StageLatency(Stamp begin, Stamp end,
                                bool begin_required) const;

  uint64_t last_request_id_ = 0;
  uint64_t failed_ = 0;
  uint64_t rejected_ = 0;

  std::vector<RequestRecord> completed_;
  std::map<int, QpStats> per_qp_;
  std::map<int, SimTime> region_busy_;
  ReliabilityStats reliability_;
  ShardingStats sharding_;
  AdmissionStats admission_;
};

}  // namespace farview

#endif  // FARVIEW_FV_NODE_STATS_H_
