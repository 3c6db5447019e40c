#ifndef FARVIEW_FV_CLUSTER_H_
#define FARVIEW_FV_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "fv/client.h"
#include "fv/farview_node.h"
#include "fv/replication.h"
#include "sim/engine.h"

namespace farview {

/// Builds a fresh `Pipeline` on demand. `Pipeline` is move-only, so a
/// replicated load keeps the recipe instead of the object: every replica —
/// including one rejoining after a crash — gets its own instance from the
/// same factory. Must be deterministic (same pipeline every call).
using PipelineFactory = std::function<Result<Pipeline>()>;

/// Configuration of a replicated Farview pool (DESIGN.md §12).
struct ClusterConfig {
  /// Template for every replica node (memory, network, regions, retry
  /// policy). The fault schedule inside `node.faults` / `node.net.faults`
  /// is applied to `faulted_replica` only — the surviving replicas run
  /// fault-free, which is what makes failover observable.
  FarviewConfig node;

  /// Pool size. 1 disables replication entirely: no mirroring hop, no
  /// epochs to miss, byte-identical routing (the identity tests pin this).
  int num_replicas = 1;

  /// The replica that receives the fault schedule (ignored when the
  /// schedule is disabled).
  int faulted_replica = 0;

  /// Seed from which per-replica circuit-breaker jitter streams are
  /// derived (mixed with replica index and client id).
  uint64_t seed = 0xFA11;

  /// Crash-recovery resync stream parameters.
  ReplicationConfig replication;

  /// Per-replica circuit-breaker policy used by every `ClusterClient`.
  CircuitBreakerPolicy breaker;
};

/// A replicated Farview pool: N identically configured `FarviewNode`s on
/// one simulation engine, plus the replication log that keeps them
/// convergent across crashes (DESIGN.md §12).
///
/// Every state-changing client operation (alloc/free/share/write) appends
/// one epoch-numbered entry to the log before it is applied. Replicas that
/// are in rotation apply the entry immediately; replicas that are down or
/// resyncing miss it and the miss is recorded. Epoch fencing follows: a
/// replica is routed reads only while `InSync`, i.e. it has applied every
/// epoch — a restarted node can never serve pre-crash bytes.
///
/// Crash recovery runs when a crashed replica restarts: missed control
/// entries (alloc/free/share) are replayed in log order, missed write
/// ranges are copied from a surviving in-sync replica by a rate-limited
/// `ResyncScheduler` stream, and registered rejoin hooks (pipeline reloads)
/// run; passes repeat until no new entry was missed, then the replica
/// rejoins rotation. With `num_replicas == 1` none of this machinery ever
/// schedules an event.
class FarviewCluster {
 public:
  /// Rotation state of one replica.
  enum class ReplicaState {
    kInSync,     ///< applied every epoch; serves routed reads
    kDown,       ///< crashed; misses every entry
    kResyncing,  ///< restarted but fenced until recovery completes
  };

  /// One epoch-numbered replication-log entry.
  struct LogEntry {
    enum class Kind { kAlloc, kFree, kShare, kWrite };
    Kind kind = Kind::kWrite;
    int client_id = 0;
    /// For kAlloc this is the address the survivors agreed on (replay
    /// checks the recovering allocator reproduces it).
    uint64_t vaddr = 0;
    uint64_t bytes = 0;
    /// True when the operation failed on every replica: the epoch exists
    /// (numbering stays monotone) but recovery must not replay it.
    bool aborted = false;
  };

  /// Called when `replica` finished data resync; the hook performs its own
  /// recovery work (pipeline reload) and then must invoke the completion
  /// callback exactly once.
  using RejoinHook = std::function<void(int replica, std::function<void()>)>;

  FarviewCluster(sim::Engine* engine, const ClusterConfig& config);

  FarviewCluster(const FarviewCluster&) = delete;
  FarviewCluster& operator=(const FarviewCluster&) = delete;

  sim::Engine* engine() { return engine_; }
  const ClusterConfig& config() const { return config_; }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  FarviewNode& node(int r) { return *replicas_[static_cast<size_t>(r)].node; }

  /// Rotation state of replica `r`.
  ReplicaState replica_state(int r) const {
    return replicas_[static_cast<size_t>(r)].state;
  }

  /// True when `r` has applied every epoch and may serve routed reads.
  bool InSync(int r) const {
    return replicas_[static_cast<size_t>(r)].state == ReplicaState::kInSync;
  }

  /// True when `r` must apply new log entries live (in rotation). Down and
  /// resyncing replicas miss entries instead; recovery replays them.
  bool CanApply(int r) const { return InSync(r); }

  /// Current cluster epoch == number of log entries appended.
  uint64_t epoch() const { return static_cast<uint64_t>(log_.size()); }

  /// Highest epoch replica `r` has applied.
  uint64_t applied_epoch(int r) const {
    return replicas_[static_cast<size_t>(r)].applied_epoch;
  }

  /// Instant replica `r` last (re-)entered rotation; 0 = in rotation since
  /// construction. Benches report time-to-rejoin from this.
  SimTime in_sync_at(int r) const {
    return replicas_[static_cast<size_t>(r)].in_sync_at;
  }

  // --- Replication-log interface (used by ClusterClient) ------------------

  /// Appends an entry; returns its epoch (1-based, monotone).
  uint64_t AppendEntry(LogEntry entry);

  /// Back-fills the agreed address of a kAlloc entry once known.
  void SetEntryVaddr(uint64_t epoch, uint64_t vaddr);

  /// Marks an entry that failed on every replica; replay skips it.
  void AbortEntry(uint64_t epoch);

  /// Replica `r` applied / missed the entry of `epoch`.
  void MarkApplied(int r, uint64_t epoch);
  void MarkMissed(int r, uint64_t epoch);

  /// Registers a rejoin hook; the returned id unregisters it.
  int AddRejoinHook(RejoinHook hook);
  void RemoveRejoinHook(int id);

 private:
  /// Per-replica recovery bookkeeping.
  struct Replica {
    std::unique_ptr<FarviewNode> node;
    std::unique_ptr<ResyncScheduler> resync;
    ReplicaState state = ReplicaState::kInSync;
    uint64_t applied_epoch = 0;
    /// Epochs missed while out of rotation, in append order.
    std::vector<uint64_t> missed;
    /// Write epochs consumed from `missed` whose bytes are still in flight
    /// on the resync stream. They move to applied only when the stream
    /// completes; an aborted stream re-merges them into `missed` so a
    /// repeated crash can never rejoin holding pre-crash bytes.
    std::vector<uint64_t> resyncing;
    /// Invalidation token for in-flight recovery steps: bumped on every
    /// crash/restart so stale resync/hook completions are dropped.
    uint64_t rejoin_gen = 0;
    int pending_hooks = 0;
    /// Fenced with missed writes but no in-sync resync source; recovery
    /// resumes when some replica rejoins (`StartParkedRejoins`).
    bool parked = false;
    SimTime restarted_at = 0;
    SimTime in_sync_at = 0;
  };

  /// Crash/restart observer of replica `r` (`FarviewNode::AddDownObserver`).
  void OnDownChange(int r, bool down);

  /// One recovery pass: replay missed control entries, then stream missed
  /// write ranges from a survivor. Parks (leaves the replica fenced) when
  /// write ranges exist but no in-sync source does.
  void RunRejoinPass(int r);

  /// After a pass that drained the missed list: run rejoin hooks, then
  /// either loop (new entries were missed meanwhile) or rejoin rotation.
  void RunRejoinHooks(int r);
  void CompleteRejoin(int r);

  /// Re-applies one missed control entry on the recovering replica's MMU.
  Status ReplayControlEntry(FarviewNode* node, const LogEntry& entry);

  /// Re-merges epochs whose resync stream was aborted back into `missed`
  /// (they are older than anything missed since, so they go in front).
  void ReclaimResyncing(Replica& replica);

  /// Lowest-index in-sync replica other than `r`, or -1.
  int PickResyncSource(int r) const;

  /// Restarts recovery of replicas parked for lack of a resync source.
  void StartParkedRejoins();

  sim::Engine* engine_;
  ClusterConfig config_;
  std::vector<Replica> replicas_;
  std::vector<LogEntry> log_;
  std::map<int, RejoinHook> rejoin_hooks_;
  int next_hook_id_ = 1;
};

/// Client of a replicated pool: the paper's programmatic interface (Section
/// 4.2) over N replicas, with client-side failover (DESIGN.md §12).
///
/// One `FarviewClient` per replica carries the PR 2 retry policy; on top,
/// this router keeps a per-replica `CircuitBreaker` and routes each read /
/// operator call to the next in-sync replica (deterministic round-robin)
/// whose breaker admits it. A retryable failure (`Unavailable`,
/// `DeadlineExceeded`) records on the breaker and fails over to the next
/// eligible replica; when none is left the call settles immediately with
/// `Unavailable` (fast-fail — no timeout or backoff is burned on a pool
/// that is known-dead). Writes and allocations are mirrored: applied on
/// the primary (first in-rotation replica), then forwarded to the
/// remaining live replicas, with every outcome recorded in the cluster's
/// replication log.
///
/// Synchronous wrappers drive the engine like `FarviewClient`'s; the async
/// forms require the caller to keep referenced row data alive until the
/// completion fires (mirror hops read it after the primary's ack).
class ClusterClient {
 public:
  ClusterClient(FarviewCluster* cluster, int client_id);
  ~ClusterClient();

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Connects to every replica. Call before the fault schedule begins (a
  /// connection cannot be opened to a crashed replica).
  Status OpenConnection();
  void CloseConnection();

  bool connected() const { return !clients_.empty(); }
  int client_id() const { return client_id_; }
  FarviewCluster* cluster() { return cluster_; }

  /// Per-replica building blocks, for tests and introspection.
  FarviewClient& replica_client(int r) {
    return *clients_[static_cast<size_t>(r)];
  }
  CircuitBreaker& breaker(int r) { return *breakers_[static_cast<size_t>(r)]; }

  // --- Memory management (mirrored; logged) -------------------------------

  /// Allocates the table on every in-rotation replica and checks the
  /// replicas' allocators agreed on the address.
  Status AllocTableMem(FTable* table);
  Status FreeTableMem(FTable* table);

  /// Shares the table's memory on every in-rotation replica; returns the
  /// catalog entry another client can import.
  Result<TableEntry> ShareTable(const FTable& table);

  // --- Data path -----------------------------------------------------------

  /// Mirrored write: primary first, then the surviving secondaries in
  /// parallel; completes at the last mirror ack. Replicas out of rotation
  /// (or failing mid-write) miss the epoch and converge via resync.
  Result<SimTime> TableWrite(const FTable& table, const Table& rows);
  void TableWriteAsync(const FTable& table, const Table& rows,
                       std::function<void(Result<SimTime>)> done);

  /// Loads the factory's pipeline on every in-rotation replica and keeps
  /// the factory for rejoin reloads.
  Status LoadPipeline(PipelineFactory factory);
  void LoadPipelineAsync(PipelineFactory factory,
                         std::function<void(Status)> done);

  /// Routed read / operator calls (round-robin + breaker + failover).
  Result<FvResult> TableRead(const FTable& table);
  void TableReadAsync(const FTable& table,
                      std::function<void(Result<FvResult>)> done);
  Result<FvResult> FarviewRequest(const FvRequest& request);
  void FarviewRequestAsync(const FvRequest& request,
                           std::function<void(Result<FvResult>)> done);

  /// Builds the standard request for a full scan of `table`.
  FvRequest ScanRequest(const FTable& table, bool vectorized = false) const;

 private:
  /// State of one routed call across failover hops.
  struct RoutedCall;
  /// State of one mirrored write across the primary and mirror hops.
  struct MirroredWrite;

  /// Next eligible replica (in-sync, breaker admits, not yet tried), or -1.
  /// Operator calls additionally require the replica's loaded pipeline to be
  /// current — a replica whose rejoin reload failed serves reads only.
  /// `probe` reports whether the admission consumed a Half-Open probe slot;
  /// the hop's outcome must be recorded on the breaker with that flag.
  int PickReplica(uint64_t tried_mask, Verb verb, bool* probe);
  /// Routes (or re-routes after failover) one call.
  void IssueRouted(std::shared_ptr<RoutedCall> call);
  /// Issues the primary write of `mw`, advancing past dead primaries.
  void TryPrimaryWrite(std::shared_ptr<MirroredWrite> mw);
  /// Rejoin hook: reload the current pipeline on a recovered replica.
  void OnRejoin(int replica, std::function<void()> done);
  /// Mirrors one control op (alloc/free/share): appends `entry` to the
  /// replication log, runs `apply(replica_client, epoch)` on every
  /// in-rotation replica and marks every replica applied or missed. A
  /// failed apply, or no replica in rotation (`Unavailable`, naming
  /// `what`), aborts the epoch so recovery never replays it.
  template <typename Apply>
  Status MirrorControl(FarviewCluster::LogEntry entry, const char* what,
                       Apply apply);

  FarviewCluster* cluster_;
  int client_id_;
  std::vector<std::unique_ptr<FarviewClient>> clients_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  /// Deterministic round-robin cursor over replicas.
  int rr_cursor_ = 0;
  /// Current pipeline recipe (empty = none loaded) and its version, vs the
  /// version each replica has loaded — rejoin reloads exactly when behind.
  PipelineFactory pipeline_factory_;
  uint64_t pipeline_version_ = 0;
  std::vector<uint64_t> loaded_version_;
  int rejoin_hook_id_ = 0;
  /// Liveness flag shared with the crash observers registered on the
  /// (longer-lived) nodes; the destructor clears it.
  std::shared_ptr<bool> alive_;
};

}  // namespace farview

#endif  // FARVIEW_FV_CLUSTER_H_
