#ifndef FARVIEW_FV_SHARDING_H_
#define FARVIEW_FV_SHARDING_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fv/cluster.h"
#include "operators/partial_merge.h"
#include "sim/engine.h"

namespace farview {

/// Configuration of a sharded Farview pool (DESIGN.md §13): S independent
/// replicated clusters striping one virtual address space. Sharding and
/// replication compose — each shard is a full `FarviewCluster`, so a
/// `ShardedConfig` with S shards and R replicas stands up S×R nodes.
struct ShardedConfig {
  /// Template for every shard (replica count, node config, breaker/resync
  /// policies). The fault schedule inside it is applied per `faulted_shard`.
  ClusterConfig cluster;

  /// Pool width. 1 disables sharding entirely: one fragment per table, no
  /// address translation, no scatter/gather — byte-identical delegation to
  /// the single cluster (the identity tests pin this).
  int num_shards = 1;

  /// Virtual-address stripe owned by each shard: shard s owns global
  /// addresses [s * shard_stride, (s+1) * shard_stride). Every shard's
  /// sub-allocator hands out local addresses below the stride; a fragment
  /// that would cross its stripe end is rejected with `OutOfRange`, never
  /// silently split. Must be a multiple of the 2 MiB page. The default (16
  /// TiB) never rejects in practice; tests shrink it to force the edge.
  uint64_t shard_stride = 1ull << 44;

  /// Shard that keeps `cluster`'s fault schedule: the other shards run it
  /// with fault injection disabled, which is what makes a hot/faulty shard
  /// observable. -1 applies the schedule to every shard (whole-pool
  /// outages). Ignored while the schedule is disabled.
  int faulted_shard = 0;
};

/// A sharded Farview pool: `num_shards` independent `FarviewCluster`s on
/// one simulation engine, each owning a fixed stripe of the virtual address
/// space (DESIGN.md §13).
///
/// The pool is pure address arithmetic plus cluster ownership — allocation
/// policy, fragment maps and operator routing live in `ShardedClient`, so
/// the address-space contract stays in one place:
///
///   global vaddr = shard * shard_stride + shard-local vaddr
///
/// Each shard's MMU allocates local addresses independently (the
/// "distributed allocator": per-shard sub-allocators behind one
/// client-facing `AllocTableMem`); the stripe offset makes them globally
/// unique without any cross-shard coordination.
class ShardedPool {
 public:
  ShardedPool(sim::Engine* engine, const ShardedConfig& config);

  ShardedPool(const ShardedPool&) = delete;
  ShardedPool& operator=(const ShardedPool&) = delete;

  sim::Engine* engine() { return engine_; }
  const ShardedConfig& config() const { return config_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  FarviewCluster& shard(int s) { return *shards_[static_cast<size_t>(s)]; }

  /// Shard owning `global_vaddr` (may be past the pool for bogus input;
  /// callers validate).
  int ShardOf(uint64_t global_vaddr) const {
    return static_cast<int>(global_vaddr / config_.shard_stride);
  }
  uint64_t LocalVaddr(uint64_t global_vaddr) const {
    return global_vaddr % config_.shard_stride;
  }
  uint64_t GlobalVaddr(int shard, uint64_t local_vaddr) const {
    return static_cast<uint64_t>(shard) * config_.shard_stride + local_vaddr;
  }

 private:
  sim::Engine* engine_;
  ShardedConfig config_;
  std::vector<std::unique_ptr<FarviewCluster>> shards_;
};

/// Client of a sharded pool: the paper's programmatic interface (Section
/// 4.2) over S shards, with operator routing that follows the data
/// (DESIGN.md §13).
///
/// One `ClusterClient` per shard provides the many-to-many client↔shard
/// connectivity; every hop rides the per-connection bounded submission
/// queues and, per shard, the replication layer's routing, breakers and
/// failover. On top, this client:
///
///  - range-partitions each striped table into per-shard row fragments and
///    keeps the client-side shard map (global vaddr -> fragments);
///  - scatters writes and gathers reads fragment-by-fragment;
///  - routes operators to the data: projection/selection run shard-local
///    with a client-side gather (fragment order preserves row order, so the
///    gathered bytes equal the single-node result); GROUP BY runs as
///    shard-local partials merged by `PartialMerger`; a join whose build
///    side lives on other shards repartitions — the build fragments are
///    gathered to the client and broadcast to every probe shard's pipeline.
///
/// Synchronous methods drive the engine like `FarviewClient`'s (only valid
/// when no other traffic must stay pending); the async forms require the
/// caller to keep referenced row data alive until the completion fires.
class ShardedClient {
 public:
  ShardedClient(ShardedPool* pool, int client_id);

  ShardedClient(const ShardedClient&) = delete;
  ShardedClient& operator=(const ShardedClient&) = delete;

  /// Connects to every replica of every shard.
  Status OpenConnection();
  void CloseConnection();

  bool connected() const { return !clients_.empty(); }
  int client_id() const { return client_id_; }
  ShardedPool* pool() { return pool_; }

  /// Per-shard building block, for tests and introspection.
  ClusterClient& shard_client(int s) {
    return *clients_[static_cast<size_t>(s)];
  }

  // --- Memory management (scattered; per-shard sub-allocators) -------------

  /// Allocates the table across the pool and registers it in the shard map.
  /// `home_shard == -1` (the default) range-partitions the rows over all
  /// shards; a non-negative value places the whole table on that shard
  /// (hash placement for tables too small to stripe — the benches route
  /// key-partitioned tables this way). Fails with `OutOfRange` — rolling
  /// back every fragment already allocated — if any fragment would cross
  /// its shard's address stripe.
  Status AllocTableMem(FTable* table, int home_shard = -1);

  /// Frees every fragment and drops the shard-map entry. Fails with
  /// `FailedPrecondition` when the handle's vaddr was remapped (freed and
  /// reallocated to a different table) — a stale handle must never free
  /// another table's memory. A free that fails on a later shard keeps only
  /// the unfreed fragments registered; retrying it frees exactly those.
  Status FreeTableMem(FTable* table);

  /// Shares every fragment; returns a catalog entry carrying the global
  /// vaddr. Same remap guard as `FreeTableMem`.
  Result<TableEntry> ShareTable(const FTable& table);

  // --- Data path -----------------------------------------------------------

  /// Scattered write: each shard receives exactly its fragment's rows, in
  /// parallel; completes at the last fragment ack.
  Result<SimTime> TableWrite(const FTable& table, const Table& rows);
  void TableWriteAsync(const FTable& table, const Table& rows,
                       std::function<void(Result<SimTime>)> done);

  /// Gathered read: all fragments in parallel, concatenated in row order;
  /// completes at the last fragment's delivery.
  Result<FvResult> TableRead(const FTable& table);
  void TableReadAsync(const FTable& table,
                      std::function<void(Result<FvResult>)> done);

  // --- Operator offload (routed to the data) -------------------------------

  /// Shard-local selection(+projection) with client-side gather. Streaming
  /// operators preserve row order within a fragment and fragments are
  /// gathered in row-range order, so the result bytes equal the single-node
  /// offload's.
  Result<FvResult> FvSelect(const FTable& table,
                            std::vector<Predicate> predicates,
                            std::vector<int> projection = {},
                            bool vectorized = false);

  /// Shard-local partial GROUP BY, merged at the client: AVG is rewritten
  /// into SUM+COUNT for the shard plans (`PartialAggSpecs`) and finalized
  /// by the merge; `FvResult::data` holds the final layout (key columns,
  /// then the requested aggregates), groups in first-gathered order.
  Result<FvResult> FvGroupBy(const FTable& table,
                             std::vector<int> key_columns,
                             std::vector<AggSpec> aggs,
                             const GroupingConfig& config = {});

  /// Sharded hash join with repartitioning: gathers the (small) build-side
  /// table from whichever shards hold it, then broadcasts it inside a
  /// `HashJoinSmall` pipeline to every shard holding probe rows; per-shard
  /// probe streams join locally and the results gather in probe-row order,
  /// matching the single-node `FvJoinSmall` bytes.
  Result<FvResult> FvJoin(const FTable& probe, int probe_key,
                          const FTable& build, int build_key);

 private:
  /// One per-shard fragment of a striped table.
  struct Fragment {
    int shard = 0;
    FTable local;            ///< handle on the owning shard (local vaddr)
    uint64_t row_begin = 0;  ///< first global row this fragment holds
  };

  /// Shard-map entry: the fragments backing one client-visible table.
  struct ShardedTable {
    std::string name;
    uint64_t num_rows = 0;
    std::vector<Fragment> fragments;
  };

  /// Shard-map lookup with the remap guard (vaddr, name and row count must
  /// all match the registered table). `NotConnected()` on an unconnected
  /// client. A table a failed free left partially freed is found only
  /// when `freeing`.
  Result<const ShardedTable*> Lookup(const FTable& table,
                                     bool freeing = false) const;

  /// Issues the factory pipeline + per-fragment scans on every fragment
  /// shard and gathers the fragment results in row order. `merger`, when
  /// set, folds fragment payloads instead of concatenating them (GROUP BY).
  Result<FvResult> OffloadGather(const ShardedTable& st,
                                 PipelineFactory factory, bool vectorized,
                                 PartialMerger* merger);

  /// Records a fragment op on the owning shard's primary-node counters.
  NodeStats& ShardStats(int shard);

  ShardedPool* pool_;
  int client_id_;
  std::vector<std::unique_ptr<ClusterClient>> clients_;
  /// Client-side shard map: global vaddr of the table -> its fragments.
  std::map<uint64_t, ShardedTable> tables_;
};

}  // namespace farview

#endif  // FARVIEW_FV_SHARDING_H_
