#include "fv/sharding.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "fv/client_stack.h"
#include "mem/mmu.h"

namespace farview {
namespace {

/// Golden-ratio mix keeping per-shard breaker jitter streams independent;
/// shard 0 keeps the template seed unchanged (the 1-shard identity pin).
constexpr uint64_t kShardSeedMix = 0x9E3779B97F4A7C15ull;

/// Appends fragment `i`'s result to the gathered `out`. Fragments are
/// gathered in row order, so concatenation restores the single-node bytes;
/// `append_rows` is false when a merger folds the payloads instead. The
/// timing fields span every fragment.
void AppendFragment(size_t i, const FvResult& part, bool append_rows,
                    FvResult* out) {
  if (i == 0) {
    out->issued_at = part.issued_at;
    out->first_byte_at = part.first_byte_at;
  }
  if (append_rows) {
    AppendBytes(&out->data, part.data.data(), part.data.size());
    out->rows += part.rows;
  }
  out->bytes_on_wire += part.bytes_on_wire;
  out->completed_at = std::max(out->completed_at, part.completed_at);
  out->first_byte_at = std::min(out->first_byte_at, part.first_byte_at);
}

}  // namespace

ShardedPool::ShardedPool(sim::Engine* engine, const ShardedConfig& config)
    : engine_(engine), config_(config) {
  FV_CHECK(engine_ != nullptr);
  FV_CHECK(config_.num_shards >= 1);
  FV_CHECK(config_.shard_stride > 0 &&
           config_.shard_stride % Mmu::kPageSize == 0)
      << "shard stride must be a whole number of pages";
  FV_CHECK(config_.faulted_shard >= -1 &&
           config_.faulted_shard < config_.num_shards);
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    ClusterConfig cc = config_.cluster;
    cc.seed += kShardSeedMix * static_cast<uint64_t>(s);
    if (config_.faulted_shard >= 0 && s != config_.faulted_shard) {
      cc.node.faults.enabled = false;
      cc.node.net.faults.enabled = false;
    }
    shards_.push_back(std::make_unique<FarviewCluster>(engine_, cc));
  }
}

ShardedClient::ShardedClient(ShardedPool* pool, int client_id)
    : pool_(pool), client_id_(client_id) {
  FV_CHECK(pool_ != nullptr);
}

Status ShardedClient::OpenConnection() {
  return ConnectAll(
      pool_->num_shards(),
      [this](int s) {
        return std::make_unique<ClusterClient>(&pool_->shard(s), client_id_);
      },
      &clients_);
}

void ShardedClient::CloseConnection() {
  for (auto& c : clients_) c->CloseConnection();
  clients_.clear();
  tables_.clear();
}

NodeStats& ShardedClient::ShardStats(int shard) {
  // Shard-level counters live on the shard's primary node: the stable home
  // replica 0 plays for reliability counters in the cluster layer.
  return pool_->shard(shard).node(0).stats();
}

Status ShardedClient::AllocTableMem(FTable* table, int home_shard) {
  if (!connected()) return NotConnected();
  if (table == nullptr || table->name.empty() || table->num_rows == 0 ||
      table->schema.tuple_width() == 0) {
    return Status::InvalidArgument(
        "AllocTableMem requires name, schema and num_rows");
  }
  if (home_shard < -1 || home_shard >= pool_->num_shards()) {
    return Status::InvalidArgument("home shard out of range");
  }

  // Range-partition the rows into one contiguous fragment per shard (the
  // leading shards absorb the remainder); a homed table is one fragment.
  ShardedTable st;
  st.name = table->name;
  st.num_rows = table->num_rows;
  const int width =
      home_shard >= 0
          ? 1
          : static_cast<int>(std::min<uint64_t>(
                static_cast<uint64_t>(pool_->num_shards()), table->num_rows));
  const uint64_t base = table->num_rows / static_cast<uint64_t>(width);
  const uint64_t rem = table->num_rows % static_cast<uint64_t>(width);
  uint64_t row = 0;
  for (int i = 0; i < width; ++i) {
    Fragment frag;
    frag.shard = home_shard >= 0 ? home_shard : i;
    frag.row_begin = row;
    frag.local.name = table->name;
    frag.local.schema = table->schema;
    frag.local.num_rows = base + (static_cast<uint64_t>(i) < rem ? 1 : 0);
    row += frag.local.num_rows;
    st.fragments.push_back(std::move(frag));
  }

  const uint64_t stride = pool_->config().shard_stride;
  auto spans_boundary = [&](const Fragment& f) {
    return Status::OutOfRange(
        "allocation spans a shard boundary: fragment of '" + table->name +
        "' does not fit shard " + std::to_string(f.shard) +
        "'s address stripe");
  };
  // Fast precheck: the shard-local allocator is bump-only starting at the
  // first page, so a fragment larger than `stride - page` can never fit its
  // stripe — reject before burning any (unreclaimable) address space.
  for (const Fragment& f : st.fragments) {
    if (f.local.SizeBytes() + Mmu::kPageSize > stride) {
      return spans_boundary(f);
    }
  }

  auto rollback = [&](size_t allocated) {
    for (size_t i = 0; i < allocated; ++i) {
      Fragment& f = st.fragments[i];
      FV_IGNORE_ERROR(
          clients_[static_cast<size_t>(f.shard)]->FreeTableMem(&f.local),
          "rolling back a partially allocated sharded table");
    }
  };

  for (size_t i = 0; i < st.fragments.size(); ++i) {
    Fragment& f = st.fragments[i];
    const Status s =
        clients_[static_cast<size_t>(f.shard)]->AllocTableMem(&f.local);
    if (!s.ok()) {
      rollback(i);
      return s;
    }
    // The stripe contract (DESIGN.md §13): a fragment never crosses its
    // shard's address stripe. Reject — do not silently split — so the
    // vaddr arithmetic stays bijective.
    if (f.local.vaddr + f.local.SizeBytes() > stride) {
      rollback(i + 1);
      return spans_boundary(f);
    }
  }

  table->vaddr =
      pool_->GlobalVaddr(st.fragments[0].shard, st.fragments[0].local.vaddr);
  tables_[table->vaddr] = std::move(st);
  return Status::OK();
}

auto ShardedClient::Lookup(const FTable& table, bool freeing) const
    -> Result<const ShardedTable*> {
  if (!connected()) return NotConnected();
  auto it = tables_.find(table.vaddr);
  if (it == tables_.end()) {
    return Status::NotFound("no sharded table at vaddr " +
                            std::to_string(table.vaddr));
  }
  // Remap guard: a stale handle whose vaddr was freed and handed to a new
  // table must not operate on the new table's memory.
  if (it->second.name != table.name || it->second.num_rows != table.num_rows) {
    return Status::FailedPrecondition(
        "vaddr remapped: handle '" + table.name + "' does not match the "
        "table currently registered at its address ('" + it->second.name +
        "')");
  }
  // A free that failed part-way left only the fragments it could not free;
  // until a retried free completes, the table has no whole row range.
  if (!freeing && it->second.fragments.front().row_begin != 0) {
    return Status::FailedPrecondition("table '" + table.name +
                                      "' is partially freed");
  }
  return &it->second;
}

Status ShardedClient::FreeTableMem(FTable* table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  FV_RETURN_IF_ERROR(Lookup(*table, /*freeing=*/true).status());
  // Drop each fragment from the shard map as it is freed: a free that fails
  // on a later shard (no in-rotation replica) keeps exactly the unfreed
  // fragments registered, so a retry frees those and nothing twice.
  std::vector<Fragment>& frags = tables_.at(table->vaddr).fragments;
  while (!frags.empty()) {
    FTable local = frags.front().local;
    FV_RETURN_IF_ERROR(
        clients_[static_cast<size_t>(frags.front().shard)]->FreeTableMem(
            &local));
    frags.erase(frags.begin());
  }
  tables_.erase(table->vaddr);
  table->vaddr = 0;
  return Status::OK();
}

Result<TableEntry> ShardedClient::ShareTable(const FTable& table) {
  FV_ASSIGN_OR_RETURN(const ShardedTable* st, Lookup(table));
  std::optional<TableEntry> first;
  for (const Fragment& frag : st->fragments) {
    FV_ASSIGN_OR_RETURN(
        TableEntry entry,
        clients_[static_cast<size_t>(frag.shard)]->ShareTable(frag.local));
    if (!first.has_value()) first = std::move(entry);
  }
  first->virtual_address = table.vaddr;
  first->num_rows = table.num_rows;
  first->size_bytes = table.SizeBytes();
  return *std::move(first);
}

void ShardedClient::TableWriteAsync(
    const FTable& table, const Table& rows,
    std::function<void(Result<SimTime>)> done) {
  Result<const ShardedTable*> st = Lookup(table);
  if (!st.ok()) {
    done(st.status());
    return;
  }
  if (Status valid = CheckRowsMatch(table, rows); !valid.ok()) {
    done(std::move(valid));
    return;
  }
  const std::vector<Fragment>& frags = st.value()->fragments;
  if (frags.size() == 1) {
    // Single fragment: pure delegation, event-identical to the cluster
    // client (the 1-shard identity pin).
    const Fragment& frag = frags[0];
    ShardStats(frag.shard).RecordFragmentWrite();
    clients_[static_cast<size_t>(frag.shard)]->TableWriteAsync(
        frag.local, rows, std::move(done));
    return;
  }

  // Scatter: each shard gets exactly its row range. The slices live in the
  // shared state because the mirror hops read them after the primary ack.
  struct Scatter {
    FanOutJoin join;
    std::vector<Table> slices;
    SimTime last_ack = 0;
    std::function<void(Result<SimTime>)> done;
  };
  auto sc = std::make_shared<Scatter>();
  sc->done = std::move(done);
  sc->join.Expect(frags.size());
  sc->slices.reserve(frags.size());  // in-flight hops point into it
  const uint32_t width = rows.schema().tuple_width();
  for (const Fragment& frag : frags) {
    const uint8_t* begin = rows.data() + frag.row_begin * width;
    Result<Table> slice = Table::FromBytes(
        rows.schema(), ByteBuffer(begin, begin + frag.local.num_rows * width));
    FV_CHECK(slice.ok()) << slice.status().ToString();
    sc->slices.push_back(std::move(slice).value());
    ShardStats(frag.shard).RecordFragmentWrite();
    clients_[static_cast<size_t>(frag.shard)]->TableWriteAsync(
        frag.local, sc->slices.back(), [sc](Result<SimTime> r) {
          if (r.ok()) sc->last_ack = std::max(sc->last_ack, r.value());
          if (sc->join.Arrive(r.status())) {
            sc->done(sc->join.error().ok() ? Result<SimTime>(sc->last_ack)
                                           : sc->join.error());
          }
        });
  }
}

Result<SimTime> ShardedClient::TableWrite(const FTable& table,
                                          const Table& rows) {
  return RunSync<Result<SimTime>>(
      pool_->engine(), connected(),
      [&](auto done) { TableWriteAsync(table, rows, std::move(done)); });
}

void ShardedClient::TableReadAsync(
    const FTable& table, std::function<void(Result<FvResult>)> done) {
  Result<const ShardedTable*> st = Lookup(table);
  if (!st.ok()) {
    done(st.status());
    return;
  }
  const std::vector<Fragment>& frags = st.value()->fragments;
  if (frags.size() == 1) {
    const Fragment& frag = frags[0];
    const int shard = frag.shard;
    clients_[static_cast<size_t>(shard)]->TableReadAsync(
        frag.local,
        [this, shard, done = std::move(done)](Result<FvResult> r) {
          if (r.ok()) ShardStats(shard).RecordFragmentRead(r.value().data.size());
          done(std::move(r));
        });
    return;
  }

  // Gather: all fragments in parallel; concatenating in fragment order
  // restores row order because the partition is a contiguous range split.
  struct Gather {
    FanOutJoin join;
    std::vector<std::optional<FvResult>> parts;
    std::function<void(Result<FvResult>)> done;
  };
  auto g = std::make_shared<Gather>();
  g->done = std::move(done);
  g->parts.resize(frags.size());
  g->join.Expect(frags.size());
  for (size_t i = 0; i < frags.size(); ++i) {
    const Fragment& frag = frags[i];
    const int shard = frag.shard;
    clients_[static_cast<size_t>(shard)]->TableReadAsync(
        frag.local, [this, g, i, shard](Result<FvResult> r) {
          if (r.ok()) {
            ShardStats(shard).RecordFragmentRead(r.value().data.size());
            g->parts[i] = std::move(r).value();
          }
          if (!g->join.Arrive(r.status())) return;
          if (!g->join.error().ok()) {
            g->done(g->join.error());
            return;
          }
          FvResult out;
          for (size_t k = 0; k < g->parts.size(); ++k) {
            AppendFragment(k, *g->parts[k], /*append_rows=*/true, &out);
          }
          g->done(std::move(out));
        });
  }
}

Result<FvResult> ShardedClient::TableRead(const FTable& table) {
  return RunSync<Result<FvResult>>(
      pool_->engine(), connected(),
      [&](auto done) { TableReadAsync(table, std::move(done)); });
}

Result<FvResult> ShardedClient::OffloadGather(const ShardedTable& st,
                                              PipelineFactory factory,
                                              bool vectorized,
                                              PartialMerger* merger) {
  // Load the pipeline on every fragment's shard; once every load is in,
  // scan each fragment. The call is synchronous, so both joins and the
  // parts live on this frame: once it settles, every hop has arrived.
  const size_t n = st.fragments.size();
  FanOutJoin loads;
  FanOutJoin scans;
  std::vector<std::optional<FvResult>> parts(n);
  FV_RETURN_IF_ERROR(RunSync<Status>(
      pool_->engine(), connected(), [&](auto done) {
        auto scan_all = [&, done]() {
          if (!loads.error().ok()) {
            done(loads.error());
            return;
          }
          scans.Expect(n);
          for (size_t i = 0; i < n; ++i) {
            const Fragment& frag = st.fragments[i];
            ClusterClient& cc = *clients_[static_cast<size_t>(frag.shard)];
            cc.FarviewRequestAsync(
                cc.ScanRequest(frag.local, vectorized),
                [&scans, &parts, i, done](Result<FvResult> r) {
                  if (r.ok()) parts[i] = std::move(r).value();
                  if (scans.Arrive(r.status())) done(scans.error());
                });
          }
        };
        loads.Expect(n);
        for (const Fragment& frag : st.fragments) {
          clients_[static_cast<size_t>(frag.shard)]->LoadPipelineAsync(
              factory, [&loads, scan_all](Status loaded) {
                if (loads.Arrive(loaded)) scan_all();
              });
        }
      }));

  FvResult out;
  for (size_t i = 0; i < n; ++i) {
    FvResult& part = *parts[i];
    NodeStats& stats = ShardStats(st.fragments[i].shard);
    stats.RecordFragmentOffload(part.data.size());
    if (merger != nullptr) {
      stats.RecordPartialGroups(part.rows);
      FV_RETURN_IF_ERROR(merger->Consume(part.data.data(), part.data.size()));
    }
    AppendFragment(i, part, /*append_rows=*/merger == nullptr, &out);
  }
  if (merger != nullptr) {
    out.rows = merger->num_groups();
    out.data = merger->Finalize();
  }
  return out;
}

Result<FvResult> ShardedClient::FvSelect(const FTable& table,
                                         std::vector<Predicate> predicates,
                                         std::vector<int> projection,
                                         bool vectorized) {
  FV_ASSIGN_OR_RETURN(const ShardedTable* st, Lookup(table));
  const Schema schema = table.schema;
  PipelineFactory factory = [schema, predicates, projection]() {
    PipelineBuilder builder(schema);
    builder.Select(predicates);
    if (!projection.empty()) builder.Project(projection);
    return builder.Build();
  };
  return OffloadGather(*st, std::move(factory), vectorized,
                       /*merger=*/nullptr);
}

Result<FvResult> ShardedClient::FvGroupBy(const FTable& table,
                                          std::vector<int> key_columns,
                                          std::vector<AggSpec> aggs,
                                          const GroupingConfig& config) {
  FV_ASSIGN_OR_RETURN(const ShardedTable* st, Lookup(table));
  FV_ASSIGN_OR_RETURN(PartialMerger merger,
                      PartialMerger::Create(table.schema, key_columns, aggs));
  // The shards run the decomposable rewrite (AVG -> SUM + COUNT); the
  // merge reassembles the requested aggregates at the client.
  const std::vector<AggSpec> partials = PartialAggSpecs(aggs, nullptr);
  const Schema schema = table.schema;
  PipelineFactory factory = [schema, key_columns, partials, config]() {
    return PipelineBuilder(schema).GroupBy(key_columns, partials, config)
        .Build();
  };
  return OffloadGather(*st, std::move(factory), /*vectorized=*/false,
                       &merger);
}

Result<FvResult> ShardedClient::FvJoin(const FTable& probe, int probe_key,
                                       const FTable& build, int build_key) {
  FV_ASSIGN_OR_RETURN(const ShardedTable* probe_st, Lookup(probe));
  FV_ASSIGN_OR_RETURN(const ShardedTable* build_st, Lookup(build));
  // Repartition: the build side follows the probe data. Gather its
  // fragments to the client, then broadcast the whole build table to every
  // probe shard inside the join pipeline (it must fit the region's on-chip
  // hash structure, as in the single-node FvJoinSmall).
  FV_ASSIGN_OR_RETURN(FvResult build_read, TableRead(build));
  for (const Fragment& frag : build_st->fragments) {
    ShardStats(frag.shard).RecordRepartitionBytes(frag.local.SizeBytes());
  }
  FV_ASSIGN_OR_RETURN(Table build_rows,
                      Table::FromBytes(build.schema,
                                       std::move(build_read.data)));
  auto shared_build = std::make_shared<Table>(std::move(build_rows));
  const Schema schema = probe.schema;
  PipelineFactory factory = [schema, probe_key, shared_build, build_key]() {
    return PipelineBuilder(schema)
        .HashJoinSmall(probe_key, *shared_build, build_key)
        .Build();
  };
  return OffloadGather(*probe_st, std::move(factory), /*vectorized=*/false,
                       /*merger=*/nullptr);
}

}  // namespace farview
