#include "fv/cluster.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/bytes.h"
#include "common/logging.h"
#include "fv/client_stack.h"

namespace farview {

// ---------------------------------------------------------------------------
// FarviewCluster
// ---------------------------------------------------------------------------

FarviewCluster::FarviewCluster(sim::Engine* engine,
                               const ClusterConfig& config)
    : engine_(engine), config_(config) {
  FV_CHECK(engine_ != nullptr);
  FV_CHECK(config_.num_replicas >= 1);
  // Routed calls track tried replicas in a 64-bit mask.
  FV_CHECK(config_.num_replicas <= 64);
  FV_CHECK(config_.faulted_replica >= 0 &&
           config_.faulted_replica < config_.num_replicas);
  for (int r = 0; r < config_.num_replicas; ++r) {
    FarviewConfig node_config = config_.node;
    if (r != config_.faulted_replica) {
      // Only the designated replica runs the fault schedule; survivors are
      // clean so failover has somewhere to go.
      node_config.faults = FvFaultConfig{};
      node_config.net.faults = NetFaultConfig{};
    }
    Replica replica;
    replica.node = std::make_unique<FarviewNode>(engine_, node_config);
    replica.resync =
        std::make_unique<ResyncScheduler>(engine_, config_.replication);
    replicas_.push_back(std::move(replica));
  }
  for (int r = 0; r < num_replicas(); ++r) {
    replicas_[static_cast<size_t>(r)].node->AddDownObserver(
        [this, r](bool down) { OnDownChange(r, down); });
  }
}

uint64_t FarviewCluster::AppendEntry(LogEntry entry) {
  log_.push_back(entry);
  return static_cast<uint64_t>(log_.size());
}

void FarviewCluster::SetEntryVaddr(uint64_t epoch, uint64_t vaddr) {
  log_[static_cast<size_t>(epoch - 1)].vaddr = vaddr;
}

void FarviewCluster::AbortEntry(uint64_t epoch) {
  log_[static_cast<size_t>(epoch - 1)].aborted = true;
  // Purge the epoch from every replica's recovery bookkeeping. A replica
  // fenced for this entry *before* the abort (e.g. the failed primary of
  // the very write being aborted) would otherwise keep it in `missed`: the
  // rejoin pass already ran against the pre-abort log, saw a live write
  // epoch, found no in-sync source holding bytes that in fact never landed
  // anywhere, and parked forever. Dropping the epoch here matches how
  // RunRejoinPass treats entries aborted before the pass (marked applied,
  // nothing to copy); epochs already consumed into `resyncing` stay with
  // their in-flight stream — the generation guard voids the stream if the
  // replica crashes again, and a completed stream just copied the
  // survivor's current bytes, which is the convergence target regardless.
  bool purged = false;
  for (Replica& replica : replicas_) {
    auto it = std::find(replica.missed.begin(), replica.missed.end(), epoch);
    if (it == replica.missed.end()) continue;
    replica.missed.erase(it);
    replica.applied_epoch = std::max(replica.applied_epoch, epoch);
    purged = true;
  }
  // A purge can turn a parked replica's missed list resyncable (or empty);
  // re-run those recoveries now instead of waiting for a rejoin that, with
  // every other replica down, would never come.
  if (purged) StartParkedRejoins();
}

void FarviewCluster::MarkApplied(int r, uint64_t epoch) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  replica.applied_epoch = std::max(replica.applied_epoch, epoch);
}

void FarviewCluster::MarkMissed(int r, uint64_t epoch) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  replica.missed.push_back(epoch);
  if (replica.state == ReplicaState::kInSync) {
    // A mirror hop failed on a replica still in rotation (e.g. it died
    // after target selection): fence it *now* — epoch fencing forbids
    // serving reads past a missed epoch — and recover it immediately.
    ++replica.rejoin_gen;
    replica.resync->Abort();
    ReclaimResyncing(replica);
    replica.state = ReplicaState::kResyncing;
    replica.restarted_at = engine_->Now();
    RunRejoinPass(r);
  }
}

void FarviewCluster::ReclaimResyncing(Replica& replica) {
  if (replica.resyncing.empty()) return;
  replica.resyncing.insert(replica.resyncing.end(), replica.missed.begin(),
                           replica.missed.end());
  replica.missed.swap(replica.resyncing);
  replica.resyncing.clear();
}

int FarviewCluster::AddRejoinHook(RejoinHook hook) {
  const int id = next_hook_id_++;
  rejoin_hooks_.emplace(id, std::move(hook));
  return id;
}

void FarviewCluster::RemoveRejoinHook(int id) { rejoin_hooks_.erase(id); }

void FarviewCluster::OnDownChange(int r, bool down) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  // Whatever recovery was in flight is void either way: a crash kills it, a
  // restart starts a fresh one. Epochs whose bytes were still streaming go
  // back to `missed` — they never landed, so the next pass must re-copy
  // them or the replica would rejoin holding pre-crash bytes.
  ++replica.rejoin_gen;
  replica.resync->Abort();
  ReclaimResyncing(replica);
  replica.pending_hooks = 0;
  replica.parked = false;
  if (down) {
    replica.state = ReplicaState::kDown;
    return;
  }
  replica.restarted_at = engine_->Now();
  replica.state = ReplicaState::kResyncing;
  RunRejoinPass(r);
}

int FarviewCluster::PickResyncSource(int r) const {
  for (int s = 0; s < num_replicas(); ++s) {
    if (s != r && InSync(s)) return s;
  }
  return -1;
}

void FarviewCluster::StartParkedRejoins() {
  for (int r = 0; r < num_replicas(); ++r) {
    Replica& replica = replicas_[static_cast<size_t>(r)];
    if (replica.state == ReplicaState::kResyncing && replica.parked) {
      replica.parked = false;
      RunRejoinPass(r);
    }
  }
}

Status FarviewCluster::ReplayControlEntry(FarviewNode* node,
                                          const LogEntry& entry) {
  switch (entry.kind) {
    case LogEntry::Kind::kAlloc: {
      FV_ASSIGN_OR_RETURN(const uint64_t vaddr,
                          node->mmu().Alloc(entry.client_id, entry.bytes));
      if (vaddr != entry.vaddr) {
        return Status::Internal("allocator divergence during log replay");
      }
      return Status::OK();
    }
    case LogEntry::Kind::kFree:
      return node->mmu().Free(entry.client_id, entry.vaddr);
    case LogEntry::Kind::kShare:
      return node->mmu().Share(entry.client_id, entry.vaddr);
    case LogEntry::Kind::kWrite:
      break;
  }
  return Status::Internal("write entries are resynced, not replayed");
}

void FarviewCluster::RunRejoinPass(int r) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  FV_CHECK(replica.state == ReplicaState::kResyncing);
  if (replica.missed.empty()) {
    RunRejoinHooks(r);
    return;
  }
  bool needs_source = false;
  for (const uint64_t epoch : replica.missed) {
    const LogEntry& entry = log_[static_cast<size_t>(epoch - 1)];
    if (!entry.aborted && entry.kind == LogEntry::Kind::kWrite) {
      needs_source = true;
      break;
    }
  }
  const int source = PickResyncSource(r);
  if (needs_source && source < 0) {
    // Every other replica is down or recovering too; park until one
    // rejoins (CompleteRejoin restarts parked recoveries).
    replica.parked = true;
    return;
  }
  FV_CHECK(replica.resyncing.empty())
      << "rejoin pass started with a resync stream outstanding";
  std::vector<uint64_t> missed;
  missed.swap(replica.missed);
  // Replay missed control entries in log order; collect missed write
  // ranges (deduplicated — a table rewritten ten times is copied once,
  // with the survivor's *current* bytes). Control replays land on the MMU
  // immediately and are marked applied here; write epochs stay attached to
  // the replica (`resyncing`) until the stream confirms their bytes landed,
  // so an abort mid-stream re-queues them instead of losing them.
  std::vector<ResyncScheduler::Range> ranges;
  std::set<std::tuple<int, uint64_t, uint64_t>> seen;
  for (const uint64_t epoch : missed) {
    const LogEntry& entry = log_[static_cast<size_t>(epoch - 1)];
    if (!entry.aborted && entry.kind == LogEntry::Kind::kWrite) {
      replica.resyncing.push_back(epoch);
      const auto key =
          std::make_tuple(entry.client_id, entry.vaddr, entry.bytes);
      if (seen.insert(key).second) {
        ranges.push_back({entry.client_id, entry.vaddr, entry.bytes});
      }
      continue;
    }
    replica.applied_epoch = std::max(replica.applied_epoch, epoch);
    if (entry.aborted) continue;
    const Status replayed = ReplayControlEntry(replica.node.get(), entry);
    FV_CHECK(replayed.ok())
        << "replication log replay diverged: " << replayed.ToString();
  }
  if (ranges.empty()) {
    RunRejoinHooks(r);
    return;
  }
  const uint64_t gen = replica.rejoin_gen;
  replica.resync->Start(
      replicas_[static_cast<size_t>(source)].node.get(), replica.node.get(),
      std::move(ranges), [this, r, gen](Status streamed) {
        Replica& rep = replicas_[static_cast<size_t>(r)];
        if (gen != rep.rejoin_gen) return;
        FV_CHECK(streamed.ok())
            << "resync stream failed: " << streamed.ToString();
        for (const uint64_t epoch : rep.resyncing) {
          rep.applied_epoch = std::max(rep.applied_epoch, epoch);
        }
        rep.resyncing.clear();
        // Entries may have been missed while the stream ran; loop until a
        // pass ends with nothing new missed.
        RunRejoinPass(r);
      });
}

void FarviewCluster::RunRejoinHooks(int r) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  if (rejoin_hooks_.empty()) {
    CompleteRejoin(r);
    return;
  }
  const uint64_t gen = replica.rejoin_gen;
  replica.pending_hooks = static_cast<int>(rejoin_hooks_.size());
  // Hooks may complete synchronously or unregister concurrently; iterate a
  // snapshot with the countdown pre-armed.
  std::vector<RejoinHook> hooks;
  hooks.reserve(rejoin_hooks_.size());
  for (const auto& entry : rejoin_hooks_) hooks.push_back(entry.second);
  for (const RejoinHook& hook : hooks) {
    hook(r, [this, r, gen]() {
      Replica& rep = replicas_[static_cast<size_t>(r)];
      if (gen != rep.rejoin_gen) return;
      if (--rep.pending_hooks > 0) return;
      if (!rep.missed.empty()) {
        // Writes landed while pipelines reloaded: another pass.
        RunRejoinPass(r);
        return;
      }
      CompleteRejoin(r);
    });
  }
}

void FarviewCluster::CompleteRejoin(int r) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  replica.state = ReplicaState::kInSync;
  replica.applied_epoch = epoch();
  replica.in_sync_at = engine_->Now();
  replica.node->stats().RecordResyncDone(engine_->Now() -
                                         replica.restarted_at);
  // A replica waiting for a resync source can proceed now.
  StartParkedRejoins();
}

// ---------------------------------------------------------------------------
// ClusterClient
// ---------------------------------------------------------------------------

/// One routed (read / operator) call, re-issued across replicas on
/// failover until a replica answers or none is left.
struct ClusterClient::RoutedCall {
  Verb verb = Verb::kRead;
  FvRequest request;  ///< kFarview payload
  FTable table;       ///< kRead payload
  uint64_t tried_mask = 0;
  /// True while the current hop occupies a Half-Open probe slot of its
  /// replica's breaker; the hop's outcome must settle that slot.
  bool probe_hop = false;
  /// Last `ResourceExhausted` seen while rotating (DESIGN.md §15). When the
  /// rotation exhausts, the call settles with this typed status (retry-after
  /// hint intact) instead of the generic fast-fail, so the caller's backoff
  /// can honor the server's hint.
  Status shed_error;
  std::function<void(Result<FvResult>)> done;
};

/// One mirrored write: primary hop, then parallel mirror hops.
struct ClusterClient::MirroredWrite {
  uint64_t vaddr = 0;
  const Table* rows = nullptr;  ///< caller keeps it alive until completion
  uint64_t epoch = 0;
  std::vector<int> targets;  ///< in-rotation replicas at issue, index order
  size_t primary_pos = 0;    ///< current primary candidate within `targets`
  FanOutJoin mirrors;  ///< acks of the hops after the primary's
  SimTime last_ack = 0;
  Status error;  ///< first primary-hop error, reported if all hops fail
  std::function<void(Result<SimTime>)> done;
};

ClusterClient::ClusterClient(FarviewCluster* cluster, int client_id)
    : cluster_(cluster),
      client_id_(client_id),
      alive_(std::make_shared<bool>(true)) {
  FV_CHECK(cluster_ != nullptr);
  const int n = cluster_->num_replicas();
  loaded_version_.assign(static_cast<size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    // Distinct jitter stream per (client, replica) breaker, derived from
    // the cluster seed so runs reproduce bit-for-bit.
    const uint64_t seed = cluster_->config().seed * 0x9E3779B97F4A7C15ull +
                          static_cast<uint64_t>(client_id_) * 1000003ull +
                          static_cast<uint64_t>(r);
    breakers_.push_back(std::make_unique<CircuitBreaker>(
        cluster_->engine(), cluster_->config().breaker, seed,
        &cluster_->node(r).stats()));
    // The nodes outlive this client; the alive flag voids the observer.
    cluster_->node(r).AddDownObserver([alive = alive_, this, r](bool down) {
      if (!*alive || !down) return;
      // Crash observed: force the breaker open so nothing waits out a
      // timeout against a known-dead replica.
      breakers_[static_cast<size_t>(r)]->ForceOpen();
    });
  }
  rejoin_hook_id_ = cluster_->AddRejoinHook(
      [this](int r, std::function<void()> hook_done) {
        OnRejoin(r, std::move(hook_done));
      });
}

ClusterClient::~ClusterClient() {
  *alive_ = false;
  cluster_->RemoveRejoinHook(rejoin_hook_id_);
  CloseConnection();
}

Status ClusterClient::OpenConnection() {
  return ConnectAll(
      cluster_->num_replicas(),
      [this](int r) {
        auto client =
            std::make_unique<FarviewClient>(&cluster_->node(r), client_id_);
        client->SetHealthGate(
            [breaker = breakers_[static_cast<size_t>(r)].get()]() {
              return !breaker->BlocksAttempts();
            });
        return client;
      },
      &clients_);
}

void ClusterClient::CloseConnection() { clients_.clear(); }

template <typename Apply>
Status ClusterClient::MirrorControl(FarviewCluster::LogEntry entry,
                                    const char* what, Apply apply) {
  if (!connected()) return NotConnected();
  entry.client_id = client_id_;
  const uint64_t epoch = cluster_->AppendEntry(entry);
  bool applied_any = false;
  for (int r = 0; r < cluster_->num_replicas(); ++r) {
    if (!cluster_->CanApply(r)) {
      cluster_->MarkMissed(r, epoch);
      continue;
    }
    const Status applied = apply(*clients_[static_cast<size_t>(r)], epoch);
    if (!applied.ok()) {
      // Control ops are synchronous and deterministic, so the failure is
      // not replica health: abort the epoch before reporting it, or a
      // replica that missed it would replay the doomed op (e.g. an alloc
      // with vaddr still 0) on rejoin and crash recovery.
      cluster_->AbortEntry(epoch);
      return applied;
    }
    cluster_->MarkApplied(r, epoch);
    applied_any = true;
  }
  if (!applied_any) {
    cluster_->AbortEntry(epoch);
    return Status::Unavailable(std::string("no in-rotation replica for ") +
                               what);
  }
  return Status::OK();
}

Status ClusterClient::AllocTableMem(FTable* table) {
  FarviewCluster::LogEntry entry;
  entry.kind = FarviewCluster::LogEntry::Kind::kAlloc;
  entry.bytes = table->SizeBytes();
  std::optional<uint64_t> vaddr;
  FV_RETURN_IF_ERROR(MirrorControl(
      entry, "allocation", [&](FarviewClient& replica, uint64_t epoch) {
        FTable replica_table = *table;
        const Status allocated = replica.AllocTableMem(&replica_table);
        if (!allocated.ok()) return allocated;
        if (!vaddr.has_value()) {
          vaddr = replica_table.vaddr;
          cluster_->SetEntryVaddr(epoch, *vaddr);
        } else if (replica_table.vaddr != *vaddr) {
          return Status::Internal("replica allocators diverged");
        }
        return Status::OK();
      }));
  table->vaddr = *vaddr;
  return Status::OK();
}

Status ClusterClient::FreeTableMem(FTable* table) {
  FarviewCluster::LogEntry entry;
  entry.kind = FarviewCluster::LogEntry::Kind::kFree;
  entry.vaddr = table->vaddr;
  FV_RETURN_IF_ERROR(
      MirrorControl(entry, "free", [&](FarviewClient& replica, uint64_t) {
        FTable replica_table = *table;
        return replica.FreeTableMem(&replica_table);
      }));
  table->vaddr = 0;
  return Status::OK();
}

Result<TableEntry> ClusterClient::ShareTable(const FTable& table) {
  FarviewCluster::LogEntry entry;
  entry.kind = FarviewCluster::LogEntry::Kind::kShare;
  entry.vaddr = table.vaddr;
  std::optional<TableEntry> shared;
  FV_RETURN_IF_ERROR(
      MirrorControl(entry, "share", [&](FarviewClient& replica, uint64_t) {
        FV_ASSIGN_OR_RETURN(TableEntry replica_entry,
                            replica.ShareTable(table));
        if (!shared.has_value()) shared = std::move(replica_entry);
        return Status::OK();
      }));
  return std::move(*shared);
}

Result<SimTime> ClusterClient::TableWrite(const FTable& table,
                                          const Table& rows) {
  return RunSync<Result<SimTime>>(
      cluster_->engine(), connected(),
      [&](auto done) { TableWriteAsync(table, rows, std::move(done)); });
}

void ClusterClient::TableWriteAsync(
    const FTable& table, const Table& rows,
    std::function<void(Result<SimTime>)> done) {
  Status valid = connected() ? CheckRowsMatch(table, rows) : NotConnected();
  if (!valid.ok()) {
    done(std::move(valid));
    return;
  }
  // Per-write control blocks recycle through the byte-block pool's size
  // classes (DESIGN.md §8a) so a write-heavy steady state stays off the
  // global allocator.
  auto mw = std::allocate_shared<MirroredWrite>(PooledAllocator<MirroredWrite>());
  mw->vaddr = table.vaddr;
  mw->rows = &rows;
  mw->done = std::move(done);
  FarviewCluster::LogEntry entry;
  entry.kind = FarviewCluster::LogEntry::Kind::kWrite;
  entry.client_id = client_id_;
  entry.vaddr = table.vaddr;
  entry.bytes = rows.size_bytes();
  mw->epoch = cluster_->AppendEntry(entry);
  for (int r = 0; r < cluster_->num_replicas(); ++r) {
    if (cluster_->CanApply(r)) {
      mw->targets.push_back(r);
    } else {
      cluster_->MarkMissed(r, mw->epoch);
    }
  }
  TryPrimaryWrite(std::move(mw));
}

void ClusterClient::TryPrimaryWrite(std::shared_ptr<MirroredWrite> mw) {
  if (mw->primary_pos >= mw->targets.size()) {
    // No replica was in rotation, or every candidate primary failed: no
    // replica holds the bytes, so abort the epoch and recovery skips it
    // (a lone restarted replica would otherwise wait forever for a resync
    // source holding bytes that never existed).
    cluster_->AbortEntry(mw->epoch);
    Settle(mw->done, mw->error.ok() ? Status::Unavailable(
                                          "no replica applied the mirrored write")
                                    : mw->error);
    return;
  }
  const int primary = mw->targets[mw->primary_pos];
  cluster_->node(primary).TableWrite(
      clients_[static_cast<size_t>(primary)]->qp()->qp_id, mw->vaddr,
      mw->rows->data(), mw->rows->size_bytes(),
      [this, mw, primary](Result<SimTime> res) {
        if (!res.ok()) {
          const Status& s = res.status();
          if (ClassifyHop(s) != HopOutcome::kHealthFailure) {
            // Not a health signal (e.g. an MMU error on a stale vaddr):
            // the same request would fail on every replica, so fencing
            // the primary — and then each candidate in turn — would empty
            // the rotation over one bad write. No bytes landed anywhere;
            // abort the epoch and report the error to the caller.
            cluster_->AbortEntry(mw->epoch);
            Settle(mw->done, res.status());
            return;
          }
          // The primary died under the write: record the failover and try
          // the next candidate as primary.
          cluster_->MarkMissed(primary, mw->epoch);
          cluster_->node(primary).stats().RecordFailover();
          if (mw->error.ok()) mw->error = s;
          ++mw->primary_pos;
          TryPrimaryWrite(mw);
          return;
        }
        cluster_->MarkApplied(primary, mw->epoch);
        mw->last_ack = res.value();
        // Primary acked: forward to the remaining live replicas in
        // parallel (the primary->secondary mirror hop).
        const size_t mirrors = mw->targets.size() - mw->primary_pos - 1;
        mw->mirrors.Expect(mirrors);
        if (mirrors == 0) {
          Settle(mw->done, mw->last_ack);
          return;
        }
        for (size_t i = mw->primary_pos + 1; i < mw->targets.size(); ++i) {
          const int secondary = mw->targets[i];
          cluster_->node(secondary)
              .TableWrite(
                  clients_[static_cast<size_t>(secondary)]->qp()->qp_id,
                  mw->vaddr, mw->rows->data(), mw->rows->size_bytes(),
                  [this, mw, secondary](Result<SimTime> mirror) {
                    if (mirror.ok()) {
                      cluster_->MarkApplied(secondary, mw->epoch);
                      mw->last_ack = std::max(mw->last_ack, mirror.value());
                    } else {
                      // Missed mirror: the secondary converges via resync;
                      // the cluster write still committed on the primary.
                      // No error classification here — whatever the cause,
                      // the primary holds bytes the secondary lacks, and
                      // resync from the primary is the repair either way.
                      cluster_->MarkMissed(secondary, mw->epoch);
                    }
                    if (mw->mirrors.Arrive()) Settle(mw->done, mw->last_ack);
                  });
        }
      });
}

Status ClusterClient::LoadPipeline(PipelineFactory factory) {
  return RunSync<Status>(cluster_->engine(), connected(), [&](auto done) {
    LoadPipelineAsync(std::move(factory), std::move(done));
  });
}

void ClusterClient::LoadPipelineAsync(PipelineFactory factory,
                                      std::function<void(Status)> done) {
  FV_CHECK(factory != nullptr);
  if (!connected()) {
    done(NotConnected());
    return;
  }
  pipeline_factory_ = std::move(factory);
  const uint64_t version = ++pipeline_version_;
  std::vector<int> targets;
  for (int r = 0; r < cluster_->num_replicas(); ++r) {
    if (cluster_->CanApply(r)) targets.push_back(r);
  }
  if (targets.empty()) {
    done(Status::Unavailable("no in-rotation replica for load"));
    return;
  }
  struct LoadAll {
    FanOutJoin join;
    std::function<void(Status)> done;
  };
  auto state = std::make_shared<LoadAll>();
  state->done = std::move(done);
  state->join.Expect(targets.size());
  for (const int r : targets) {
    Result<Pipeline> pipeline = pipeline_factory_();
    if (!pipeline.ok()) {
      if (state->join.Arrive(pipeline.status())) {
        state->done(state->join.error());
      }
      continue;
    }
    clients_[static_cast<size_t>(r)]->LoadPipelineAsync(
        std::move(pipeline.value()),
        [alive = alive_, this, state, r, version](Status loaded) {
          if (*alive && loaded.ok()) {
            loaded_version_[static_cast<size_t>(r)] = version;
          }
          if (state->join.Arrive(loaded)) state->done(state->join.error());
        });
  }
}

void ClusterClient::OnRejoin(int replica, std::function<void()> done) {
  // Reload the current pipeline recipe when the recovered replica is
  // behind (it missed a LoadPipeline while out of rotation). Pipelines
  // survive the crash itself (configuration flash), so a replica that was
  // current stays current.
  if (clients_.empty() || pipeline_factory_ == nullptr ||
      loaded_version_[static_cast<size_t>(replica)] == pipeline_version_) {
    done();
    return;
  }
  const uint64_t version = pipeline_version_;
  auto reloaded = [alive = alive_, this, replica, version, done](Status s) {
    if (*alive && !s.ok()) {
      // The replica still rejoins (its bytes are in sync) but keeps a stale
      // loaded_version_, so PickReplica fences it from operator traffic
      // until a later LoadPipeline succeeds. Reads are unaffected.
      FV_LOG(kWarning) << "pipeline reload failed during rejoin of replica "
                       << replica << ": " << s.ToString()
                       << "; replica serves reads only";
    } else if (*alive && version == pipeline_version_) {
      loaded_version_[static_cast<size_t>(replica)] = version;
    }
    done();
  };
  Result<Pipeline> pipeline = pipeline_factory_();
  if (!pipeline.ok()) {
    reloaded(pipeline.status());
    return;
  }
  clients_[static_cast<size_t>(replica)]->LoadPipelineAsync(
      std::move(pipeline.value()), std::move(reloaded));
}

int ClusterClient::PickReplica(uint64_t tried_mask, Verb verb, bool* probe) {
  const int n = cluster_->num_replicas();
  for (int i = 0; i < n; ++i) {
    const int r = (rr_cursor_ + i) % n;
    if ((tried_mask >> r) & 1u) continue;
    if (!cluster_->InSync(r)) continue;  // epoch fencing
    if (verb == Verb::kFarview && pipeline_factory_ != nullptr &&
        loaded_version_[static_cast<size_t>(r)] != pipeline_version_) {
      // Rejoined without the current pipeline (reload failed or is still
      // in flight): operator calls would fail non-retryably, so route
      // them elsewhere; the replica still serves reads.
      continue;
    }
    if (!breakers_[static_cast<size_t>(r)]->AllowRequest(probe)) continue;
    rr_cursor_ = (r + 1) % n;
    return r;
  }
  return -1;
}

void ClusterClient::IssueRouted(std::shared_ptr<RoutedCall> call) {
  if (!connected()) {
    // Never connected, or closed while the call failed over.
    Settle(call->done, NotConnected());
    return;
  }
  bool probe = false;
  const int r = PickReplica(call->tried_mask, call->verb, &probe);
  if (r < 0) {
    // Fast-fail: every replica is fenced, tripped, or already tried.
    // Counted on replica 0's stats (the cluster-level sink). When at least
    // one replica shed the call, report that typed status instead — the
    // pool is healthy but saturated, and the retry-after hint must survive
    // to the caller's backoff (DESIGN.md §15).
    cluster_->node(0).stats().RecordFastFail();
    Settle(call->done,
           call->shed_error.ok()
               ? Status::Unavailable("no in-sync replica available (fast-fail)")
               : std::move(call->shed_error));
    return;
  }
  call->tried_mask |= uint64_t{1} << r;
  call->probe_hop = probe;
  cluster_->node(r).stats().RecordClusterRequest();
  auto on_done = [this, call, r](Result<FvResult> res) {
    CircuitBreaker& breaker = *breakers_[static_cast<size_t>(r)];
    // Read before any re-route: a failover hop overwrites `probe_hop`.
    const bool probe_hop = call->probe_hop;
    switch (ClassifyHop(res.status())) {
      case HopOutcome::kOk:
        breaker.RecordSuccess(probe_hop);
        break;
      case HopOutcome::kShed:
        // Shed load (DESIGN.md §15): the replica is healthy, just refusing
        // work — no breaker penalty, no failover count. Rotate to another
        // replica that may have headroom; remember the typed status so an
        // exhausted rotation reports the shed (with its retry-after hint)
        // rather than a generic fast-fail.
        breaker.RecordShed(probe_hop);
        call->shed_error = res.status();
        IssueRouted(call);
        return;
      case HopOutcome::kRequestError:
        // Not a health signal (bad request, schema mismatch): report it,
        // don't penalize the replica. A probe hop still settles its slot
        // as a success — the replica answered, the error is the request's
        // fault — otherwise the slot would leak and a breaker whose every
        // probe drew a bad request would wedge Half-Open forever.
        if (probe_hop) breaker.RecordSuccess(/*probe=*/true);
        break;
      case HopOutcome::kHealthFailure:
        breaker.RecordFailure(probe_hop);
        cluster_->node(r).stats().RecordFailover();
        IssueRouted(call);
        return;
    }
    Settle(call->done, std::move(res));
  };
  if (call->verb == Verb::kRead) {
    clients_[static_cast<size_t>(r)]->TableReadAsync(call->table,
                                                     std::move(on_done));
  } else {
    clients_[static_cast<size_t>(r)]->FarviewRequestAsync(call->request,
                                                          std::move(on_done));
  }
}

Result<FvResult> ClusterClient::TableRead(const FTable& table) {
  return RunSync<Result<FvResult>>(
      cluster_->engine(), connected(),
      [&](auto done) { TableReadAsync(table, std::move(done)); });
}

void ClusterClient::TableReadAsync(
    const FTable& table, std::function<void(Result<FvResult>)> done) {
  auto call = std::allocate_shared<RoutedCall>(PooledAllocator<RoutedCall>());
  call->verb = Verb::kRead;
  call->table = table;
  call->done = std::move(done);
  IssueRouted(std::move(call));
}

Result<FvResult> ClusterClient::FarviewRequest(const FvRequest& request) {
  return RunSync<Result<FvResult>>(
      cluster_->engine(), connected(),
      [&](auto done) { FarviewRequestAsync(request, std::move(done)); });
}

void ClusterClient::FarviewRequestAsync(
    const FvRequest& request, std::function<void(Result<FvResult>)> done) {
  auto call = std::allocate_shared<RoutedCall>(PooledAllocator<RoutedCall>());
  call->verb = Verb::kFarview;
  call->request = request;
  call->done = std::move(done);
  IssueRouted(std::move(call));
}

FvRequest ClusterClient::ScanRequest(const FTable& table,
                                     bool vectorized) const {
  return FullScanRequest(table, vectorized);
}

}  // namespace farview
