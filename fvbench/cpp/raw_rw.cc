// raw_rw: four clients on a 1-replica ClusterClient issue one-sided 1 MiB
// reads and 256 KiB writes at 3:1 over their own 8 MiB table, with seeded
// 1e-3 packet loss and the retry policy on. The sim core, network and
// memory do the work; no operator runs, so an operator change should show
// no effect here. Every read is checked against a host shadow copy of the
// client's table that follows its completed writes.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fv/cluster.h"
#include "harness.h"
#include "table/generator.h"

namespace fvbench {
namespace {

using farview::ClusterClient;
using farview::ClusterConfig;
using farview::FarviewCluster;
using farview::FarviewNode;
using farview::FTable;
using farview::FvResult;
using farview::kKiB;
using farview::kMiB;
using farview::Result;
using farview::Schema;
using farview::Table;

constexpr int kClients = 4;
constexpr uint64_t kRowBytes = 64;
constexpr uint64_t kTableBytes = 8 * kMiB;
constexpr uint64_t kReadBytes = 1 * kMiB;
constexpr uint64_t kWriteBytes = 256 * kKiB;
/// Offsets are drawn on this grid.
constexpr uint64_t kAlign = 64 * kKiB;
/// Distinct write payloads per client.
constexpr int kPayloads = 4;

class RawRw final : public Workload {
 public:
  RawRw(uint64_t seed, Tracer* tracer) : Workload(seed, tracer) {
    if (tracer != nullptr) tracer->set_engine(&engine_);
  }

  int sessions() const override { return kClients; }

  void GenerateInputs() override {
    farview::TableGenerator gen(seed());
    const Schema wide = Schema::DefaultWideRow();
    for (int c = 0; c < kClients; ++c) {
      Result<Table> t = gen.Uniform(wide, kTableBytes / kRowBytes, 1ll << 40);
      FV_CHECK(t.ok());
      tables_.push_back(std::move(t).value());
      std::vector<Table> payloads;
      for (int p = 0; p < kPayloads; ++p) {
        Result<Table> w = gen.Uniform(wide, kWriteBytes / kRowBytes, 1ll << 40);
        FV_CHECK(w.ok());
        payloads.push_back(std::move(w).value());
      }
      payloads_.push_back(std::move(payloads));
      rngs_.emplace_back(seed() * 1000003 + static_cast<uint64_t>(c));
    }
  }

  /// The oracle of a raw read is the table itself: a shadow copy that
  /// follows the client's completed writes.
  void ComputeOracle() override {
    for (const Table& t : tables_) {
      shadow_.emplace_back(t.data(), t.data() + t.size_bytes());
    }
  }

  void BuildSystem() override {
    ClusterConfig cc;
    cc.num_replicas = 1;
    // Four 8 MiB tables in 2 MiB pages; DRAM capacity is host memory and
    // does not affect timing.
    cc.node.dram.channel_capacity = 24 * kMiB;
    cc.seed = seed();
    cc.node.net.faults.enabled = true;
    cc.node.net.faults.seed = seed();
    cc.node.net.faults.packet_loss_rate = 1e-3;
    cc.node.retry.enabled = true;
    cc.node.retry.completion_timeout = 5 * farview::kMillisecond;
    cluster_ = std::make_unique<FarviewCluster>(&engine_, cc);
    pending_.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      const Table& t = tables_[static_cast<size_t>(c)];
      auto client = std::make_unique<ClusterClient>(cluster_.get(), c);
      FV_CHECK(client->OpenConnection().ok());
      FTable ft;
      ft.name = "t";
      ft.name += std::to_string(c);
      ft.schema = t.schema();
      ft.num_rows = t.num_rows();
      FV_CHECK(client->AllocTableMem(&ft).ok());
      FV_CHECK(client->TableWrite(ft, t).ok());
      ftables_.push_back(ft);
      clients_.push_back(std::move(client));
    }
  }

  void Issue(int session) override {
    const size_t c = static_cast<size_t>(session);
    farview::Rng& rng = rngs_[c];
    Pending& p = pending_[c];
    p.write = rng.NextBelow(4) == 3;
    const uint64_t len = p.write ? kWriteBytes : kReadBytes;
    p.offset = rng.NextBelow((kTableBytes - len) / kAlign + 1) * kAlign;
    FTable range = ftables_[c];
    range.vaddr += p.offset;
    range.num_rows = len / kRowBytes;
    if (p.write) {
      p.payload = static_cast<int>(rng.NextBelow(kPayloads));
      clients_[c]->TableWriteAsync(
          range, payloads_[c][static_cast<size_t>(p.payload)],
          [this, session](Result<farview::SimTime> r) {
            OnWrite(session, r.status().code());
          });
    } else {
      clients_[c]->TableReadAsync(
          range, [this, session](Result<FvResult> r) { OnRead(session, r); });
    }
  }

  farview::sim::Engine& engine() override { return engine_; }
  std::vector<FarviewNode*> nodes() override { return {&cluster_->node(0)}; }

 private:
  struct Pending {
    bool write = false;
    uint64_t offset = 0;
    int payload = 0;
  };

  void OnRead(int session, const Result<FvResult>& r) {
    ScopedSpan span(tracer(), SpanKind::kCallback,
                    sink()->request_id(session), engine_.Now());
    const size_t c = static_cast<size_t>(session);
    Outcome o;
    o.table_bytes = kReadBytes;
    o.code = r.status().code();
    if (r.ok()) {
      const FvResult& v = r.value();
      o.ok = true;
      o.result_bytes = v.data.size();
      o.mismatch =
          v.data.size() != kReadBytes ||
          std::memcmp(v.data.data(), shadow_[c].data() + pending_[c].offset,
                      kReadBytes) != 0;
    }
    sink()->OnDone(session, o);
  }

  void OnWrite(int session, farview::StatusCode code) {
    const bool ok = code == farview::StatusCode::kOk;
    ScopedSpan span(tracer(), SpanKind::kCallback,
                    sink()->request_id(session), engine_.Now());
    const size_t c = static_cast<size_t>(session);
    Outcome o;
    o.table_bytes = kWriteBytes;
    o.ok = ok;
    o.code = code;
    if (ok) {
      const Table& payload =
          payloads_[c][static_cast<size_t>(pending_[c].payload)];
      std::memcpy(shadow_[c].data() + pending_[c].offset, payload.data(),
                  kWriteBytes);
    }
    sink()->OnDone(session, o);
  }

  farview::sim::Engine engine_;
  std::unique_ptr<FarviewCluster> cluster_;
  std::vector<std::unique_ptr<ClusterClient>> clients_;
  std::vector<Table> tables_;
  std::vector<std::vector<Table>> payloads_;
  std::vector<std::vector<uint8_t>> shadow_;
  std::vector<FTable> ftables_;
  std::vector<farview::Rng> rngs_;
  std::vector<Pending> pending_;
};

}  // namespace

std::unique_ptr<Workload> MakeRawRw(uint64_t seed, Tracer* tracer) {
  return std::make_unique<RawRw>(seed, tracer);
}

}  // namespace fvbench
