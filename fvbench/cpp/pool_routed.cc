// pool_routed: a ShardedPool of 4 shards x 2 replicas serving six tenants,
// each a ShardedClient with 8 closed-loop sessions. Every tenant owns 11 of
// the pool's 66 tables of 32 KiB, each placed whole on one shard; sessions
// pick a table Zipf-skewed and issue 70% gathered reads, 20% shard-local
// SELECTs and 10% mirrored writes. Admission control is on; one tenant
// issues without think time and offers about four times its token rate.
// Bulk data is small, so per-request cost dominates: client routing,
// breakers, retries, request contexts, NodeStats records and admission.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline/engines.h"
#include "common/rng.h"
#include "fv/sharding.h"
#include "harness.h"
#include "operators/packing.h"
#include "operators/selection.h"
#include "table/generator.h"

namespace fvbench {
namespace {

using farview::CompareOp;
using farview::FarviewNode;
using farview::FTable;
using farview::FvRequest;
using farview::FvResult;
using farview::Pipeline;
using farview::Predicate;
using farview::Result;
using farview::Schema;
using farview::ShardedClient;
using farview::ShardedConfig;
using farview::ShardedPool;
using farview::SimTime;
using farview::Table;

constexpr int kShards = 4;
constexpr int kReplicas = 2;
constexpr int kTenants = 6;
constexpr int kSessionsPerTenant = 8;
/// 66 tables in the pool. Every table takes a 2 MiB page on each replica
/// of its shard, and the simulated DRAM is host memory, so the pool holds
/// about 64 tables in all rather than 64 per tenant.
constexpr int kTablesPerTenant = 11;
constexpr uint64_t kRowBytes = 64;
/// Tables of about 32 KiB: 512 rows +- 1/32, drawn per table from the
/// seed, so simulated latencies differ between seeds.
constexpr uint64_t kTableRows = 512;
constexpr double kZipfTheta = 0.99;
/// The tenant that issues without think time.
constexpr int kHotTenant = kTenants - 1;
/// Think time of a well-behaved session between a completion and its next
/// request.
constexpr SimTime kThink = 40 * farview::kMicrosecond;
/// Per-tenant, per-node admission rate. Measured with admission off, a
/// well-behaved tenant offers at most ~41k requests/s to its busiest node
/// (two thirds of this rate) and the hot tenant ~250k/s (four times it).
constexpr double kTenantRatePerSec = 62500.0;

Predicate SelectPredicate() { return Predicate::Int(1, CompareOp::kLt, 100); }

enum class Op { kRead, kSelect, kWrite };

class PoolRouted final : public Workload {
 public:
  PoolRouted(uint64_t seed, Tracer* tracer) : Workload(seed, tracer) {
    if (tracer != nullptr) tracer->set_engine(&engine_);
  }

  int sessions() const override { return kTenants * kSessionsPerTenant; }

  void GenerateInputs() override {
    farview::TableGenerator gen(seed());
    farview::Rng sizes(seed());
    for (int i = 0; i < kTenants * kTablesPerTenant; ++i) {
      const uint64_t rows =
          kTableRows - kTableRows / 32 + sizes.NextBelow(kTableRows / 16);
      Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), rows, 1000);
      FV_CHECK(t.ok());
      tables_.push_back(std::move(t).value());
    }
    double total = 0;
    for (int i = 0; i < kTablesPerTenant; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfTheta);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    for (int s = 0; s < sessions(); ++s) {
      rngs_.emplace_back(seed() * 7919 + static_cast<uint64_t>(s));
    }
  }

  void ComputeOracle() override {
    farview::LocalEngine lcpu;
    const farview::QuerySpec spec = farview::QuerySpec::Select({SelectPredicate()});
    for (const Table& t : tables_) {
      Result<farview::BaselineResult> r = lcpu.Execute(t, spec);
      FV_CHECK(r.ok()) << r.status().ToString();
      select_rows_.push_back(r.value().rows);
      select_data_.push_back(std::move(r.value().data));
    }
  }

  void BuildSystem() override {
    ShardedConfig sc;
    sc.num_shards = kShards;
    sc.cluster.num_replicas = kReplicas;
    sc.cluster.seed = seed();
    farview::FarviewConfig& node = sc.cluster.node;
    node.dram.channel_capacity = 24 * farview::kMiB;
    node.submission_queue_depth = 2 * kSessionsPerTenant;
    node.retry.enabled = true;
    node.retry.max_attempts = 16;
    node.retry.completion_timeout = 2 * farview::kMillisecond;
    node.admission.enabled = true;
    node.admission.tenant_rate_per_sec = kTenantRatePerSec;
    node.admission.tenant_burst = 8.0;
    pool_ = std::make_unique<ShardedPool>(&engine_, sc);
    pending_.resize(static_cast<size_t>(sessions()));
    for (int t = 0; t < kTenants; ++t) {
      auto client = std::make_unique<ShardedClient>(pool_.get(), TenantId(t));
      FV_CHECK(client->OpenConnection().ok());
      for (int i = 0; i < kTablesPerTenant; ++i) {
        const Table& rows = tables_[TableIndex(t, i)];
        FTable ft;
        ft.name = "t";
        ft.name += std::to_string(t * kTablesPerTenant + i);
        ft.schema = rows.schema();
        ft.num_rows = rows.num_rows();
        // Hash placement: the whole table on one shard, hot ranks of
        // different tenants on different shards.
        FV_CHECK(client->AllocTableMem(&ft, (i + t) % kShards).ok());
        FV_CHECK(client->TableWrite(ft, rows).ok());
        ftables_.push_back(ft);
      }
      for (int s = 0; s < kShards; ++s) {
        const Schema schema = Schema::DefaultWideRow();
        FV_CHECK(client->shard_client(s)
                     .LoadPipeline([this, schema]() {
                       return BuildSelectPipeline(schema);
                     })
                     .ok());
      }
      tenants_.push_back(std::move(client));
    }
  }

  void Issue(int session) override {
    const size_t s = static_cast<size_t>(session);
    const int tenant = session / kSessionsPerTenant;
    farview::Rng& rng = rngs_[s];
    const double u = rng.NextDouble();
    const auto rank = static_cast<int>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                         rng.NextDouble()) -
        zipf_cdf_.begin());
    const size_t k = TableIndex(tenant, std::min(rank, kTablesPerTenant - 1));
    Pending& p = pending_[s];
    p.table = k;
    p.op = u < 0.7 ? Op::kRead : (u < 0.9 ? Op::kSelect : Op::kWrite);
    ShardedClient& client = *tenants_[static_cast<size_t>(tenant)];
    const FTable& ft = ftables_[k];
    switch (p.op) {
      case Op::kRead:
        client.TableReadAsync(ft, [this, session](Result<FvResult> r) {
          OnResult(session, r);
        });
        break;
      case Op::kSelect: {
        // Shard-local offload: the table lives whole on its home shard,
        // addressed there by its shard-local address.
        FvRequest req;
        req.vaddr = pool_->LocalVaddr(ft.vaddr);
        req.len = ft.SizeBytes();
        req.tuple_bytes = ft.schema.tuple_width();
        client.shard_client(pool_->ShardOf(ft.vaddr))
            .FarviewRequestAsync(req, [this, session](Result<FvResult> r) {
              OnResult(session, r);
            });
        break;
      }
      case Op::kWrite:
        // Rewrites the table's own rows, so concurrent readers of the same
        // table always see the generated bytes.
        client.TableWriteAsync(ft, tables_[k],
                               [this, session](Result<SimTime> r) {
                                 OnWrite(session, r.status().code());
                               });
        break;
    }
  }

  SimTime ThinkTime(int session) const override {
    return session / kSessionsPerTenant == kHotTenant ? 0 : kThink;
  }

  farview::sim::Engine& engine() override { return engine_; }

  std::vector<FarviewNode*> nodes() override {
    std::vector<FarviewNode*> out;
    for (int s = 0; s < kShards; ++s) {
      for (int r = 0; r < kReplicas; ++r) {
        out.push_back(&pool_->shard(s).node(r));
      }
    }
    return out;
  }

  void AddCounts(Counts* c) const override {
    (*c)["op.select.rows_in"] = select_rows_in_;
    (*c)["op.select.rows_out"] = select_rows_out_;
    (*c)["bench.reads"] = ops_[0];
    (*c)["bench.selects"] = ops_[1];
    (*c)["bench.writes"] = ops_[2];
  }

 private:
  struct Pending {
    Op op = Op::kRead;
    size_t table = 0;
  };

  static int TenantId(int tenant) { return tenant + 1; }
  static size_t TableIndex(int tenant, int i) {
    return static_cast<size_t>(tenant * kTablesPerTenant + i);
  }

  Result<Pipeline> BuildSelectPipeline(const Schema& in) {
    Pipeline p(in);
    Result<farview::OperatorPtr> op = farview::SelectionOp::Create(
        in, farview::PredicateList({SelectPredicate()}));
    if (!op.ok()) return op.status();
    p.Append(MaybeTimed(std::move(op).value(), tracer()));
    p.Append(MaybeTimed(
        std::make_unique<farview::PackingOp>(p.output_schema()), tracer()));
    return p;
  }

  void OnResult(int session, const Result<FvResult>& r) {
    ScopedSpan span(tracer(), SpanKind::kCallback,
                    sink()->request_id(session), engine_.Now());
    const Pending& p = pending_[static_cast<size_t>(session)];
    const Table& table = tables_[p.table];
    Outcome o;
    o.table_bytes = table.size_bytes();
    o.code = r.status().code();
    if (r.ok()) {
      const FvResult& v = r.value();
      o.ok = true;
      o.result_bytes = v.data.size();
      if (p.op == Op::kRead) {
        ++ops_[0];
        o.mismatch = v.data.size() != table.size_bytes() ||
                     std::memcmp(v.data.data(), table.data(),
                                 table.size_bytes()) != 0;
      } else {
        ++ops_[1];
        const farview::ByteBuffer& want = select_data_[p.table];
        select_rows_in_ += table.num_rows();
        select_rows_out_ += v.rows;
        o.mismatch = v.degraded_raw || v.rows != select_rows_[p.table] ||
                     v.data.size() != want.size() ||
                     std::memcmp(v.data.data(), want.data(), want.size()) != 0;
      }
    }
    sink()->OnDone(session, o);
  }

  void OnWrite(int session, farview::StatusCode code) {
    const bool ok = code == farview::StatusCode::kOk;
    ScopedSpan span(tracer(), SpanKind::kCallback,
                    sink()->request_id(session), engine_.Now());
    Outcome o;
    o.table_bytes = tables_[pending_[static_cast<size_t>(session)].table]
                        .size_bytes();
    o.ok = ok;
    o.code = code;
    if (ok) ++ops_[2];
    sink()->OnDone(session, o);
  }

  farview::sim::Engine engine_;
  std::unique_ptr<ShardedPool> pool_;
  std::vector<std::unique_ptr<ShardedClient>> tenants_;
  std::vector<Table> tables_;
  std::vector<FTable> ftables_;
  std::vector<farview::ByteBuffer> select_data_;
  std::vector<uint64_t> select_rows_;
  std::vector<double> zipf_cdf_;
  std::vector<farview::Rng> rngs_;
  std::vector<Pending> pending_;
  uint64_t select_rows_in_ = 0;
  uint64_t select_rows_out_ = 0;
  uint64_t ops_[3] = {};
};

}  // namespace

std::unique_ptr<Workload> MakePoolRouted(uint64_t seed, Tracer* tracer) {
  return std::make_unique<PoolRouted>(seed, tracer);
}

}  // namespace fvbench
