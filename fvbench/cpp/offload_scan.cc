// offload_scan: one Farview node, six clients, one per dynamic region. Each
// client keeps one offloaded scan outstanding over its own ~1 MiB table, one
// pipeline per client: DISTINCT over 32 keys (the LRU-hit regime), DISTINCT
// over unique keys (the cuckoo-insert regime), GROUP BY + SUM, SELECT at
// 10% selectivity, REGEX select on a string column, and PROJECT. The
// operator layer does most of the host work; the network carries only the
// reduced results.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline/engines.h"
#include "common/rng.h"
#include "fv/client.h"
#include "harness.h"
#include "operators/grouping.h"
#include "operators/packing.h"
#include "operators/projection.h"
#include "operators/regex_select.h"
#include "operators/selection.h"
#include "table/generator.h"

namespace fvbench {
namespace {

using farview::AggSpec;
using farview::CompareOp;
using farview::FarviewClient;
using farview::FarviewConfig;
using farview::FarviewNode;
using farview::FTable;
using farview::FvRequest;
using farview::FvResult;
using farview::OperatorPtr;
using farview::Pipeline;
using farview::Predicate;
using farview::QuerySpec;
using farview::Result;
using farview::Schema;
using farview::Table;

constexpr int kClients = 6;
/// Tables hold about 1 MiB of 64-byte rows: 16384 rows +- 1/32, drawn per
/// table from the seed, so simulated times differ between seeds.
constexpr uint64_t kRows = 16384;
constexpr const char* kNeedle = "farview";

enum class Query {
  kDistinctHit,     ///< DISTINCT a0, 32 distinct keys
  kDistinctUnique,  ///< DISTINCT a0, every key unique
  kGroupBySum,      ///< a0, SUM(a1) GROUP BY a0 (512 groups)
  kSelect,          ///< SELECT * WHERE a1 < 100 (10%)
  kRegex,           ///< SELECT * WHERE s0 ~ 'farview' (25% of rows)
  kProject,         ///< SELECT a0, a3
};

Query QueryOf(int client) { return static_cast<Query>(client); }

/// The query as a declarative spec, for the baseline oracle.
QuerySpec SpecOf(Query q) {
  switch (q) {
    case Query::kDistinctHit:
    case Query::kDistinctUnique:
      return QuerySpec::Distinct({0});
    case Query::kGroupBySum:
      return QuerySpec::GroupBy({0}, {AggSpec::Sum(1)});
    case Query::kSelect:
      return QuerySpec::Select({Predicate::Int(1, CompareOp::kLt, 100)});
    case Query::kRegex:
      return QuerySpec::Regex(0, kNeedle);
    case Query::kProject:
      return QuerySpec::Select({}, {0, 3});
  }
  return QuerySpec{};
}

/// The query's operator, built with the public factory.
Result<OperatorPtr> OperatorOf(Query q, const Schema& in) {
  switch (q) {
    case Query::kDistinctHit:
    case Query::kDistinctUnique:
      return farview::DistinctOp::Create(in, {0});
    case Query::kGroupBySum:
      return farview::GroupByOp::Create(in, {0}, {AggSpec::Sum(1)});
    case Query::kSelect:
      return farview::SelectionOp::Create(
          in, farview::PredicateList({Predicate::Int(1, CompareOp::kLt, 100)}));
    case Query::kRegex:
      return farview::RegexSelectOp::Create(in, 0, kNeedle);
    case Query::kProject:
      return farview::ProjectionOp::Create(in, {0, 3});
  }
  return farview::Status::InvalidArgument("unknown query");
}

class OffloadScan final : public Workload {
 public:
  OffloadScan(uint64_t seed, Tracer* tracer) : Workload(seed, tracer) {
    if (tracer != nullptr) tracer->set_engine(&engine_);
  }

  int sessions() const override { return kClients; }

  void GenerateInputs() override {
    farview::TableGenerator gen(seed());
    farview::Rng sizes(seed());
    const Schema wide = Schema::DefaultWideRow();
    for (int c = 0; c < kClients; ++c) {
      const uint64_t rows = kRows - kRows / 32 + sizes.NextBelow(kRows / 16);
      Result<Table> t = farview::Status::Internal("unset");
      switch (QueryOf(c)) {
        case Query::kDistinctHit:
          t = gen.WithDistinct(wide, rows, 0, 32, 1000);
          break;
        case Query::kDistinctUnique:
          t = gen.WithDistinct(wide, rows, 0, rows, 1000);
          break;
        case Query::kGroupBySum:
          t = gen.WithDistinct(wide, rows, 0, 512, 1000);
          break;
        case Query::kSelect:
          t = gen.Uniform(wide, rows, 1000);
          break;
        case Query::kRegex:
          t = gen.Strings(rows, 64, kNeedle, 0.25);
          break;
        case Query::kProject:
          t = gen.Uniform(wide, rows, 1 << 20);
          break;
      }
      FV_CHECK(t.ok()) << t.status().ToString();
      tables_.push_back(std::move(t).value());
    }
  }

  void ComputeOracle() override {
    farview::LocalEngine lcpu;
    for (int c = 0; c < kClients; ++c) {
      Result<farview::BaselineResult> r =
          lcpu.Execute(tables_[static_cast<size_t>(c)], SpecOf(QueryOf(c)));
      FV_CHECK(r.ok()) << r.status().ToString();
      expected_rows_.push_back(r.value().rows);
      expected_.push_back(std::move(r.value().data));
    }
  }

  void BuildSystem() override {
    FarviewConfig config;
    // Six 1 MiB tables take six 2 MiB pages; the simulated DRAM is sized to
    // fit them (its capacity is host memory and does not affect timing).
    config.dram.channel_capacity = 8 * farview::kMiB;
    node_ = std::make_unique<FarviewNode>(&engine_, config);
    for (int c = 0; c < kClients; ++c) {
      const Table& t = tables_[static_cast<size_t>(c)];
      auto client = std::make_unique<FarviewClient>(node_.get(), c);
      FV_CHECK(client->OpenConnection().ok());
      FTable ft;
      ft.name = "t";
      ft.name += std::to_string(c);
      ft.schema = t.schema();
      ft.num_rows = t.num_rows();
      FV_CHECK(client->AllocTableMem(&ft).ok());
      FV_CHECK(client->TableWrite(ft, t).ok());
      Result<Pipeline> p = BuildPipeline(QueryOf(c), t.schema());
      FV_CHECK(p.ok()) << p.status().ToString();
      FV_CHECK(client->LoadPipeline(std::move(p).value()).ok());
      requests_.push_back(client->ScanRequest(ft));
      regions_.push_back(client->qp()->region_id);
      clients_.push_back(std::move(client));
    }
  }

  void Issue(int session) override {
    const size_t c = static_cast<size_t>(session);
    clients_[c]->FarviewRequestAsync(
        requests_[c],
        [this, session](Result<FvResult> r) { OnResult(session, r); });
  }

  farview::sim::Engine& engine() override { return engine_; }
  std::vector<FarviewNode*> nodes() override { return {node_.get()}; }

  void AddCounts(Counts* c) const override {
    for (int k = 0; k < kNumOpKinds; ++k) {
      const std::string kind = OpKindName(static_cast<OpKind>(k));
      (*c)["op." + kind + ".stats_rows_in"] = op_rows_in_[k];
      (*c)["op." + kind + ".stats_rows_out"] = op_rows_out_[k];
      (*c)["op." + kind + ".rows_in"] = req_rows_in_[k];
      (*c)["op." + kind + ".rows_out"] = req_rows_out_[k];
    }
    (*c)["op.distinct.overflow_rows"] = distinct_overflow_;
  }

 private:
  /// Assembles the pipeline with `Pipeline::Append`: the query's operator,
  /// then the packer every deployed pipeline ends in; each wrapped in a
  /// `TimedOperator` in the traced run.
  Result<Pipeline> BuildPipeline(Query q, const Schema& in) {
    Pipeline p(in);
    Result<OperatorPtr> op = OperatorOf(q, in);
    if (!op.ok()) return op.status();
    p.Append(MaybeTimed(std::move(op).value(), tracer()));
    p.Append(MaybeTimed(
        std::make_unique<farview::PackingOp>(p.output_schema()), tracer()));
    return p;
  }

  void OnResult(int session, const Result<FvResult>& r) {
    ScopedSpan span(tracer(), SpanKind::kCallback,
                    sink()->request_id(session), engine_.Now());
    const size_t c = static_cast<size_t>(session);
    Outcome o;
    o.table_bytes = requests_[c].len;
    o.code = r.status().code();
    if (r.ok()) {
      const FvResult& v = r.value();
      o.ok = true;
      o.result_bytes = v.data.size();
      const farview::ByteBuffer& want = expected_[c];
      o.mismatch = v.degraded_raw || v.rows != expected_rows_[c] ||
                   v.data.size() != want.size() ||
                   std::memcmp(v.data.data(), want.data(), want.size()) != 0;
      AccountOperators(c, v.rows);
    }
    sink()->OnDone(session, o);
  }

  /// Folds the region pipeline's operator counters, read through the
  /// public `stats()` (mirrored by the decorator in the traced run).
  void AccountOperators(size_t c, uint64_t result_rows) {
    const Pipeline& p = node_->region(regions_[c]).pipeline();
    for (size_t i = 0; i < p.num_operators(); ++i) {
      const farview::Operator& op = p.op(i);
      const size_t k = static_cast<size_t>(OpKindOf(op.name()));
      op_rows_in_[k] += op.stats().rows_in;
      op_rows_out_[k] += op.stats().rows_out;
      if (k == static_cast<size_t>(OpKind::kOther)) continue;
      req_rows_in_[k] += requests_[c].len / requests_[c].tuple_bytes;
      req_rows_out_[k] += result_rows;
      if (const auto* d =
              dynamic_cast<const farview::DistinctOp*>(&Undecorated(op))) {
        distinct_overflow_ += d->overflow_rows();
      }
    }
  }

  farview::sim::Engine engine_;
  std::unique_ptr<FarviewNode> node_;
  std::vector<std::unique_ptr<FarviewClient>> clients_;
  std::vector<Table> tables_;
  std::vector<farview::ByteBuffer> expected_;
  std::vector<uint64_t> expected_rows_;
  std::vector<FvRequest> requests_;
  std::vector<int> regions_;
  /// Operator `stats()` summed at each completion (raw counters).
  uint64_t op_rows_in_[kNumOpKinds] = {};
  uint64_t op_rows_out_[kNumOpKinds] = {};
  /// Rows each operator kind consumed / the request returned.
  uint64_t req_rows_in_[kNumOpKinds] = {};
  uint64_t req_rows_out_[kNumOpKinds] = {};
  uint64_t distinct_overflow_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeOffloadScan(uint64_t seed, Tracer* tracer) {
  return std::make_unique<OffloadScan>(seed, tracer);
}

}  // namespace fvbench
