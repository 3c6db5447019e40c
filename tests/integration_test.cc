// Cross-system integration tests: Farview offloading vs the CPU baselines
// must produce byte-identical results for every query shape (the baselines
// are the oracles), and the relative timing must reproduce the paper's
// qualitative claims. Parameterized sweeps act as property tests.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <tuple>

#include "baseline/engines.h"
#include "benchlib/experiment.h"
#include "crypto/aes_ctr.h"
#include "fv/client.h"
#include "operators/compress_op.h"
#include "table/generator.h"

namespace farview {
namespace {

using bench::FvFixture;

/// Runs `spec` through Farview and returns the result.
Result<FvResult> RunOnFarview(FvFixture* fx, const FTable& ft,
                              const QuerySpec& spec,
                              bool vectorized = false) {
  FV_ASSIGN_OR_RETURN(Pipeline p, spec.BuildPipeline(ft.schema));
  FV_RETURN_IF_ERROR(fx->client().LoadPipeline(std::move(p)));
  return fx->client().FarviewRequest(fx->client().ScanRequest(ft, vectorized));
}

// ---------------------------------------------------------------------------
// Result equivalence: FV vs LCPU vs RCPU over query-shape sweeps
// ---------------------------------------------------------------------------

struct EquivalenceCase {
  const char* name;
  QuerySpec spec;
};

class EquivalenceTest : public ::testing::TestWithParam<int> {};

QuerySpec CaseSpec(int index) {
  switch (index) {
    case 0:
      return QuerySpec::Select({Predicate::Int(0, CompareOp::kLt, 50)});
    case 1:
      return QuerySpec::Select({Predicate::Int(0, CompareOp::kLt, 50),
                                Predicate::Int(1, CompareOp::kGe, 20)},
                               {0, 3, 5});
    case 2:
      return QuerySpec::Select({Predicate::Int(2, CompareOp::kEq, 7)});
    case 3:
      return QuerySpec::Distinct({0});
    case 4:
      return QuerySpec::Distinct({0, 1});
    case 5:
      return QuerySpec::GroupBy({1}, {AggSpec::Sum(2)});
    case 6:
      return QuerySpec::GroupBy(
          {0}, {AggSpec::Count(), AggSpec::Min(3), AggSpec::Max(3),
                AggSpec::Avg(4)});
    case 7: {
      QuerySpec q;
      q.aggregates = {AggSpec::Count(), AggSpec::Sum(0)};
      return q;
    }
    case 8: {
      QuerySpec q = QuerySpec::Select({Predicate::Int(0, CompareOp::kLt, 30)});
      q.distinct_keys = {1};
      return q;
    }
    default:
      return QuerySpec::Select({});
  }
}

TEST_P(EquivalenceTest, FarviewMatchesBothBaselines) {
  const int index = GetParam();
  const QuerySpec spec = CaseSpec(index);

  TableGenerator gen(1000 + static_cast<uint64_t>(index));
  Result<Table> t =
      gen.WithDistinct(Schema::DefaultWideRow(), 5000, 1, 64, 100);
  ASSERT_TRUE(t.ok());

  FvFixture fx;
  const FTable ft = fx.Upload("t", t.value());
  Result<FvResult> fv = RunOnFarview(&fx, ft, spec);
  ASSERT_TRUE(fv.ok()) << fv.status().ToString();

  LocalEngine lcpu;
  Result<BaselineResult> lr = lcpu.Execute(t.value(), spec);
  ASSERT_TRUE(lr.ok()) << lr.status().ToString();
  RemoteEngine rcpu;
  Result<BaselineResult> rr = rcpu.Execute(t.value(), spec);
  ASSERT_TRUE(rr.ok());

  EXPECT_EQ(fv.value().data, lr.value().data) << "FV vs LCPU, case " << index;
  EXPECT_EQ(fv.value().rows, lr.value().rows);
  EXPECT_EQ(lr.value().data, rr.value().data) << "LCPU vs RCPU";
}

INSTANTIATE_TEST_SUITE_P(QueryShapes, EquivalenceTest,
                         ::testing::Range(0, 9));

// ---------------------------------------------------------------------------
// Borrowed input: scans hand the first operator rows borrowed straight from
// the node's DRAM image, and LocalEngine borrows its input table. Operators
// that mutate or repack their input must still match the oracle.
// ---------------------------------------------------------------------------

TEST(BorrowedInputTest, DecryptPipelineMatchesBaselineAndLeavesMemory) {
  // 40000 rows of 64 B span two 2 MiB pages.
  TableGenerator gen(61);
  Result<Table> plain = gen.Uniform(Schema::DefaultWideRow(), 40000, 100);
  ASSERT_TRUE(plain.ok());
  const uint8_t key[16] = {9, 8, 7};
  const uint8_t nonce[16] = {6, 5, 4};
  Table encrypted = plain.value();
  AesCtr(key, nonce).Apply(encrypted.mutable_data(), encrypted.size_bytes(),
                           0);
  QuerySpec spec = QuerySpec::Decrypt(key, nonce);
  spec.predicates = {Predicate::Int(0, CompareOp::kLt, 40)};

  FvFixture fx;
  const FTable ft = fx.Upload("enc", encrypted);
  Result<FvResult> fv = RunOnFarview(&fx, ft, spec);
  ASSERT_TRUE(fv.ok()) << fv.status().ToString();
  Result<BaselineResult> lr = LocalEngine().Execute(encrypted, spec);
  ASSERT_TRUE(lr.ok()) << lr.status().ToString();
  EXPECT_GT(fv.value().rows, 0u);
  EXPECT_EQ(fv.value().rows, lr.value().rows);
  EXPECT_EQ(fv.value().data, lr.value().data);

  // Decryption worked on copies: the stored ciphertext is intact, so the
  // same scan decrypts the same bytes again.
  Result<FvResult> stored = fx.client().TableRead(ft);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value().data, encrypted.bytes());
  Result<FvResult> again = fx.client().FarviewRequest(
      fx.client().ScanRequest(ft));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().data, fv.value().data);
}

TEST(BorrowedInputTest, CompressPipelineMatchesBaseline) {
  TableGenerator gen(62);
  Result<Table> t =
      gen.WithDistinct(Schema::DefaultWideRow(), 40000, 1, 64, 100);
  ASSERT_TRUE(t.ok());
  FvFixture fx;
  const FTable ft = fx.Upload("t", t.value());
  // Compress straight over the borrowed scan, and behind a selection.
  for (const bool select : {false, true}) {
    SCOPED_TRACE(select ? "select|compress" : "compress");
    std::vector<Predicate> preds;
    if (select) preds = {Predicate::Int(0, CompareOp::kLt, 30)};
    PipelineBuilder builder(ft.schema);
    if (select) builder.Select(preds);
    Result<Pipeline> p = builder.Compress().Build();
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(fx.client().LoadPipeline(std::move(p).value()).ok());
    Result<FvResult> fv =
        fx.client().FarviewRequest(fx.client().ScanRequest(ft));
    ASSERT_TRUE(fv.ok()) << fv.status().ToString();
    Result<Table> rows =
        CompressOp::DecompressFrames(fv.value().data, ft.schema);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();

    Result<BaselineResult> lr =
        LocalEngine().Execute(t.value(), QuerySpec::Select(preds));
    ASSERT_TRUE(lr.ok());
    EXPECT_GT(lr.value().rows, 0u);
    EXPECT_EQ(rows.value().bytes(), lr.value().data);
  }
}

TEST(BorrowedInputTest, UnalignedScanAcrossPagesMatchesBaseline) {
  // 24 B rows do not divide the 4 KiB bursts, so most bursts stitch a
  // tuple and the rest are borrowed; the scan starts one row into the
  // table (off the stripe grid) and runs across a 2 MiB page boundary.
  const Schema schema = Schema::DefaultWideRow(3);
  TableGenerator gen(63);
  Result<Table> t = gen.Uniform(schema, 120000, 100);  // ~2.7 MiB
  ASSERT_TRUE(t.ok());
  FvFixture fx;
  const FTable ft = fx.Upload("t", t.value());
  const QuerySpec spec =
      QuerySpec::Select({Predicate::Int(1, CompareOp::kGe, 10)});
  Result<Pipeline> p = spec.BuildPipeline(schema);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(fx.client().LoadPipeline(std::move(p).value()).ok());

  FvRequest req = fx.client().ScanRequest(ft);
  req.vaddr += schema.tuple_width();
  req.len -= schema.tuple_width();
  Result<FvResult> fv = fx.client().FarviewRequest(req);
  ASSERT_TRUE(fv.ok()) << fv.status().ToString();

  const ByteBuffer& all = t.value().bytes();
  Result<Table> tail = Table::FromBytes(
      schema, ByteBuffer(all.begin() + schema.tuple_width(), all.end()));
  ASSERT_TRUE(tail.ok());
  Result<BaselineResult> lr = LocalEngine().Execute(tail.value(), spec);
  ASSERT_TRUE(lr.ok());
  EXPECT_EQ(fv.value().rows, lr.value().rows);
  EXPECT_EQ(fv.value().data, lr.value().data);
}

// ---------------------------------------------------------------------------
// Vectorization equivalence across selectivities
// ---------------------------------------------------------------------------

class VectorizationTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(VectorizationTest, VectorizedMatchesScalar) {
  const int64_t threshold = GetParam();
  TableGenerator gen(42);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), 20000, 100);
  ASSERT_TRUE(t.ok());
  FvFixture fx;
  const FTable ft = fx.Upload("t", t.value());
  const QuerySpec spec =
      QuerySpec::Select({Predicate::Int(0, CompareOp::kLt, threshold)});
  Result<FvResult> scalar = RunOnFarview(&fx, ft, spec, false);
  Result<FvResult> vectorized = RunOnFarview(&fx, ft, spec, true);
  ASSERT_TRUE(scalar.ok());
  ASSERT_TRUE(vectorized.ok());
  EXPECT_EQ(scalar.value().data, vectorized.value().data);
  // Vectorization never hurts.
  EXPECT_LE(vectorized.value().Elapsed(), scalar.value().Elapsed());
}

INSTANTIATE_TEST_SUITE_P(Selectivities, VectorizationTest,
                         ::testing::Values(100, 50, 25, 5, 0));

// ---------------------------------------------------------------------------
// Paper claims (timing shape)
// ---------------------------------------------------------------------------

TEST(PaperClaimsTest, FarviewBeatsBaselinesOnSelection) {
  // Figure 8: "in all cases (FV, FV-V) Farview outperforms both LCPU and
  // RCPU."
  TableGenerator gen(7);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), 131072, 100);
  ASSERT_TRUE(t.ok());  // 8 MiB
  FvFixture fx;
  const FTable ft = fx.Upload("t", t.value());
  LocalEngine lcpu;
  RemoteEngine rcpu;
  for (int64_t sel : {100, 50, 25}) {
    const QuerySpec spec =
        QuerySpec::Select({Predicate::Int(0, CompareOp::kLt, sel)});
    Result<FvResult> fv = RunOnFarview(&fx, ft, spec);
    ASSERT_TRUE(fv.ok());
    Result<BaselineResult> l = lcpu.Execute(t.value(), spec);
    Result<BaselineResult> r = rcpu.Execute(t.value(), spec);
    ASSERT_TRUE(l.ok());
    ASSERT_TRUE(r.ok());
    EXPECT_LT(fv.value().Elapsed(), l.value().elapsed) << "sel " << sel;
    EXPECT_LT(l.value().elapsed, r.value().elapsed) << "sel " << sel;
  }
}

TEST(PaperClaimsTest, DistinctBaselineDegradesWithCardinality) {
  // Figure 9(a): baseline runtimes increase dramatically with input size
  // (hash growth); Farview stays pipeline-bound.
  LocalEngine lcpu;
  FvFixture fx;
  SimTime fv_small = 0, fv_large = 0, cpu_small = 0, cpu_large = 0;
  for (const uint64_t rows : {20000ull, 200000ull}) {
    TableGenerator gen(rows);
    Result<Table> t =
        gen.WithDistinct(Schema::DefaultWideRow(), rows, 0, rows, 100);
    ASSERT_TRUE(t.ok());
    const FTable ft = fx.Upload("t" + std::to_string(rows), t.value());
    const QuerySpec spec = QuerySpec::Distinct({0});
    Result<FvResult> fv = RunOnFarview(&fx, ft, spec);
    ASSERT_TRUE(fv.ok());
    Result<BaselineResult> l = lcpu.Execute(t.value(), spec);
    ASSERT_TRUE(l.ok());
    if (rows == 20000ull) {
      fv_small = fv.value().Elapsed();
      cpu_small = l.value().elapsed;
    } else {
      fv_large = fv.value().Elapsed();
      cpu_large = l.value().elapsed;
    }
  }
  // CPU degrades super-linearly; Farview scales ~linearly with input.
  const double fv_ratio =
      static_cast<double>(fv_large) / static_cast<double>(fv_small);
  const double cpu_ratio =
      static_cast<double>(cpu_large) / static_cast<double>(cpu_small);
  EXPECT_GT(cpu_ratio, fv_ratio);
  EXPECT_LT(fv_ratio, 13.0);   // ≈ 10× data → ≈ 10× time (+latency floor)
  EXPECT_GT(cpu_ratio, 11.0);  // super-linear growth
}

TEST(PaperClaimsTest, DecryptionAddsNoThroughputPenaltyOnFarview) {
  // Figure 11(b): FV-RD vs FV-RD+Dec throughput is indistinguishable.
  TableGenerator gen(8);
  Result<Table> plain = gen.Uniform(Schema::DefaultWideRow(), 131072, 100);
  ASSERT_TRUE(plain.ok());
  uint8_t key[16] = {1};
  uint8_t nonce[16] = {2};
  Table encrypted = plain.value();
  AesCtr(key, nonce).Apply(encrypted.mutable_data(), encrypted.size_bytes(),
                           0);
  FvFixture fx;
  const FTable ft = fx.Upload("enc", encrypted);
  Result<FvResult> rd = fx.client().TableRead(ft);
  ASSERT_TRUE(rd.ok());
  Result<FvResult> rd_dec = fx.client().FvDecryptRead(ft, key, nonce);
  ASSERT_TRUE(rd_dec.ok());
  EXPECT_EQ(rd_dec.value().data, plain.value().bytes());
  const double ratio = static_cast<double>(rd_dec.value().Elapsed()) /
                       static_cast<double>(rd.value().Elapsed());
  EXPECT_LT(ratio, 1.05);
}

TEST(PaperClaimsTest, RegexFarviewAtLineRateCpuPerByte) {
  // Figure 10: FV sustains line rate; CPU pays per byte scanned.
  TableGenerator gen(9);
  Result<Table> t = gen.Strings(100000, 64, "xq", 0.5);  // 6.4 MB
  ASSERT_TRUE(t.ok());
  FvFixture fx;
  const FTable ft = fx.Upload("s", t.value());
  const QuerySpec spec = QuerySpec::Regex(0, "xq");
  Result<FvResult> fv = RunOnFarview(&fx, ft, spec);
  ASSERT_TRUE(fv.ok());
  LocalEngine lcpu;
  Result<BaselineResult> l = lcpu.Execute(t.value(), spec);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(fv.value().data, l.value().data);
  EXPECT_LT(fv.value().Elapsed(), l.value().elapsed);
}

TEST(PaperClaimsTest, SmartAddressingCrossoverBetween256And512) {
  // Figure 7: project three contiguous 8 B columns. Streaming 256 B tuples
  // beats smart addressing; smart addressing beats streaming 512 B tuples.
  const uint64_t rows = 1 << 15;
  auto standard = [&](int cols) -> SimTime {
    FvFixture fx;
    const Schema schema = Schema::DefaultWideRow(cols);
    TableGenerator gen(static_cast<uint64_t>(cols));
    Result<Table> t = gen.Uniform(schema, rows, 100);
    EXPECT_TRUE(t.ok());
    const FTable ft = fx.Upload("t", t.value());
    Result<Pipeline> p = PipelineBuilder(schema).Project({8, 9, 10}).Build();
    EXPECT_TRUE(p.ok());
    EXPECT_TRUE(fx.client().LoadPipeline(std::move(p).value()).ok());
    Result<FvResult> r =
        fx.client().FarviewRequest(fx.client().ScanRequest(ft));
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value().Elapsed() : 0;
  };
  auto smart = [&]() -> SimTime {
    FvFixture fx;
    const Schema schema = Schema::DefaultWideRow(64);
    TableGenerator gen(512);
    Result<Table> t = gen.Uniform(schema, rows, 100);
    EXPECT_TRUE(t.ok());
    const FTable ft = fx.Upload("t", t.value());
    Result<Pipeline> p =
        PipelineBuilder(schema.Project({8, 9, 10})).Build();
    EXPECT_TRUE(p.ok());
    EXPECT_TRUE(fx.client().LoadPipeline(std::move(p).value()).ok());
    FvRequest req = fx.client().ScanRequest(ft);
    req.smart_addressing = true;
    req.sa_access_bytes = 24;
    req.sa_offset = 64;
    Result<FvResult> r = fx.client().FarviewRequest(req);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value().Elapsed() : 0;
  };
  const SimTime t256 = standard(32);
  const SimTime t512 = standard(64);
  const SimTime sa = smart();
  EXPECT_LT(t256, sa);
  EXPECT_LT(sa, t512);
}

// ---------------------------------------------------------------------------
// Multi-client concurrency (the Figure 12 scenario, in miniature)
// ---------------------------------------------------------------------------

TEST(MultiClientTest, SixConcurrentDistinctQueries) {
  FvFixture fx;
  // Six clients, each with its own table (few distinct values, as in the
  // paper, so the network is not the bottleneck).
  std::vector<FarviewClient*> clients;
  clients.push_back(&fx.client());
  for (int i = 1; i < 6; ++i) clients.push_back(&fx.AddClient());

  TableGenerator gen(10);
  std::vector<FTable> tables;
  std::vector<Table> data;
  for (int i = 0; i < 6; ++i) {
    Result<Table> t =
        gen.WithDistinct(Schema::DefaultWideRow(), 20000, 0, 32, 100);
    ASSERT_TRUE(t.ok());
    data.push_back(std::move(t).value());
  }
  for (int i = 0; i < 6; ++i) {
    FTable ft;
    ft.name = "t" + std::to_string(i);
    ft.schema = data[static_cast<size_t>(i)].schema();
    ft.num_rows = data[static_cast<size_t>(i)].num_rows();
    ASSERT_TRUE(clients[static_cast<size_t>(i)]->AllocTableMem(&ft).ok());
    ASSERT_TRUE(clients[static_cast<size_t>(i)]
                    ->TableWrite(ft, data[static_cast<size_t>(i)])
                    .ok());
    tables.push_back(ft);
  }

  // Load pipelines (sequential control path), then fire all requests
  // concurrently and drain the engine once.
  int loaded = 0;
  for (int i = 0; i < 6; ++i) {
    Result<Pipeline> p = PipelineBuilder(tables[static_cast<size_t>(i)].schema)
                             .Distinct({0})
                             .Build();
    ASSERT_TRUE(p.ok());
    clients[static_cast<size_t>(i)]->LoadPipelineAsync(
        std::move(p).value(), [&loaded](Status s) {
          ASSERT_TRUE(s.ok());
          ++loaded;
        });
  }
  fx.engine().Run();
  ASSERT_EQ(loaded, 6);

  std::vector<Result<FvResult>> results;
  int completed = 0;
  results.reserve(6);
  for (int i = 0; i < 6; ++i) results.emplace_back(Status::Internal("pending"));
  const SimTime start = fx.engine().Now();
  for (int i = 0; i < 6; ++i) {
    clients[static_cast<size_t>(i)]->FarviewRequestAsync(
        clients[static_cast<size_t>(i)]->ScanRequest(
            tables[static_cast<size_t>(i)]),
        [&results, &completed, i](Result<FvResult> r) {
          results[static_cast<size_t>(i)] = std::move(r);
          ++completed;
        });
  }
  fx.engine().Run();
  ASSERT_EQ(completed, 6);

  SimTime all_done = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(results[static_cast<size_t>(i)].ok());
    EXPECT_EQ(results[static_cast<size_t>(i)].value().rows, 32u);
    all_done = std::max(all_done,
                        results[static_cast<size_t>(i)].value().completed_at);
  }
  const SimTime batch = all_done - start;

  // Solo run of the same query for comparison.
  FvFixture solo;
  const FTable ft = solo.Upload("solo", data[0]);
  Result<Pipeline> p = PipelineBuilder(ft.schema).Distinct({0}).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(solo.client().LoadPipeline(std::move(p).value()).ok());
  Result<FvResult> sr =
      solo.client().FarviewRequest(solo.client().ScanRequest(ft));
  ASSERT_TRUE(sr.ok());

  // Six concurrent clients share the two DRAM channels: the batch takes
  // several times a solo run but far less than 6× serialized (parallelism
  // across regions), and fair sharing keeps every client's result correct.
  EXPECT_GT(batch, sr.value().Elapsed());
  EXPECT_LT(batch, 6 * sr.value().Elapsed());
}

TEST(MultiClientTest, FairnessAcrossClients) {
  // Two clients issue identical requests simultaneously; fair sharing means
  // their completion times differ by well under the request duration.
  FvFixture fx;
  FarviewClient* c1 = &fx.client();
  FarviewClient* c2 = &fx.AddClient();
  TableGenerator gen(11);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), 65536, 100);
  ASSERT_TRUE(t.ok());

  FTable ft1, ft2;
  ft1.name = "a";
  ft1.schema = t.value().schema();
  ft1.num_rows = t.value().num_rows();
  ft2 = ft1;
  ft2.name = "b";
  ASSERT_TRUE(c1->AllocTableMem(&ft1).ok());
  ASSERT_TRUE(c1->TableWrite(ft1, t.value()).ok());
  ASSERT_TRUE(c2->AllocTableMem(&ft2).ok());
  ASSERT_TRUE(c2->TableWrite(ft2, t.value()).ok());

  int loaded = 0;
  for (FarviewClient* c : {c1, c2}) {
    Result<Pipeline> p = PipelineBuilder(t.value().schema()).Build();
    ASSERT_TRUE(p.ok());
    c->LoadPipelineAsync(std::move(p).value(),
                         [&loaded](Status s) {
                           ASSERT_TRUE(s.ok());
                           ++loaded;
                         });
  }
  fx.engine().Run();
  ASSERT_EQ(loaded, 2);

  std::optional<FvResult> r1, r2;
  c1->FarviewRequestAsync(c1->ScanRequest(ft1), [&](Result<FvResult> r) {
    ASSERT_TRUE(r.ok());
    r1 = std::move(r).value();
  });
  c2->FarviewRequestAsync(c2->ScanRequest(ft2), [&](Result<FvResult> r) {
    ASSERT_TRUE(r.ok());
    r2 = std::move(r).value();
  });
  fx.engine().Run();
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  const double e1 = static_cast<double>(r1->Elapsed());
  const double e2 = static_cast<double>(r2->Elapsed());
  EXPECT_LT(std::abs(e1 - e2) / std::max(e1, e2), 0.05);
}

}  // namespace
}  // namespace farview
