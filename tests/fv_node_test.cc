// End-to-end tests of the Farview node: connections, memory management,
// table write/read round trips, operator offloading through dynamic
// regions, timing sanity, and the resource model.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "fv/client.h"
#include "fv/farview_node.h"
#include "crypto/aes_ctr.h"
#include "fv/resource_model.h"
#include "table/generator.h"

namespace farview {
namespace {

class FvNodeTest : public ::testing::Test {
 protected:
  FvNodeTest() : node_(&engine_, FarviewConfig()), client_(&node_, 1) {
    EXPECT_TRUE(client_.OpenConnection().ok());
  }

  /// Builds, uploads and registers a uniform table.
  FTable Upload(const std::string& name, uint64_t rows, int64_t range,
                uint64_t seed, int cols = 8) {
    TableGenerator gen(seed);
    Result<Table> t = gen.Uniform(Schema::DefaultWideRow(cols), rows, range);
    EXPECT_TRUE(t.ok());
    last_table_.emplace(std::move(t).value());
    FTable ft;
    ft.name = name;
    ft.schema = last_table_->schema();
    ft.num_rows = rows;
    EXPECT_TRUE(client_.AllocTableMem(&ft).ok());
    EXPECT_TRUE(client_.TableWrite(ft, *last_table_).ok());
    return ft;
  }

  sim::Engine engine_;
  FarviewNode node_;
  FarviewClient client_;
  std::optional<Table> last_table_;
};

// ---------------------------------------------------------------------------
// Connection management
// ---------------------------------------------------------------------------

TEST_F(FvNodeTest, ConnectionAssignsRegion) {
  ASSERT_NE(client_.qp(), nullptr);
  EXPECT_GE(client_.qp()->region_id, 0);
  EXPECT_LT(client_.qp()->region_id, node_.num_regions());
  EXPECT_TRUE(client_.qp()->connected);
}

TEST_F(FvNodeTest, RegionsExhaust) {
  // The fixture client took one region; 5 more fit, the 7th connection
  // fails ("six dynamic regions in our experiments").
  std::vector<std::unique_ptr<FarviewClient>> extra;
  for (int i = 0; i < 5; ++i) {
    extra.push_back(std::make_unique<FarviewClient>(&node_, 10 + i));
    EXPECT_TRUE(extra.back()->OpenConnection().ok()) << i;
  }
  FarviewClient overflow(&node_, 99);
  EXPECT_TRUE(overflow.OpenConnection().IsUnavailable());
  // Disconnecting frees a region for reuse.
  extra.pop_back();
  EXPECT_TRUE(overflow.OpenConnection().ok());
}

TEST_F(FvNodeTest, DoubleOpenFails) {
  EXPECT_TRUE(client_.OpenConnection().IsFailedPrecondition());
}

TEST_F(FvNodeTest, UnconnectedClientFailsPrecondition) {
  // Every data-path call on a closed client settles with FailedPrecondition;
  // async forms deliver it through `done` at the calling instant.
  client_.CloseConnection();
  TableGenerator gen(3);
  Result<Table> rows = gen.Uniform(Schema::DefaultWideRow(), 64, 100);
  ASSERT_TRUE(rows.ok());
  FTable ft;
  ft.name = "t";
  ft.schema = rows.value().schema();
  ft.num_rows = rows.value().num_rows();

  EXPECT_TRUE(client_.TableWrite(ft, rows.value())
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(client_.TableRead(ft).status().IsFailedPrecondition());
  Result<Pipeline> p = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(
      client_.LoadPipeline(std::move(p).value()).IsFailedPrecondition());
  EXPECT_TRUE(client_.FarviewRequest(client_.ScanRequest(ft))
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(client_.FvSelect(ft, {}).status().IsFailedPrecondition());

  std::vector<Status> settled;
  client_.TableReadAsync(
      ft, [&](Result<FvResult> r) { settled.push_back(r.status()); });
  client_.FarviewRequestAsync(client_.ScanRequest(ft), [&](Result<FvResult> r) {
    settled.push_back(r.status());
  });
  Result<Pipeline> q = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(q.ok());
  client_.LoadPipelineAsync(std::move(q).value(),
                            [&](Status s) { settled.push_back(s); });
  ASSERT_EQ(settled.size(), 3u);
  for (const Status& s : settled) {
    EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// Memory management + table round trip
// ---------------------------------------------------------------------------

TEST_F(FvNodeTest, TableWriteReadRoundTrip) {
  const FTable ft = Upload("t", 1000, 100, 1);
  Result<FvResult> r = client_.TableRead(ft);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().data, last_table_->bytes());
  EXPECT_EQ(r.value().bytes_on_wire, last_table_->size_bytes());
  EXPECT_GT(r.value().Elapsed(), 0);
}

TEST_F(FvNodeTest, AllocRequiresNameAndRows) {
  FTable bad;
  bad.schema = Schema::DefaultWideRow();
  EXPECT_TRUE(client_.AllocTableMem(&bad).IsInvalidArgument());
}

TEST_F(FvNodeTest, FreeDropsCatalogEntryAndMemory) {
  FTable ft = Upload("t", 100, 100, 2);
  const uint64_t allocated = node_.mmu().allocated_bytes();
  EXPECT_GT(allocated, 0u);
  EXPECT_TRUE(client_.FreeTableMem(&ft).ok());
  EXPECT_LT(node_.mmu().allocated_bytes(), allocated);
  EXPECT_FALSE(client_.catalog().Contains("t"));
}

TEST_F(FvNodeTest, CrossClientIsolationAndSharing) {
  const FTable ft = Upload("shared", 100, 100, 3);
  FarviewClient other(&node_, 2);
  ASSERT_TRUE(other.OpenConnection().ok());
  // Before sharing: the other client cannot read the table.
  Result<FvResult> denied = other.TableRead(ft);
  EXPECT_FALSE(denied.ok());
  // Share via catalog export/import.
  Result<TableEntry> entry = client_.ShareTable(ft);
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(other.ImportTable(entry.value()).ok());
  Result<FvResult> r = other.TableRead(ft);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().data, last_table_->bytes());
}

// ---------------------------------------------------------------------------
// Operator offloading
// ---------------------------------------------------------------------------

TEST_F(FvNodeTest, SelectMatchesLocalEvaluation) {
  const FTable ft = Upload("s", 4000, 100, 4);
  // SELECT * FROM S WHERE S.a < 50 AND S.b < 50.
  Result<FvResult> r = client_.FvSelect(
      ft, {Predicate::Int(0, CompareOp::kLt, 50),
           Predicate::Int(1, CompareOp::kLt, 50)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ByteBuffer expected;
  uint64_t expected_rows = 0;
  for (uint64_t row = 0; row < last_table_->num_rows(); ++row) {
    if (last_table_->GetInt64(row, 0) < 50 &&
        last_table_->GetInt64(row, 1) < 50) {
      const uint8_t* p = last_table_->Row(row).data();
      expected.insert(expected.end(), p, p + 64);
      ++expected_rows;
    }
  }
  EXPECT_EQ(r.value().rows, expected_rows);
  EXPECT_EQ(r.value().data, expected);
  EXPECT_EQ(r.value().bytes_on_wire, expected.size());
}

TEST_F(FvNodeTest, SelectWithProjection) {
  const FTable ft = Upload("s", 1000, 100, 5);
  Result<FvResult> r = client_.FvSelect(
      ft, {Predicate::Int(2, CompareOp::kGe, 90)}, {0, 2});
  ASSERT_TRUE(r.ok());
  // 16 B output rows.
  EXPECT_EQ(r.value().data.size(), r.value().rows * 16);
  Result<Table> out =
      Table::FromBytes(ft.schema.Project({0, 2}), r.value().data);
  ASSERT_TRUE(out.ok());
  for (uint64_t row = 0; row < out.value().num_rows(); ++row) {
    EXPECT_GE(out.value().GetInt64(row, 1), 90);
  }
}

TEST_F(FvNodeTest, VectorizedSelectSameResultFasterAtLowSelectivity) {
  const FTable ft = Upload("s", 200000, 100, 6);
  const std::vector<Predicate> preds = {
      Predicate::Int(0, CompareOp::kLt, 25)};
  Result<FvResult> scalar = client_.FvSelect(ft, preds, {}, false);
  ASSERT_TRUE(scalar.ok());
  Result<FvResult> vectorized = client_.FvSelect(ft, preds, {}, true);
  ASSERT_TRUE(vectorized.ok());
  EXPECT_EQ(scalar.value().data, vectorized.value().data);
  // 25% selectivity: the scalar pipe (16 GB/s) binds, vectorization nearly
  // doubles throughput (Section 6.4).
  const double speedup = static_cast<double>(scalar.value().Elapsed()) /
                         static_cast<double>(vectorized.value().Elapsed());
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 2.2);
}

TEST_F(FvNodeTest, DistinctMatchesReference) {
  TableGenerator gen(7);
  Result<Table> t =
      gen.WithDistinct(Schema::DefaultWideRow(), 10000, 0, 500, 1000);
  ASSERT_TRUE(t.ok());
  last_table_.emplace(std::move(t).value());
  FTable ft;
  ft.name = "d";
  ft.schema = last_table_->schema();
  ft.num_rows = 10000;
  ASSERT_TRUE(client_.AllocTableMem(&ft).ok());
  ASSERT_TRUE(client_.TableWrite(ft, *last_table_).ok());

  Result<FvResult> r = client_.FvDistinct(ft, {0});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows, 500u);
  EXPECT_EQ(r.value().data.size(), 500u * 8);
}

TEST_F(FvNodeTest, GroupByMatchesReference) {
  TableGenerator gen(8);
  Result<Table> t =
      gen.WithDistinct(Schema::DefaultWideRow(), 5000, 1, 40, 1000);
  ASSERT_TRUE(t.ok());
  last_table_.emplace(std::move(t).value());
  FTable ft;
  ft.name = "g";
  ft.schema = last_table_->schema();
  ft.num_rows = 5000;
  ASSERT_TRUE(client_.AllocTableMem(&ft).ok());
  ASSERT_TRUE(client_.TableWrite(ft, *last_table_).ok());

  Result<FvResult> r = client_.FvGroupBy(ft, {1}, {AggSpec::Sum(2)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows, 40u);
  // Verify sums against a reference.
  std::map<int64_t, int64_t> ref;
  for (uint64_t row = 0; row < last_table_->num_rows(); ++row) {
    ref[last_table_->GetInt64(row, 1)] += last_table_->GetInt64(row, 2);
  }
  Result<Pipeline> p = PipelineBuilder(ft.schema)
                           .GroupBy({1}, {AggSpec::Sum(2)})
                           .Build();
  ASSERT_TRUE(p.ok());
  Result<Table> out = Table::FromBytes(p.value().output_schema(),
                                       r.value().data);
  ASSERT_TRUE(out.ok());
  for (uint64_t g = 0; g < out.value().num_rows(); ++g) {
    const int64_t key = out.value().GetInt64(g, 0);
    EXPECT_EQ(out.value().GetInt64(g, 1), ref[key]) << key;
  }
}

TEST_F(FvNodeTest, RegexSelectOverFarview) {
  TableGenerator gen(9);
  Result<Table> t = gen.Strings(2000, 32, "xq", 0.5);
  ASSERT_TRUE(t.ok());
  last_table_.emplace(std::move(t).value());
  FTable ft;
  ft.name = "r";
  ft.schema = last_table_->schema();
  ft.num_rows = 2000;
  ASSERT_TRUE(client_.AllocTableMem(&ft).ok());
  ASSERT_TRUE(client_.TableWrite(ft, *last_table_).ok());

  Result<FvResult> r = client_.FvRegexSelect(ft, 0, "xq");
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(static_cast<double>(r.value().rows) / 2000.0, 0.5, 0.05);
}

TEST_F(FvNodeTest, EncryptedTableDecryptOnRead) {
  TableGenerator gen(10);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), 1000, 100);
  ASSERT_TRUE(t.ok());
  last_table_.emplace(std::move(t).value());

  uint8_t key[16] = {1, 2, 3};
  uint8_t nonce[16] = {4, 5, 6};
  // Store the table encrypted (Cypherbase-style: memory holds ciphertext).
  Table encrypted = *last_table_;
  AesCtr(key, nonce).Apply(encrypted.mutable_data(),
                           encrypted.size_bytes(), 0);
  FTable ft;
  ft.name = "enc";
  ft.schema = last_table_->schema();
  ft.num_rows = 1000;
  ASSERT_TRUE(client_.AllocTableMem(&ft).ok());
  ASSERT_TRUE(client_.TableWrite(ft, encrypted).ok());

  Result<FvResult> r = client_.FvDecryptRead(ft, key, nonce);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().data, last_table_->bytes());
}

TEST_F(FvNodeTest, SmartAddressingProjection) {
  // 512 B tuples; project 3 contiguous 8 B columns (the Fig. 7 workload).
  const Schema wide = Schema::DefaultWideRow(64);
  TableGenerator gen(11);
  Result<Table> t = gen.Uniform(wide, 2000, 100);
  ASSERT_TRUE(t.ok());
  last_table_.emplace(std::move(t).value());
  FTable ft;
  ft.name = "wide";
  ft.schema = wide;
  ft.num_rows = 2000;
  ASSERT_TRUE(client_.AllocTableMem(&ft).ok());
  ASSERT_TRUE(client_.TableWrite(ft, *last_table_).ok());

  // Pipeline input = the 3-column extraction (columns 8,9,10).
  const Schema projected = wide.Project({8, 9, 10});
  Result<Pipeline> p = PipelineBuilder(projected).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());

  FvRequest req = client_.ScanRequest(ft);
  req.smart_addressing = true;
  req.sa_access_bytes = 24;
  req.sa_offset = 64;  // column 8 starts at byte 64
  Result<FvResult> r = client_.FarviewRequest(req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows, 2000u);
  Result<Table> out = Table::FromBytes(projected, r.value().data);
  ASSERT_TRUE(out.ok());
  for (uint64_t row = 0; row < 2000; ++row) {
    EXPECT_EQ(out.value().GetInt64(row, 0), last_table_->GetInt64(row, 8));
    EXPECT_EQ(out.value().GetInt64(row, 2), last_table_->GetInt64(row, 10));
  }
}

// ---------------------------------------------------------------------------
// Error handling on the data path
// ---------------------------------------------------------------------------

TEST_F(FvNodeTest, RequestWithoutPipelineFails) {
  const FTable ft = Upload("t", 10, 10, 12);
  Result<FvResult> r = client_.FarviewRequest(client_.ScanRequest(ft));
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST_F(FvNodeTest, MismatchedTupleWidthFails) {
  const FTable ft = Upload("t", 10, 10, 13);
  Result<Pipeline> p =
      PipelineBuilder(Schema::DefaultWideRow(4)).Build();  // 32 B rows
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
  Result<FvResult> r = client_.FarviewRequest(client_.ScanRequest(ft));
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(FvNodeTest, UnmappedReadFails) {
  FTable ghost;
  ghost.name = "ghost";
  ghost.schema = Schema::DefaultWideRow();
  ghost.num_rows = 10;
  ghost.vaddr = 0xdead0000;
  Result<FvResult> r = client_.TableRead(ghost);
  EXPECT_FALSE(r.ok());
}

TEST_F(FvNodeTest, PartialTupleLengthRejected) {
  const FTable ft = Upload("t", 10, 10, 14);
  Result<Pipeline> p = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
  FvRequest req = client_.ScanRequest(ft);
  req.len -= 1;  // no longer a whole number of tuples
  Result<FvResult> r = client_.FarviewRequest(req);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Timing sanity
// ---------------------------------------------------------------------------

TEST_F(FvNodeTest, ReadThroughputIsNetworkBound) {
  const FTable ft = Upload("big", 262144, 100, 15);  // 16 MiB
  Result<FvResult> r = client_.TableRead(ft);
  ASSERT_TRUE(r.ok());
  const double gbps = AchievedGBps(ft.SizeBytes(), r.value().Elapsed());
  // "Reading from local on-board FPGA memory peaks at 12 GBps, indicating
  // the network is the main bottleneck."
  EXPECT_NEAR(gbps, 12.0, 0.5);
}

TEST_F(FvNodeTest, FullSelectivityMatchesPlainReadTime) {
  const FTable ft = Upload("s", 65536, 100, 16);  // 4 MiB
  Result<FvResult> read = client_.TableRead(ft);
  ASSERT_TRUE(read.ok());
  Result<FvResult> select = client_.FvSelect(
      ft, {Predicate::Int(0, CompareOp::kLt, 100)});  // selects everything
  ASSERT_TRUE(select.ok());
  // "All these operators achieve near line-rate speed, adding insignificant
  // latency to baseline network overheads."
  const double ratio = static_cast<double>(select.value().Elapsed()) /
                       static_cast<double>(read.value().Elapsed());
  EXPECT_LT(ratio, 1.1);
}

TEST_F(FvNodeTest, LowSelectivityFasterThanFullRead) {
  const FTable ft = Upload("s", 262144, 100, 17);  // 16 MiB
  Result<FvResult> full =
      client_.FvSelect(ft, {Predicate::Int(0, CompareOp::kLt, 100)});
  ASSERT_TRUE(full.ok());
  Result<FvResult> quarter =
      client_.FvSelect(ft, {Predicate::Int(0, CompareOp::kLt, 25)});
  ASSERT_TRUE(quarter.ok());
  EXPECT_LT(quarter.value().Elapsed(), full.value().Elapsed());
}

TEST_F(FvNodeTest, PipelineLoadTakesMilliseconds) {
  const SimTime before = engine_.Now();
  Result<Pipeline> p = PipelineBuilder(Schema::DefaultWideRow()).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
  EXPECT_GE(engine_.Now() - before, 5 * kMillisecond);
}

TEST_F(FvNodeTest, StreamingDeliversFirstByteEarly) {
  // Time-to-first-byte: a streaming selection delivers its first packet
  // long before completion; a blocking group-by only delivers after the
  // whole input was consumed.
  const FTable ft = Upload("big", 262144, 100, 40);  // 16 MiB
  Result<FvResult> streaming = client_.FvSelect(
      ft, {Predicate::Int(0, CompareOp::kLt, 100)});
  ASSERT_TRUE(streaming.ok());
  EXPECT_LT(streaming.value().TimeToFirstByte(),
            streaming.value().Elapsed() / 10);

  Result<FvResult> blocking =
      client_.FvGroupBy(ft, {1}, {AggSpec::Sum(2)});
  ASSERT_TRUE(blocking.ok());
  // The flush-phase result arrives only near the end.
  EXPECT_GT(blocking.value().TimeToFirstByte(),
            blocking.value().Elapsed() / 2);
}

// ---------------------------------------------------------------------------
// Read-at-burst-time semantics (DESIGN.md §8): a scan reads each burst from
// the node's DRAM image when the burst clears the datapath
// ---------------------------------------------------------------------------

/// Pass-through operator that logs, for every batch it sees, the simulated
/// time and the batch's row count. Reset (called at the start of every
/// request) clears the log.
class BurstLogOp : public Operator {
 public:
  struct Entry {
    SimTime at;
    uint64_t rows;
  };

  BurstLogOp(const Schema& schema, const sim::Engine* engine,
             std::vector<Entry>* log)
      : schema_(schema), engine_(engine), log_(log) {}

  Result<Batch> Process(Batch in) override {
    log_->push_back(Entry{engine_->Now(), in.num_rows});
    return in;
  }
  Result<Batch> Flush() override { return Batch::Empty(&schema_); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "burst_log"; }
  void Reset() override { log_->clear(); }

 private:
  Schema schema_;
  const sim::Engine* engine_;
  std::vector<Entry>* log_;
};

TEST_F(FvNodeTest, BurstStraddlingAPageBoundaryReadsBothPages) {
  // The datapath consumes the stream in burst completion order. Starting
  // one stripe into the table puts the delayed first burst (translation
  // latency) on the same channel as the last full burst of page 0, while
  // the 64 B burst that opens page 1 completes on the other channel first.
  // The late burst's bytes then straddle the 2 MiB page boundary and are
  // gathered from both pages.
  constexpr uint64_t kStripe = 4096;
  const FTable ft = Upload("t", 32769, 100, 50);  // 2 MiB + 64 B
  Result<Pipeline> p = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
  FvRequest req = client_.ScanRequest(ft);
  req.vaddr += kStripe;
  req.len -= kStripe;
  Result<FvResult> r = client_.FarviewRequest(req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ByteBuffer& all = last_table_->bytes();
  EXPECT_EQ(r.value().data, ByteBuffer(all.begin() + kStripe, all.end()));
}

TEST_F(FvNodeTest, FreeDuringScanSettlesTypedAndReleasesRegion) {
  FTable ft = Upload("doomed", 16384, 100, 51);  // 1 MiB
  Result<Pipeline> p = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
  // An undisturbed scan of the same table bounds the disturbed one.
  Result<FvResult> undisturbed =
      client_.FarviewRequest(client_.ScanRequest(ft));
  ASSERT_TRUE(undisturbed.ok());
  const SimTime duration =
      undisturbed.value().completed_at - undisturbed.value().issued_at;

  const SimTime start = engine_.Now();
  std::optional<Result<FvResult>> settled;
  SimTime settled_at = 0;
  client_.FarviewRequestAsync(client_.ScanRequest(ft),
                              [&](Result<FvResult> r) {
                                settled.emplace(std::move(r));
                                settled_at = engine_.Now();
                              });
  // Free the table halfway through the scan.
  engine_.ScheduleAfter(duration / 2, [&]() {
    EXPECT_TRUE(client_.FreeTableMem(&ft).ok());
  });
  engine_.Run();

  ASSERT_TRUE(settled.has_value());
  EXPECT_TRUE(settled->status().IsNotFound()) << settled->status().ToString();
  EXPECT_GT(settled_at, start + duration / 2);
  EXPECT_LE(settled_at, start + duration);
  EXPECT_FALSE(node_.region(client_.qp()->region_id).busy());

  // The region serves the next request normally.
  const FTable next = Upload("next", 4096, 100, 52);
  Result<FvResult> r = client_.FarviewRequest(client_.ScanRequest(next));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows, 4096u);
  EXPECT_EQ(r.value().data, last_table_->bytes());
}

TEST_F(FvNodeTest, WriteDuringScanIsSeenExactlyByLaterBursts) {
  constexpr uint64_t kRows = 16384;  // 1 MiB of 64 B rows
  const FTable ft = Upload("t", kRows, 100, 53);
  const Table old_rows = *last_table_;
  const uint32_t tw = ft.schema.tuple_width();

  std::vector<BurstLogOp::Entry> log;
  Pipeline p(ft.schema);
  p.Append(std::make_unique<BurstLogOp>(ft.schema, &engine_, &log));
  ASSERT_TRUE(client_.LoadPipeline(std::move(p)).ok());
  // An undisturbed scan tells where the datapath is halfway through: the
  // disturbed scan runs the same schedule up to the write.
  const SimTime start = engine_.Now();
  Result<FvResult> undisturbed =
      client_.FarviewRequest(client_.ScanRequest(ft));
  ASSERT_TRUE(undisturbed.ok());
  ASSERT_EQ(undisturbed.value().data, old_rows.bytes());
  const SimTime half =
      (undisturbed.value().completed_at - undisturbed.value().issued_at) / 2;
  uint64_t row_at_half = 0;
  for (const BurstLogOp::Entry& e : log) {
    if (e.at - start > half) break;
    row_at_half += e.rows;
  }
  ASSERT_GT(row_at_half, 1024u);
  ASSERT_LT(row_at_half, kRows - 1024);

  // Overwrite 64 KiB of rows straddling that point while the scan runs.
  const uint64_t first = row_at_half - 512;
  const uint64_t count = 1024;
  TableGenerator gen(54);
  Result<Table> fresh = gen.Uniform(ft.schema, count, 1000000);
  ASSERT_TRUE(fresh.ok());
  Table merged = old_rows;
  std::memcpy(merged.mutable_data() + first * tw, fresh.value().data(),
              count * tw);
  ASSERT_NE(merged.bytes(), old_rows.bytes());

  std::optional<Result<FvResult>> scan;
  const SimTime scan_start = engine_.Now();
  client_.FarviewRequestAsync(
      client_.ScanRequest(ft),
      [&](Result<FvResult> r) { scan.emplace(std::move(r)); });
  // The node applies the bytes when the write reaches it (`written_at`);
  // the write completes at the client later (`write_done_at`).
  SimTime written_at = 0;
  SimTime write_done_at = 0;
  engine_.ScheduleAfter(half, [&]() {
    written_at = engine_.Now();
    node_.TableWrite(client_.qp()->qp_id, ft.vaddr + first * tw,
                     fresh.value().data(), count * tw,
                     [&](Result<SimTime> r) {
                       EXPECT_TRUE(r.ok());
                       write_done_at = engine_.Now();
                     });
  });
  engine_.Run();

  ASSERT_TRUE(scan.has_value());
  ASSERT_TRUE(scan->ok()) << scan->status().ToString();
  EXPECT_EQ(written_at, scan_start + half);
  EXPECT_GT(write_done_at, written_at);
  EXPECT_LT(write_done_at, scan->value().completed_at);
  const ByteBuffer& got = scan->value().data;
  ASSERT_EQ(got.size(), old_rows.size_bytes());

  // Walk the bursts in stream order: a burst processed before the write
  // landed holds the old rows; one processed after holds the new ones.
  uint64_t row = 0;
  int before_in_range = 0;
  int after_in_range = 0;
  for (const BurstLogOp::Entry& e : log) {
    if (e.rows == 0) continue;
    ASSERT_NE(e.at, written_at) << "a burst shares the write's instant";
    const bool after = e.at > written_at;
    if (row < first + count && row + e.rows > first) {
      (after ? after_in_range : before_in_range)++;
    }
    const Table& want = after ? merged : old_rows;
    EXPECT_EQ(std::memcmp(got.data() + row * tw, want.data() + row * tw,
                          e.rows * tw),
              0)
        << "burst at row " << row << (after ? " (after)" : " (before)");
    row += e.rows;
  }
  EXPECT_EQ(row, kRows);
  EXPECT_GT(before_in_range, 0);
  EXPECT_GT(after_in_range, 0);
}

// ---------------------------------------------------------------------------
// Resource model (Table 1)
// ---------------------------------------------------------------------------

TEST(ResourceModelTest, BaseSystemMatchesTable1) {
  const ResourceUsage u = ResourceModel::BaseSystem(6);
  EXPECT_DOUBLE_EQ(u.lut_pct, 24.0);
  EXPECT_DOUBLE_EQ(u.reg_pct, 23.0);
  EXPECT_DOUBLE_EQ(u.bram_pct, 29.0);
  EXPECT_DOUBLE_EQ(u.dsp_pct, 0.0);
}

TEST(ResourceModelTest, OperatorRowsMatchTable1) {
  EXPECT_LT(ResourceModel::OperatorUsage("selection").lut_pct, 1.0);
  EXPECT_DOUBLE_EQ(ResourceModel::OperatorUsage("regex").lut_pct, 2.3);
  EXPECT_DOUBLE_EQ(ResourceModel::OperatorUsage("distinct").bram_pct, 8.0);
  EXPECT_DOUBLE_EQ(ResourceModel::OperatorUsage("crypto").lut_pct, 3.6);
  EXPECT_DOUBLE_EQ(ResourceModel::OperatorUsage("group_by").reg_pct, 1.3);
}

TEST(ResourceModelTest, TenRegionsWithFilterPipelinesFit) {
  // The paper tested up to ten regions; light selection/projection
  // pipelines in all ten fit the device.
  Result<Pipeline> filter =
      PipelineBuilder(Schema::DefaultWideRow())
          .Select({Predicate::Int(0, CompareOp::kLt, 5)})
          .Project({0, 1})
          .Build();
  ASSERT_TRUE(filter.ok());
  std::vector<const Pipeline*> light(10, &filter.value());
  EXPECT_TRUE(ResourceModel::Fits(ResourceModel::Total(10, light)));

  // BRAM-heavy hash pipelines fit in all six regions of the evaluated
  // deployment, but ten of them exhaust BRAM — the placement/sizing
  // restriction Section 4.1 discusses.
  Result<Pipeline> hash =
      PipelineBuilder(Schema::DefaultWideRow()).Distinct({0}).Build();
  ASSERT_TRUE(hash.ok());
  std::vector<const Pipeline*> six(6, &hash.value());
  EXPECT_TRUE(ResourceModel::Fits(ResourceModel::Total(6, six)));
  std::vector<const Pipeline*> ten(10, &hash.value());
  EXPECT_FALSE(ResourceModel::Fits(ResourceModel::Total(10, ten)));
}

TEST(ResourceModelTest, FormatTable1ContainsRows) {
  const std::string t = ResourceModel::FormatTable1(6);
  EXPECT_NE(t.find("6 regions"), std::string::npos);
  EXPECT_NE(t.find("Regular expression"), std::string::npos);
  EXPECT_NE(t.find("En(de)cryption"), std::string::npos);
  EXPECT_NE(t.find("<1%"), std::string::npos);
}

TEST_F(FvNodeTest, NodeTracksLoadedPipelineResources) {
  const ResourceUsage before = node_.CurrentResources();
  Result<Pipeline> p = PipelineBuilder(Schema::DefaultWideRow())
                           .Distinct({0})
                           .Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
  const ResourceUsage after = node_.CurrentResources();
  EXPECT_GT(after.bram_pct, before.bram_pct);  // distinct uses BRAM
}

// ---------------------------------------------------------------------------
// Submission queues + request lifecycle telemetry
// ---------------------------------------------------------------------------

/// Fixture with a deeper per-queue-pair submission queue so a single client
/// can post several outstanding requests on one connection.
class FvQueueTest : public ::testing::Test {
 protected:
  static FarviewConfig DeepQueueConfig(int depth) {
    FarviewConfig c;
    c.submission_queue_depth = depth;
    return c;
  }

  explicit FvQueueTest(int depth = 4)
      : node_(&engine_, DeepQueueConfig(depth)), client_(&node_, 1) {
    EXPECT_TRUE(client_.OpenConnection().ok());
  }

  /// Uploads a uniform table and loads the identity pipeline for it.
  FTable UploadWithPipeline(uint64_t rows, uint64_t seed) {
    TableGenerator gen(seed);
    Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), rows, 100);
    EXPECT_TRUE(t.ok());
    FTable ft;
    ft.name = "t";
    ft.schema = t.value().schema();
    ft.num_rows = rows;
    EXPECT_TRUE(client_.AllocTableMem(&ft).ok());
    EXPECT_TRUE(client_.TableWrite(ft, t.value()).ok());
    Result<Pipeline> p = PipelineBuilder(ft.schema).Build();
    EXPECT_TRUE(p.ok());
    EXPECT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
    return ft;
  }

  sim::Engine engine_;
  FarviewNode node_;
  FarviewClient client_;
};

TEST_F(FvQueueTest, AsyncRequestsDrainFifoWithoutReconnecting) {
  const FTable ft = UploadWithPipeline(4096, 21);
  constexpr int kRequests = 4;  // == queue depth

  std::vector<int> completion_order;
  std::vector<Result<FvResult>> results;
  for (int i = 0; i < kRequests; ++i) {
    results.emplace_back(Status::Internal("pending"));
  }
  for (int i = 0; i < kRequests; ++i) {
    client_.FarviewRequestAsync(
        client_.ScanRequest(ft),
        [&completion_order, &results, i](Result<FvResult> r) {
          completion_order.push_back(i);
          results[static_cast<size_t>(i)] = std::move(r);
        });
  }
  engine_.Run();

  // All four completed, in submission order, on the one connection.
  ASSERT_EQ(completion_order.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(completion_order[static_cast<size_t>(i)], i);
    ASSERT_TRUE(results[static_cast<size_t>(i)].ok()) << i;
    EXPECT_EQ(results[static_cast<size_t>(i)].value().rows, 4096u);
  }
  // Later requests waited in the queue: strictly increasing completion.
  for (int i = 1; i < kRequests; ++i) {
    EXPECT_GT(results[static_cast<size_t>(i)].value().completed_at,
              results[static_cast<size_t>(i - 1)].value().completed_at);
  }

  // Telemetry observed the queue filling to its depth.
  const int qp_id = client_.qp()->qp_id;
  const auto it = node_.stats().per_qp().find(qp_id);
  ASSERT_NE(it, node_.stats().per_qp().end());
  EXPECT_EQ(it->second.queue_high_water, static_cast<size_t>(kRequests));
  EXPECT_EQ(node_.stats().rejected_count(), 0u);
  // And the report mentions it.
  EXPECT_NE(node_.StatsReport().find("queue high-water"), std::string::npos);
}

class FvQueueDepth2Test : public FvQueueTest {
 protected:
  FvQueueDepth2Test() : FvQueueTest(2) {}
};

TEST_F(FvQueueDepth2Test, SubmissionBeyondDepthRejectedUnavailable) {
  const FTable ft = UploadWithPipeline(4096, 22);
  std::vector<Result<FvResult>> results;
  for (int i = 0; i < 3; ++i) {
    results.emplace_back(Status::Internal("pending"));
  }
  for (int i = 0; i < 3; ++i) {
    client_.FarviewRequestAsync(client_.ScanRequest(ft),
                                [&results, i](Result<FvResult> r) {
                                  results[static_cast<size_t>(i)] =
                                      std::move(r);
                                });
  }
  engine_.Run();
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].status().IsUnavailable());
  EXPECT_EQ(node_.stats().rejected_count(), 1u);
  EXPECT_EQ(node_.stats().completed_count(), 3u);  // write + 2 requests
}

TEST_F(FvQueueTest, DisconnectFailsQueuedRequestsExecutingOneFinishes) {
  const FTable ft = UploadWithPipeline(4096, 23);
  std::vector<Result<FvResult>> results;
  for (int i = 0; i < 3; ++i) {
    results.emplace_back(Status::Internal("pending"));
  }
  for (int i = 0; i < 3; ++i) {
    client_.FarviewRequestAsync(client_.ScanRequest(ft),
                                [&results, i](Result<FvResult> r) {
                                  results[static_cast<size_t>(i)] =
                                      std::move(r);
                                });
  }
  // Run just past the ingress hop: the first request is executing on the
  // region, the other two are waiting in the submission queue.
  engine_.RunUntil(engine_.Now() + node_.config().net.fv_request_latency +
                   kNanosecond);
  const SubmissionQueue* q = node_.submission_queue(client_.qp()->qp_id);
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->executing());
  EXPECT_EQ(q->waiting(), 2u);

  client_.CloseConnection();
  engine_.Run();

  // The in-flight request completes (one-sided RDMA already in the
  // network); the queued ones fail with Unavailable.
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].status().IsUnavailable());
  EXPECT_TRUE(results[2].status().IsUnavailable());
  EXPECT_EQ(node_.stats().failed_count(), 2u);
}

TEST_F(FvQueueTest, StageStampsMonotoneForEveryCompletedRequest) {
  const FTable ft = UploadWithPipeline(4096, 24);
  // A mixed workload on one connection: queued Farview requests plus a
  // plain read, all through the submission queue.
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    client_.FarviewRequestAsync(client_.ScanRequest(ft),
                                [&done](Result<FvResult> r) {
                                  EXPECT_TRUE(r.ok());
                                  ++done;
                                });
  }
  node_.TableRead(client_.qp()->qp_id, client_.ScanRequest(ft).vaddr,
                  client_.ScanRequest(ft).len, [&done](Result<FvResult> r) {
                    EXPECT_TRUE(r.ok());
                    ++done;
                  });
  engine_.Run();
  ASSERT_EQ(done, 4);

  // Every completed request (the table write included) satisfies the
  // lifecycle invariant; region verbs visited every stage.
  ASSERT_GE(node_.stats().completed().size(), 5u);
  for (const NodeStats::RequestRecord& rec : node_.stats().completed()) {
    EXPECT_TRUE(rec.StampsMonotone()) << "request " << rec.request_id;
    // (The very first write is submitted at sim time 0, so `submitted`
    // itself may legitimately be 0.)
    EXPECT_GE(rec.ingress_done, rec.submitted);
    EXPECT_GT(rec.delivered, 0);
    if (rec.verb == Verb::kFarview || rec.verb == Verb::kRead) {
      // submitted <= region-start <= operator-done <= delivered, all set.
      EXPECT_GE(rec.region_start, rec.submitted);
      EXPECT_GE(rec.first_memory_beat, rec.region_start);
      EXPECT_GE(rec.operator_done, rec.first_memory_beat);
      EXPECT_GE(rec.egress_finished, rec.operator_done);
      EXPECT_GE(rec.delivered, rec.egress_finished);
    }
  }
  // Queue waits were recorded for the requests that had to wait.
  EXPECT_GT(node_.stats().queue_wait().Max(), 0.0);
}

// --- NodeStats::MergeFrom (DESIGN.md §14 per-partition merge) --------------

/// Builds a completed-request context with stamps derived from `i` so every
/// stage latency, byte count and qp id is distinct and deterministic.
RequestContext MergeTestCtx(uint64_t i, int qp_id) {
  RequestContext ctx;
  ctx.request_id = i + 1;
  ctx.qp_id = qp_id;
  ctx.client_id = static_cast<int>(i % 3);
  ctx.verb = Verb::kFarview;
  const SimTime base = static_cast<SimTime>(i + 1) * kMicrosecond;
  ctx.submitted = base;
  ctx.ingress_done = base + 100 * kNanosecond;
  ctx.region_start = base + (200 + static_cast<SimTime>(i)) * kNanosecond;
  ctx.first_memory_beat = base + 300 * kNanosecond;
  ctx.operator_done = base + 400 * kNanosecond;
  ctx.egress_finished = base + 500 * kNanosecond;
  ctx.delivered = base + (600 + 7 * static_cast<SimTime>(i)) * kNanosecond;
  ctx.bytes_on_wire = 1000 + 13 * i;
  ctx.packets = 2 + i % 4;
  ctx.rows = 10 * i;
  return ctx;
}

TEST(NodeStatsMergeTest, MergedRegistriesMatchDirectRecording) {
  // Two partition registries record disjoint halves of a request stream;
  // `direct` records the identical stream in the same (domain-major) order
  // through the ordinary single-registry path. Merging in ascending domain
  // order must then reproduce `direct` exactly — including the full text
  // report, which covers the stage distributions, per-qp table and region
  // busy fractions in one comparison.
  NodeStats parts[2];
  NodeStats direct;
  for (int d = 0; d < 2; ++d) {
    for (uint64_t k = 0; k < 8; ++k) {
      const uint64_t i = static_cast<uint64_t>(d) * 8 + k;
      // qp 1 appears in both partitions; qp 2/3 are partition-local.
      const int qp = (i % 2 == 0) ? 1 : 2 + d;
      const RequestContext ctx = MergeTestCtx(i, qp);
      parts[d].RecordCompletion(ctx);
      direct.RecordCompletion(ctx);
    }
  }
  parts[0].RecordFailure(2);
  direct.RecordFailure(2);
  parts[1].RecordRejection(3);
  direct.RecordRejection(3);
  parts[0].RecordQueueDepth(1, 5);
  parts[1].RecordQueueDepth(1, 9);
  direct.RecordQueueDepth(1, 5);
  direct.RecordQueueDepth(1, 9);
  parts[0].RecordRegionBusy(0, 3 * kMicrosecond);
  parts[1].RecordRegionBusy(0, 4 * kMicrosecond);
  parts[1].RecordRegionBusy(1, 5 * kMicrosecond);
  direct.RecordRegionBusy(0, 7 * kMicrosecond);
  direct.RecordRegionBusy(1, 5 * kMicrosecond);

  NodeStats merged;
  merged.MergeFrom(parts[0]);
  merged.MergeFrom(parts[1]);

  EXPECT_EQ(merged.completed_count(), direct.completed_count());
  EXPECT_EQ(merged.failed_count(), direct.failed_count());
  EXPECT_EQ(merged.rejected_count(), direct.rejected_count());
  ASSERT_EQ(merged.per_qp().size(), direct.per_qp().size());
  for (const auto& [qp, d] : direct.per_qp()) {
    ASSERT_EQ(merged.per_qp().count(qp), 1u) << "qp " << qp;
    const NodeStats::QpStats& m = merged.per_qp().at(qp);
    EXPECT_EQ(m.completed, d.completed) << "qp " << qp;
    EXPECT_EQ(m.failed, d.failed) << "qp " << qp;
    EXPECT_EQ(m.rejected, d.rejected) << "qp " << qp;
    EXPECT_EQ(m.bytes_delivered, d.bytes_delivered) << "qp " << qp;
    EXPECT_EQ(m.queue_high_water, d.queue_high_water) << "qp " << qp;
    EXPECT_EQ(m.first_submitted, d.first_submitted) << "qp " << qp;
    EXPECT_EQ(m.last_delivered, d.last_delivered) << "qp " << qp;
  }
  const SimTime now = 100 * kMicrosecond;
  EXPECT_EQ(merged.FormatReport(now, 0.5), direct.FormatReport(now, 0.5));
}

TEST(NodeStatsMergeTest, ReliabilityShardingAndIdsAccumulate) {
  NodeStats a;
  NodeStats b;
  a.RecordTimeout();
  a.RecordRetry();
  a.RecordRetry();
  a.RecordLateCompletion();
  a.RecordResyncBytes(100);
  a.RecordFragmentRead(64);
  b.RecordTimeout();
  b.RecordFallback();
  b.RecordResyncDone(3 * kMicrosecond);
  b.RecordFragmentWrite();
  b.RecordPartialGroups(17);
  // Distinct id high-water marks: the merged registry must continue above
  // the maximum so ids stay node-unique after a partition fold.
  for (int i = 0; i < 3; ++i) a.NextRequestId();
  for (int i = 0; i < 5; ++i) b.NextRequestId();

  NodeStats merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);

  const NodeStats::ReliabilityStats& rel = merged.reliability();
  EXPECT_EQ(rel.timeouts, 2u);
  EXPECT_EQ(rel.retries, 2u);
  EXPECT_EQ(rel.late_completions, 1u);
  EXPECT_EQ(rel.fallbacks, 1u);
  EXPECT_EQ(rel.resyncs, 1u);
  EXPECT_EQ(rel.resync_bytes, 100u);
  EXPECT_EQ(rel.resync_time, 3 * kMicrosecond);
  const NodeStats::ShardingStats& sh = merged.sharding();
  EXPECT_EQ(sh.fragment_reads, 1u);
  EXPECT_EQ(sh.fragment_writes, 1u);
  EXPECT_EQ(sh.gather_bytes, 64u);
  EXPECT_EQ(sh.partial_groups, 17u);
  EXPECT_EQ(merged.NextRequestId(), 6u);
}

}  // namespace
}  // namespace farview
