// Figure 12 reproduction: six clients concurrently running the DISTINCT
// query (few distinct values, so the network is not the bottleneck and the
// DRAM subsystem is maximally stressed). Reported time is when all six
// queries have completed.
//
// Expected shape (Section 6.8): Farview wins through spatial parallelism —
// six dynamic regions share the striped DRAM channels under hardware fair
// sharing — while the CPU baselines' six processes interfere on DRAM and
// the shared caches.

#include <algorithm>
#include <cstdio>
#include <string>

#include "baseline/engines.h"
#include "benchlib/experiment.h"
#include "table/generator.h"

namespace farview {
namespace {

constexpr int kClients = 6;
constexpr uint64_t kDistinct = 32;

/// Batch completion time of six concurrent FV distinct queries. When
/// `stats_report` is non-null, the node's telemetry dump (stage latency
/// percentiles, per-qp throughput, queue high-water marks, region/link
/// utilization) is captured after the batch completes.
SimTime FvBatch(uint64_t rows_per_client, uint64_t seed,
                std::string* stats_report = nullptr) {
  bench::FvFixture fx;
  std::vector<FarviewClient*> clients{&fx.client()};
  for (int i = 1; i < kClients; ++i) clients.push_back(&fx.AddClient());

  TableGenerator gen(seed);
  std::vector<FTable> tables;
  for (int i = 0; i < kClients; ++i) {
    Result<Table> t = gen.WithDistinct(Schema::DefaultWideRow(),
                                       rows_per_client, 0, kDistinct, 100);
    if (!t.ok()) return 0;
    FTable ft;
    ft.name = "t" + std::to_string(i);
    ft.schema = t.value().schema();
    ft.num_rows = rows_per_client;
    if (!clients[static_cast<size_t>(i)]->AllocTableMem(&ft).ok()) return 0;
    if (!clients[static_cast<size_t>(i)]->TableWrite(ft, t.value()).ok()) {
      return 0;
    }
    tables.push_back(ft);
  }
  int loaded = 0;
  for (int i = 0; i < kClients; ++i) {
    Result<Pipeline> p =
        PipelineBuilder(tables[static_cast<size_t>(i)].schema)
            .Distinct({0})
            .Build();
    if (!p.ok()) return 0;
    clients[static_cast<size_t>(i)]->LoadPipelineAsync(
        std::move(p).value(), [&loaded](Status s) {
          if (s.ok()) ++loaded;
        });
  }
  fx.engine().Run();
  if (loaded != kClients) return 0;

  const SimTime start = fx.engine().Now();
  SimTime all_done = 0;
  int completed = 0;
  for (int i = 0; i < kClients; ++i) {
    clients[static_cast<size_t>(i)]->FarviewRequestAsync(
        clients[static_cast<size_t>(i)]->ScanRequest(
            tables[static_cast<size_t>(i)]),
        // By const reference: a by-value Result here trips GCC 12's
        // -Wmaybe-uninitialized in the TSan build.
        [&all_done, &completed](const Result<FvResult>& r) {
          if (r.ok()) {
            all_done = std::max(all_done, r.value().completed_at);
            ++completed;
          }
        });
  }
  fx.engine().Run();
  if (completed != kClients) return 0;
  if (stats_report != nullptr) *stats_report = fx.node().StatsReport();
  return all_done - start;
}

void Run() {
  bench::SeriesPrinter series(
      "Figure 12: six concurrent DISTINCT clients, batch completion [ms]",
      "rows/client", {"FV", "LCPU", "RCPU"});
  LocalEngine lcpu;
  RemoteEngine rcpu;
  std::string stats_report;
  for (uint64_t rows = 1 << 15; rows <= 1 << 19; rows *= 4) {
    const SimTime fv = FvBatch(rows, rows, &stats_report);
    TableGenerator gen(rows + 7);
    Result<Table> t = gen.WithDistinct(Schema::DefaultWideRow(), rows, 0,
                                       kDistinct, 100);
    if (!t.ok()) return;
    const QuerySpec spec = QuerySpec::Distinct({0});
    // MPI with 6 processes: each runs the query on its table while sharing
    // the socket (Section 6.8); batch completion equals one process's
    // degraded runtime.
    Result<BaselineResult> l = lcpu.Execute(t.value(), spec, kClients);
    Result<BaselineResult> r = rcpu.Execute(t.value(), spec, kClients);
    if (!l.ok() || !r.ok()) return;
    series.Row(std::to_string(rows),
               {ToMillis(fv), ToMillis(l.value().elapsed),
                ToMillis(r.value().elapsed)});
  }
  series.Print();
  // Request-lifecycle breakdown of the largest FV batch: where the six
  // concurrent requests spend their time (the queue-wait column stays ~0
  // here because each client owns its region; contention shows up as DRAM
  // sharing inside the execute stage instead).
  std::printf("\n%s", stats_report.c_str());
}

}  // namespace
}  // namespace farview

int main() {
  farview::Run();
  return 0;
}
