// Extension: many-tenant scale on the partitioned event core (DESIGN.md
// §14, EXPERIMENTS.md "ext_megaclient").
//
// Sweeps 1k/10k/100k closed-loop tenant sessions spread over 8 client
// domains and 4 Farview node domains, with seeded request drops driving the
// timeout/retry loop. Every table on stdout is deterministic — a pure
// function of the configs — and byte-identical at any FV_SIM_THREADS (the
// sweep runs with threads=0, i.e. whatever the environment selects), which
// is exactly what scripts/check_bench_identity.sh re-checks at 4 threads.
//
// The flow-aggregation ablation re-runs the 10k point with exact
// per-session think timers (agg_quantum=0): same completions, strictly more
// timer events — the event-count scaling claim of DESIGN.md §14.
//
// Wall-clock speedup (threads=1 vs threads=4 on the largest point) is
// machine-dependent by nature, so it goes to stderr only, outside the
// byte-identity contract — mirroring how micro_primitives is excluded from
// the golden sweep. Both runs must still produce byte-identical summaries,
// which is FV_CHECKed here on every execution.

#include <algorithm>
#include <chrono>  // wall-clock allowlisted: stderr-only speedup section
#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/experiment.h"
#include "common/logging.h"
#include "fv/megaclient.h"
#include "net/net_config.h"

namespace farview {
namespace {

/// Baseline config of one sweep point; link latencies come from the
/// calibrated fabric (net/net_config.h), so the partition lookahead is the
/// same quantity `CrossDomainLookahead` derives for the full stack.
MegaclientConfig PointConfig(uint32_t sessions) {
  const NetConfig net;
  MegaclientConfig cfg;
  cfg.sessions = sessions;
  cfg.client_domains = 8;
  cfg.node_domains = 4;
  cfg.node_units = 64;
  cfg.seed = 1;
  cfg.horizon = 20 * kMillisecond;
  cfg.request_latency = net.fv_request_latency;
  cfg.response_latency = net.fv_delivery_latency;
  cfg.drop_rate = 2e-3;
  FV_CHECK(CrossDomainLookahead(net) <= cfg.request_latency &&
           CrossDomainLookahead(net) <= cfg.response_latency)
      << "megaclient links must not undercut the fabric lookahead";
  return cfg;
}

void Run() {
  bench::SeriesPrinter requests(
      "Extension: megaclient tenant sweep (closed-loop requests)", "sessions",
      {"issued", "completed", "timeouts", "retries", "giveups", "fairness"});
  bench::SeriesPrinter latency(
      "Extension: megaclient completion latency [us]", "sessions",
      {"int p50", "int p99", "batch p50", "batch p99"});
  bench::SeriesPrinter core(
      "Extension: megaclient event-core economics", "sessions",
      {"events", "cross", "windows", "parks", "timers"});
  bench::SeriesPrinter ablation(
      "Extension: flow aggregation ablation (10k sessions)", "think timers",
      {"events", "timers", "parks", "completed", "batch p99 us"});

  std::printf(
      "Partitioned run: 8 client domains + 4 node domains, lookahead %lld ps "
      "(min one-way link latency)\n\n",
      static_cast<long long>(
          std::min(PointConfig(1).request_latency,
                   PointConfig(1).response_latency)));

  for (const uint32_t sessions : {1000u, 10000u, 100000u}) {
    const MegaclientConfig cfg = PointConfig(sessions);
    const MegaclientReport r = RunMegaclient(cfg, /*threads=*/0);
    const std::string label = std::to_string(sessions / 1000) + "k";
    requests.Row(label, {static_cast<double>(r.issued),
                         static_cast<double>(r.completed),
                         static_cast<double>(r.timeouts),
                         static_cast<double>(r.retries),
                         static_cast<double>(r.give_ups), r.fairness});
    latency.Row(label, {r.p50_interactive_us, r.p99_interactive_us,
                        r.p50_batch_us, r.p99_batch_us});
    core.Row(label, {static_cast<double>(r.executed_events),
                     static_cast<double>(r.cross_events),
                     static_cast<double>(r.windows),
                     static_cast<double>(r.parks),
                     static_cast<double>(r.timer_events)});
  }
  requests.Print();
  latency.Print();
  core.Print();

  // Ablation: aggregated 1 us grid vs exact per-session timers at 10k
  // sessions. Quantizing wake-ups onto the grid shifts issue times by less
  // than a quantum, so completions agree to within a fraction of a percent
  // while the timer event count collapses from one-per-park to
  // one-per-occupied-slot.
  for (const bool aggregated : {true, false}) {
    MegaclientConfig cfg = PointConfig(10000);
    if (!aggregated) cfg.agg_quantum = 0;
    const MegaclientReport r = RunMegaclient(cfg, /*threads=*/0);
    ablation.Row(aggregated ? "agg 1us" : "exact",
                 {static_cast<double>(r.executed_events),
                  static_cast<double>(r.timer_events),
                  static_cast<double>(r.parks),
                  static_cast<double>(r.completed), r.p99_batch_us});
  }
  ablation.Print();

  // Machine-dependent section: wall-clock scaling of the largest point,
  // stderr only (stdout is under the byte-identity contract). Every run
  // must agree byte-for-byte with the 1-thread summary regardless of
  // timing — that part is checked unconditionally.
  const MegaclientConfig big = PointConfig(100000);
  double ev_per_sec_1t = 0;
  std::string summary_1t;
  for (const int threads : {1, 4}) {
    const auto wall0 = std::chrono::steady_clock::now();
    const MegaclientReport r = RunMegaclient(big, threads);
    const auto wall1 = std::chrono::steady_clock::now();
    const double wall_ns =
        std::chrono::duration<double, std::nano>(wall1 - wall0).count();
    const double ev_per_sec =
        wall_ns > 0 ? static_cast<double>(r.executed_events) * 1e9 / wall_ns
                    : 0.0;
    char speedup[64] = "";
    if (threads == 1) {
      ev_per_sec_1t = ev_per_sec;
      summary_1t = r.Summary();
    } else {
      FV_CHECK(r.Summary() == summary_1t)
          << "megaclient diverged across thread counts:\n"
          << r.Summary() << "---- vs 1-thread ----\n"
          << summary_1t;
      std::snprintf(speedup, sizeof(speedup), " (speedup %.2fx vs 1 thread)",
                    ev_per_sec_1t > 0 ? ev_per_sec / ev_per_sec_1t : 0.0);
    }
    std::fprintf(stderr,
                 "[wall] 100k sessions, threads=%d: %.1f ms, %.0f events/s"
                 "%s\n",
                 threads, wall_ns / 1e6, ev_per_sec, speedup);
  }
}

}  // namespace
}  // namespace farview

int main() {
  farview::Run();
  return 0;
}
