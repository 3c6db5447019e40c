// fvbench: the Farview steady-state benchmark (fvbench/METRICS.md).
//
//   fvbench --workload <offload_scan|raw_rw|pool_routed> --seed <n>
//           --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 runs it untraced and then traced with the same seed, checks that
// every deterministic number of the two runs is identical, and reports the
// per-layer metrics. The last stdout line is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "probes.h"
#include "trace.h"

namespace fvbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string trace_dir;
};

/// Fixed per-workload sizes: the deterministic window and the warm-up.
struct Params {
  /// Settled requests in the measured window.
  uint64_t window = 0;
  /// Settled requests of the warm-up that ends set-up.
  uint64_t warmup = 0;
};

Params ParamsFor(const std::string& workload) {
  if (workload == "offload_scan") return {2000, 60};
  if (workload == "raw_rw") return {6000, 200};
  return {150000, 2000};  // pool_routed
}

/// Set-up repetitions whose median is `setup_s`.
constexpr int kSetupReps = 5;
/// Spans kept in memory by the traced run (later ones count in totals).
constexpr size_t kMaxSpans = 1 << 18;

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      std::fprintf(stderr, "fvbench: unknown flag %s\n", k.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

/// Metrics in print order, each with its unit.
class Report {
 public:
  /// A metric of the JSON result (and the printed table).
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({name, value, unit, true});
  }
  /// A number printed in the table only: sizes and deterministic counts
  /// that have no better direction.
  void Note(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({name, value, unit, false});
  }
  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "fvbench: CHECK FAILED: %s\n", why.c_str());
    std::printf("check failed: %s\n", why.c_str());
  }
  bool correct() const { return correct_; }

  void Print(uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-32s %20.6f %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.in_json ? "" : "  (not in JSON)");
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct_ ? "true" : "false", attempted, failed);
    const char* sep = "";
    for (const Metric& m : metrics_) {
      if (!m.in_json) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  m.name.c_str(), m.value, m.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool in_json;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

double Delta(const LoopResult& r, const std::string& key) {
  auto end = r.counts_window_end.find(key);
  auto start = r.counts_start.find(key);
  const uint64_t e = end == r.counts_window_end.end() ? 0 : end->second;
  const uint64_t s = start == r.counts_start.end() ? 0 : start->second;
  return static_cast<double>(e - s);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double WindowSimSeconds(const LoopResult& r) {
  return farview::ToSeconds(r.sim_window_end - r.sim_start);
}

/// Checks a phase: outputs matched, the counters balance, nothing was left
/// unsettled after the drain, and the window was reached.
void CheckPhase(const char* phase, const LoopResult& r, uint64_t window,
                Report* report) {
  const std::string p = phase;
  if (r.mismatches != 0) {
    report->Fail(p + ": " + std::to_string(r.mismatches) +
                 " outputs differ from the baseline oracle");
  }
  if (r.ok + r.failed + r.shed + r.timed_out != r.settled) {
    report->Fail(p + ": settle counters do not balance");
  }
  if (r.settled != r.attempted) {
    report->Fail(p + ": " + std::to_string(r.attempted - r.settled) +
                 " requests unsettled after the drain");
  }
  if (r.settled < window) {
    report->Fail(p + ": window not reached (" + std::to_string(r.settled) +
                 " of " + std::to_string(window) + ")");
  }
}

/// FNV-1a over the window's deterministic numbers: equal for two runs of
/// one seed, printed so repeat runs can be compared at a glance.
uint64_t Fingerprint(const LoopResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (SimTime l : r.latencies) mix(static_cast<uint64_t>(l));
  mix(static_cast<uint64_t>(r.sim_start));
  mix(static_cast<uint64_t>(r.sim_window_end));
  mix(r.window_ok);
  mix(r.window_table_bytes);
  mix(r.window_result_bytes);
  for (const auto& [k, v] : r.counts_window_end) {
    mix(v - r.counts_start.at(k));
  }
  return h;
}

/// Set-up: inputs, oracle (untimed), system, warm-up. Returns the timed
/// seconds.
double Setup(const Args& a, const Params& p, Tracer* tracer,
             std::unique_ptr<Workload>* out, Report* report) {
  const int64_t t0 = HostNowNs();
  std::unique_ptr<Workload> w = MakeWorkload(a.workload, a.seed, tracer);
  w->GenerateInputs();
  const int64_t t1 = HostNowNs();
  w->ComputeOracle();
  const int64_t t2 = HostNowNs();
  w->BuildSystem();
  LoopConfig warm;
  warm.window = p.warmup;
  const LoopResult r = RunLoop(*w, tracer, warm);
  CheckPhase("warm-up", r, p.warmup, report);
  const int64_t t3 = HostNowNs();
  *out = std::move(w);
  return static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-9;
}

/// One line per phase: the window's request count (the sample count of
/// every timing) and how the phase's requests settled.
void PrintPhase(const char* phase, const LoopResult& r, uint64_t window) {
  std::printf("%s: n_req=%" PRIu64 " window_sim_ms=%.3f host_s=%.3f "
              "slices=%zu attempted=%" PRIu64 " ok=%" PRIu64 " shed=%" PRIu64
              " timed_out=%" PRIu64 " failed=%" PRIu64 "\n",
              phase, window, WindowSimSeconds(r) * 1e3,
              static_cast<double>(r.host_stop - r.host_start) * 1e-9,
              r.slice_rates.size(), r.attempted, r.ok, r.shed, r.timed_out,
              r.failed);
}

void AddEndToEnd(const LoopResult& r, uint64_t window,
                 const std::vector<double>& setup_s, Report* report) {
  std::vector<double> lat_us;
  lat_us.reserve(r.latencies.size());
  for (SimTime l : r.latencies) lat_us.push_back(farview::ToMicros(l));
  const double host_s =
      static_cast<double>(r.host_stop - r.host_start) * 1e-9;
  const double rate = r.slice_rates.empty()
                          ? Ratio(static_cast<double>(r.settled), host_s)
                          : Median(r.slice_rates);
  report->Add("req_per_s", rate, "1/s");
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("peak_rss_mb", r.rss_window_end_mb, "MB");
  report->Add("allocs_per_req",
              Ratio(static_cast<double>(r.allocs_window_end - r.allocs_start),
                    static_cast<double>(window)),
              "count");
  report->Add("sim_scan_gbps",
              Ratio(static_cast<double>(r.window_table_bytes),
                    WindowSimSeconds(r)) * 1e-9,
              "GB/s");
  report->Add("sim_p50_us", Percentile(lat_us, 50), "us");
  report->Add("sim_p99_us", Percentile(lat_us, 99), "us");
  report->Add("ok_frac",
              Ratio(static_cast<double>(r.window_ok),
                    static_cast<double>(window)),
              "frac");
}

/// Keys whose values differ between two counter maps.
void DiffCounts(const Counts& a, const Counts& b,
                std::vector<std::string>* diffs) {
  Counts all = a;
  all.insert(b.begin(), b.end());
  for (const auto& entry : all) {
    const auto ia = a.find(entry.first);
    const auto ib = b.find(entry.first);
    if (ia == a.end() || ib == b.end() || ia->second != ib->second) {
      diffs->push_back(entry.first);
    }
  }
}

/// Compares every deterministic number of two runs of one seed.
void CheckIdentity(const LoopResult& u, const LoopResult& t, Report* report) {
  std::vector<std::string> diffs;
  if (u.latencies != t.latencies) diffs.push_back("latencies");
  if (u.sim_start != t.sim_start || u.sim_window_end != t.sim_window_end) {
    diffs.push_back("window instants");
  }
  if (u.window_ok != t.window_ok ||
      u.window_table_bytes != t.window_table_bytes ||
      u.window_result_bytes != t.window_result_bytes) {
    diffs.push_back("window outcomes");
  }
  if (u.pending_events_sum != t.pending_events_sum) {
    diffs.push_back("pending events");
  }
  if (u.records_start != t.records_start ||
      u.records_window_end != t.records_window_end) {
    diffs.push_back("node records");
  }
  DiffCounts(u.counts_start, t.counts_start, &diffs);
  DiffCounts(u.counts_window_end, t.counts_window_end, &diffs);
  if (!diffs.empty()) {
    std::string all;
    for (const std::string& d : diffs) all += " " + d;
    report->Fail("traced run differs from the untraced run in:" + all);
  }
}

/// Stage percentiles over the window's NodeStats records.
void NodeStages(Workload& w, const LoopResult& r, double* execute_p50_us,
                double* queue_wait_p99_us) {
  std::vector<double> execute;
  std::vector<double> wait;
  std::vector<farview::FarviewNode*> nodes = w.nodes();
  for (size_t n = 0; n < nodes.size(); ++n) {
    const auto& recs = nodes[n]->stats().completed();
    for (size_t i = r.records_start[n]; i < r.records_window_end[n]; ++i) {
      const farview::NodeStats::RequestRecord& rec = recs[i];
      if (rec.region_start > 0 && rec.operator_done > 0) {
        execute.push_back(farview::ToMicros(rec.operator_done -
                                            rec.region_start));
      }
      if (rec.region_start > 0 && rec.ingress_done > 0) {
        wait.push_back(farview::ToMicros(rec.region_start - rec.ingress_done));
      }
    }
  }
  *execute_p50_us = Percentile(execute, 50);
  *queue_wait_p99_us = Percentile(wait, 99);
}

void AddPerLayer(Workload& traced_world, const LoopResult& u,
                 const LoopResult& t, const Tracer& tr, uint64_t window,
                 Report* report) {
  const double n = static_cast<double>(window);
  const double settled = static_cast<double>(t.settled);
  const double sim_s = WindowSimSeconds(t);

  // --- sim / core -------------------------------------------------------
  report->Add("sim.events_per_req", Delta(t, "sim.events") / n, "count");
  const double run_ns = static_cast<double>(tr.total_ns(SpanKind::kRun));
  const double op_ns = static_cast<double>(tr.op_total_ns());
  const double cb_ns = static_cast<double>(tr.total_ns(SpanKind::kCallback));
  report->Add("core.self_ns_per_req", (run_ns - op_ns - cb_ns) / settled,
              "ns");

  // --- net / mem ----------------------------------------------------------
  const double packets = Delta(t, "net.packets");
  report->Add("net.packets_per_req", packets / n, "count");
  report->Add("net.retransmit_frac",
              Ratio(Delta(t, "net.retransmits"), packets), "frac");
  report->Add("net.link_util",
              Ratio(Delta(t, "net.link_busy_ps") * 1e-12,
                    static_cast<double>(t.counts_start.at("net.links"))) /
                  sim_s,
              "frac");
  report->Add("mem.channel_util",
              Ratio(Delta(t, "mem.channel_busy_ps") * 1e-12,
                    static_cast<double>(t.counts_start.at("mem.channels"))) /
                  sim_s,
              "frac");
  report->Add("mem.bytes_per_req", Delta(t, "mem.bytes") / n, "B");

  // --- op -----------------------------------------------------------------
  report->Add("op.self_frac", Ratio(op_ns, run_ns), "frac");
  for (int k = 0; k < kNumOpKinds; ++k) {
    const OpKind kind = static_cast<OpKind>(k);
    if (kind == OpKind::kOther) continue;
    report->Add(std::string("op.") + OpKindName(kind) + ".ns_per_row",
                Ratio(static_cast<double>(tr.op_ns(kind)),
                      static_cast<double>(tr.op_rows(kind))),
                "ns");
  }
  report->Add("op.reset_ns_per_req",
              static_cast<double>(tr.total_ns(SpanKind::kOpReset)) / settled,
              "ns");
  report->Note("op.selectivity",
              Ratio(Delta(t, "op.select.rows_out"),
                    Delta(t, "op.select.rows_in")),
              "frac");
  report->Add("op.distinct.overflow_rows",
              Delta(t, "op.distinct.overflow_rows"), "count");

  // --- node ---------------------------------------------------------------
  report->Add("node.region_busy_frac",
              Ratio(Delta(t, "node.region_busy_ps") * 1e-12,
                    static_cast<double>(t.counts_start.at("node.regions"))) /
                  sim_s,
              "frac");
  double execute_p50 = 0;
  double wait_p99 = 0;
  NodeStages(traced_world, t, &execute_p50, &wait_p99);
  report->Add("node.execute_p50_us", execute_p50, "us");
  report->Add("node.queue_wait_p99_us", wait_p99, "us");
  const double shed = Delta(t, "node.shed");
  report->Add("node.shed_frac", Ratio(shed, shed + Delta(t, "node.admitted")),
              "frac");
  report->Add("node.records_retained",
              static_cast<double>(t.counts_window_end.at("node.records")),
              "count");
  report->Add("host.alloc_bytes_per_req",
              static_cast<double>(u.alloc_bytes_window_end -
                                  u.alloc_bytes_start) /
                  n,
              "B");

  // --- client -------------------------------------------------------------
  std::vector<double> submit;
  submit.reserve(tr.submit_durations().size());
  for (int64_t d : tr.submit_durations()) {
    submit.push_back(static_cast<double>(d));
  }
  report->Add("client.submit_ns", Median(submit), "ns");
  report->Add("client.attempts_per_req",
              (n + Delta(t, "client.retries") + Delta(t, "client.failovers")) /
                  n,
              "count");
  report->Add("client.gather_bytes_per_req",
              static_cast<double>(t.window_result_bytes) / n, "B");

  // --- tracing cost -------------------------------------------------------
  report->Add("trace.overhead_frac",
              Ratio(static_cast<double>(t.host_window_end - t.host_start),
                    static_cast<double>(u.host_window_end - u.host_start)) -
                  1.0,
              "frac");
}

/// Isolated sim/net/mem probes, sized from the untraced window.
void AddProbes(Workload& w, const LoopResult& u, uint64_t window,
               Report* report) {
  const double n = static_cast<double>(window);
  const farview::FarviewConfig& cfg = w.nodes().front()->config();
  const uint64_t depth = static_cast<uint64_t>(
      std::llround(static_cast<double>(u.pending_events_sum) / n));
  const uint64_t stream_packets = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(Delta(u, "net.packets") / n)));
  const uint64_t bursts = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(
             Delta(u, "mem.bytes") / n /
             static_cast<double>(cfg.dram.stripe_bytes))));
  std::printf("probe sizes: sim queue_depth=%" PRIu64
              " (mean engine pending events at the window's completions); "
              "net stream_packets=%" PRIu64
              " (window packets per request); mem stream_bursts=%" PRIu64
              " (window DRAM bytes per request / %" PRIu64 " B stripe)\n",
              depth, stream_packets, bursts, cfg.dram.stripe_bytes);
  report->Add("sim.probe_ns_per_event", ProbeSimEvent(depth, 1'000'000),
              "ns");
  report->Note("sim.probe_queue_depth", static_cast<double>(depth), "count");
  report->Add("net.probe_ns_per_packet",
              ProbeNetPacket(cfg.net, stream_packets, 200'000), "ns");
  report->Note("net.probe_stream_packets", static_cast<double>(stream_packets),
              "count");
  report->Add("mem.probe_ns_per_burst",
              ProbeMemBurst(cfg.dram, bursts, 200'000), "ns");
  report->Note("mem.probe_stream_bursts", static_cast<double>(bursts),
              "count");
}

int RunUntraced(const Args& a, const Params& p) {
  Report report;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    setup_s.push_back(Setup(a, p, nullptr, &w, &report));
  }
  LoopConfig cfg;
  cfg.window = p.window;
  cfg.min_host_ns = static_cast<int64_t>(a.seconds) * 1'000'000'000;
  const LoopResult r = RunLoop(*w, nullptr, cfg);
  CheckPhase("measurement", r, p.window, &report);
  PrintPhase("measurement", r, p.window);
  std::printf("sim_fingerprint=%016" PRIx64 "\n", Fingerprint(r));
  AddEndToEnd(r, p.window, setup_s, &report);
  report.Print(r.attempted, r.failed + r.shed + r.timed_out);
  return report.correct() ? 0 : 1;
}

int RunTraced(const Args& a, const Params& p) {
  Report report;
  LoopConfig cfg;
  cfg.window = p.window;

  std::unique_ptr<Workload> plain;
  Setup(a, p, nullptr, &plain, &report);
  const LoopResult u = RunLoop(*plain, nullptr, cfg);
  CheckPhase("untraced", u, p.window, &report);
  PrintPhase("untraced", u, p.window);
  AddProbes(*plain, u, p.window, &report);
  plain.reset();

  Tracer tracer(kMaxSpans);
  std::unique_ptr<Workload> traced;
  Setup(a, p, &tracer, &traced, &report);
  tracer.Clear();
  const LoopResult t = RunLoop(*traced, &tracer, cfg);
  CheckPhase("traced", t, p.window, &report);
  PrintPhase("traced", t, p.window);
  CheckIdentity(u, t, &report);
  std::printf("sim_fingerprint=%016" PRIx64 " traced=%016" PRIx64 "\n",
              Fingerprint(u), Fingerprint(t));
  AddPerLayer(*traced, u, t, tracer, p.window, &report);

  if (!a.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(a.trace_dir, ec);
    const std::string path = a.trace_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".csv";
    if (tracer.WriteCsv(path)) {
      std::printf("spans: %zu stored (%" PRIu64 " beyond the cap) -> %s\n",
                  tracer.spans_stored(), tracer.spans_dropped(), path.c_str());
    }
  }
  report.Print(t.attempted, t.failed + t.shed + t.timed_out);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace fvbench

int main(int argc, char** argv) {
  fvbench::Args args;
  if (!fvbench::ParseArgs(argc, argv, &args) ||
      fvbench::MakeWorkload(args.workload, args.seed, nullptr) == nullptr) {
    std::fprintf(stderr,
                 "usage: fvbench --workload <offload_scan|raw_rw|pool_routed> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }
  const fvbench::Params params = fvbench::ParamsFor(args.workload);
  std::printf("fvbench workload=%s seed=%" PRIu64 " seconds=%d trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);
  return args.trace == 0 ? fvbench::RunUntraced(args, params)
                         : fvbench::RunTraced(args, params);
}
