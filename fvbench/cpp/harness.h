#ifndef FVBENCH_HARNESS_H_
#define FVBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "fv/farview_node.h"
#include "sim/engine.h"
#include "trace.h"

namespace fvbench {

using farview::SimTime;

/// Deterministic counters by name (events, packets, bytes, busy
/// picoseconds, op rows, ...). Two runs of one seed must produce equal
/// maps; the traced run is checked against the untraced one this way.
using Counts = std::map<std::string, uint64_t>;

/// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMb();

/// How one request ended, as checked by the workload that issued it.
struct Outcome {
  bool ok = false;           ///< completed with an OK status
  /// Status code of a request that did not complete OK.
  farview::StatusCode code = farview::StatusCode::kOk;
  bool mismatch = false;     ///< output disagreed with the oracle
  uint64_t table_bytes = 0;  ///< table bytes the request read or wrote
  uint64_t result_bytes = 0; ///< result bytes returned to the client
};

class Workload;

/// Receives completions from a workload (implemented by the closed loop).
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;
  virtual void OnDone(int session, const Outcome& outcome) = 0;
  /// Id of `session`'s outstanding request (labels its spans).
  virtual uint64_t request_id(int session) const = 0;
};

/// One benchmark workload: a simulated Farview system plus the closed-loop
/// sessions that drive it. Construction generates nothing; `GenerateInputs`
/// and `BuildSystem` are the timed set-up, `ComputeOracle` (untimed) derives
/// every query's expected output with the src/baseline reference engine.
class Workload {
 public:
  Workload(uint64_t seed, Tracer* tracer) : seed_(seed), tracer_(tracer) {}
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Number of closed-loop sessions (each keeps one request outstanding).
  virtual int sessions() const = 0;

  /// Generates the seeded tables and request streams.
  virtual void GenerateInputs() = 0;
  /// Expected outputs of every query, from the baseline operators.
  virtual void ComputeOracle() = 0;
  /// Builds nodes and clients, uploads tables, loads pipelines.
  virtual void BuildSystem() = 0;

  /// Submits the next request of `session`; the workload reports its end
  /// through `sink()->OnDone`.
  virtual void Issue(int session) = 0;

  /// Simulated think time before `session` issues its next request.
  virtual SimTime ThinkTime(int /*session*/) const { return 0; }

  virtual farview::sim::Engine& engine() = 0;
  /// Every Farview node of the system.
  virtual std::vector<farview::FarviewNode*> nodes() = 0;
  /// Workload-specific deterministic counters (op rows, ...).
  virtual void AddCounts(Counts* /*counts*/) const {}

  void set_sink(CompletionSink* sink) { sink_ = sink; }

 protected:
  CompletionSink* sink() { return sink_; }
  uint64_t seed() const { return seed_; }
  Tracer* tracer() { return tracer_; }

 private:
  uint64_t seed_;
  Tracer* tracer_;
  CompletionSink* sink_ = nullptr;
};

/// Builds the workload named `name` ("offload_scan", "raw_rw",
/// "pool_routed"); nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Tracer* tracer);

// Workload factories (one file each).
std::unique_ptr<Workload> MakeOffloadScan(uint64_t seed, Tracer* tracer);
std::unique_ptr<Workload> MakeRawRw(uint64_t seed, Tracer* tracer);
std::unique_ptr<Workload> MakePoolRouted(uint64_t seed, Tracer* tracer);

/// Parameters of one closed-loop phase.
struct LoopConfig {
  /// Settled requests in the deterministic window. All simulated metrics,
  /// counts and allocations are taken over exactly these requests.
  uint64_t window = 0;
  /// Host time the phase keeps issuing for (it always reaches `window`
  /// first). 0 stops issuing at the window's end.
  int64_t min_host_ns = 0;
};

/// Length of the host-time slices whose completion rates are reported.
inline constexpr int64_t kSliceNs = 500'000'000;

/// Measurements of one closed-loop phase.
struct LoopResult {
  uint64_t attempted = 0;
  uint64_t settled = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;     ///< settled with an error other than the two below
  uint64_t shed = 0;       ///< settled with ResourceExhausted (refused)
  uint64_t timed_out = 0;  ///< settled with DeadlineExceeded
  uint64_t mismatches = 0;

  // --- The deterministic window (first `window` settled requests) -------
  std::vector<SimTime> latencies;  ///< submit → completion, settle order
  uint64_t window_ok = 0;
  uint64_t window_table_bytes = 0;
  uint64_t window_result_bytes = 0;
  /// Sum over window completions of the engine's pending-event count.
  uint64_t pending_events_sum = 0;
  SimTime sim_start = 0;
  SimTime sim_window_end = 0;
  Counts counts_start;
  Counts counts_window_end;
  std::vector<size_t> records_start;
  std::vector<size_t> records_window_end;
  uint64_t allocs_start = 0;
  uint64_t allocs_window_end = 0;
  uint64_t alloc_bytes_start = 0;
  uint64_t alloc_bytes_window_end = 0;
  double rss_window_end_mb = 0;

  // --- Host time ---------------------------------------------------------
  int64_t host_start = 0;
  int64_t host_window_end = 0;
  int64_t host_stop = 0;  ///< instant issuing stopped
  /// Completions per host second in each full slice before the stop.
  std::vector<double> slice_rates;
};

/// Runs one closed-loop phase on `w`: every session issues, then each
/// completion re-issues (after the session's think time) until the window
/// is settled and `min_host_ns` has passed; then the system drains.
LoopResult RunLoop(Workload& w, Tracer* tracer, const LoopConfig& config);

/// Median of `v` (0 for an empty vector); `v` is reordered.
double Median(std::vector<double> v);
/// Nearest-rank percentile `p` in [0, 100] of `v` (0 for empty).
double Percentile(std::vector<double> v, double p);

}  // namespace fvbench

#endif  // FVBENCH_HARNESS_H_
