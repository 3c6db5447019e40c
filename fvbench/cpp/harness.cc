#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/alloc_counter.h"
#include "common/logging.h"

namespace fvbench {

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Tracer* tracer) {
  if (name == "offload_scan") return MakeOffloadScan(seed, tracer);
  if (name == "raw_rw") return MakeRawRw(seed, tracer);
  if (name == "pool_routed") return MakePoolRouted(seed, tracer);
  return nullptr;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

/// Deterministic counters summed over the workload's nodes and engine,
/// plus the workload's own.
Counts CollectCounts(Workload& w) {
  Counts c;
  c["sim.events"] = w.engine().executed_events();
  for (farview::FarviewNode* node : w.nodes()) {
    farview::NetworkStack& net = node->network();
    c["net.packets"] += net.total_packets();
    c["net.payload_bytes"] += net.total_payload_bytes();
    c["net.retransmits"] += net.fault_counters().retransmits;
    c["net.packets_lost"] += net.fault_counters().packets_lost;
    c["net.link_busy_ps"] += static_cast<uint64_t>(net.link().busy_time());
    c["net.links"] += 1;
    farview::MemoryController& mem = node->memory_controller();
    c["mem.bytes"] += mem.total_bytes_served();
    for (int i = 0; i < mem.num_channels(); ++i) {
      c["mem.channel_busy_ps"] +=
          static_cast<uint64_t>(mem.channel(i).busy_time());
      c["mem.channels"] += 1;
    }
    const farview::NodeStats& st = node->stats();
    for (int r = 0; r < node->num_regions(); ++r) {
      c["node.region_busy_ps"] +=
          static_cast<uint64_t>(st.region_busy_time(r));
      c["node.regions"] += 1;
    }
    c["node.records"] += st.completed_count();
    c["node.failed"] += st.failed_count();
    c["node.rejected"] += st.rejected_count();
    const farview::NodeStats::AdmissionStats& adm = st.admission();
    c["node.admitted"] += adm.admitted_latency + adm.admitted_batch;
    c["node.shed"] += adm.shed_bucket_latency + adm.shed_bucket_batch +
                      adm.shed_overload_latency + adm.shed_overload_batch;
    const farview::NodeStats::ReliabilityStats& rel = st.reliability();
    c["client.retries"] += rel.retries;
    c["client.failovers"] += rel.failovers;
    c["client.timeouts"] += rel.timeouts;
    c["client.fast_fails"] += rel.fast_fails;
    c["client.late_completions"] += rel.late_completions;
    c["client.gather_bytes"] += st.sharding().gather_bytes;
  }
  w.AddCounts(&c);
  return c;
}

/// Per-node count of NodeStats completion records (window bookkeeping).
std::vector<size_t> RecordMarks(Workload& w) {
  std::vector<size_t> marks;
  for (farview::FarviewNode* node : w.nodes()) {
    marks.push_back(node->stats().completed().size());
  }
  return marks;
}

/// The closed loop: each session keeps exactly one request outstanding and
/// issues the next one when the previous settles (after its think time).
class ClosedLoop final : public CompletionSink {
 public:
  ClosedLoop(Workload& w, Tracer* tracer, const LoopConfig& config)
      : w_(w), tracer_(tracer), config_(config) {
    const size_t n = static_cast<size_t>(w.sessions());
    issued_sim_.assign(n, 0);
    issued_host_.assign(n, 0);
    request_id_.assign(n, 0);
    res_.latencies.reserve(config.window);
    res_.slice_rates.reserve(1024);
  }

  LoopResult Run() {
    farview::sim::Engine& engine = w_.engine();
    w_.set_sink(this);
    res_.counts_start = CollectCounts(w_);
    res_.records_start = RecordMarks(w_);
    res_.sim_start = engine.Now();
    res_.allocs_start = farview::alloc_counter::allocations();
    res_.alloc_bytes_start = farview::alloc_counter::bytes();
    res_.host_start = HostNowNs();
    slice_start_ = res_.host_start;
    for (int s = 0; s < w_.sessions(); ++s) IssueOne(s);
    int run_span = -1;
    if (tracer_ != nullptr) {
      run_span = tracer_->Begin(SpanKind::kRun, 0, engine.Now());
    }
    engine.Run();
    if (tracer_ != nullptr) tracer_->End(run_span, engine.Now());
    if (!stop_) res_.host_stop = HostNowNs();
    w_.set_sink(nullptr);
    return std::move(res_);
  }

  uint64_t request_id(int session) const override {
    return request_id_[static_cast<size_t>(session)];
  }

  void OnDone(int session, const Outcome& o) override {
    farview::sim::Engine& engine = w_.engine();
    const SimTime now = engine.Now();
    const size_t s = static_cast<size_t>(session);
    ++res_.settled;
    if (o.ok) {
      ++res_.ok;
    } else if (o.code == farview::StatusCode::kResourceExhausted) {
      ++res_.shed;
    } else if (o.code == farview::StatusCode::kDeadlineExceeded) {
      ++res_.timed_out;
    } else {
      ++res_.failed;
    }
    if (o.mismatch) ++res_.mismatches;
    if (tracer_ != nullptr) {
      tracer_->Request(request_id_[s], issued_host_[s], HostNowNs(),
                       issued_sim_[s], now);
    }
    if (res_.settled <= config_.window) {
      res_.latencies.push_back(now - issued_sim_[s]);
      if (o.ok) ++res_.window_ok;
      res_.window_table_bytes += o.table_bytes;
      res_.window_result_bytes += o.result_bytes;
      res_.pending_events_sum += engine.pending_events();
      if (res_.settled == config_.window) SnapshotWindowEnd(now);
    }
    if (!stop_) {
      const int64_t t = HostNowNs();
      ++slice_count_;
      if (t - slice_start_ >= kSliceNs) {
        res_.slice_rates.push_back(static_cast<double>(slice_count_) * 1e9 /
                                   static_cast<double>(t - slice_start_));
        slice_start_ = t;
        slice_count_ = 0;
      }
      if (res_.settled >= config_.window &&
          t - res_.host_start >= config_.min_host_ns) {
        stop_ = true;
        res_.host_stop = t;
      }
    }
    if (stop_) return;
    const SimTime think = w_.ThinkTime(session);
    if (think > 0 || in_issue_) {
      // A completion reported synchronously from inside Issue re-issues
      // from a fresh event instead of recursing.
      engine.ScheduleAfter(think, [this, session]() { IssueOne(session); });
    } else {
      IssueOne(session);
    }
  }

 private:
  void IssueOne(int session) {
    if (stop_) return;
    const size_t s = static_cast<size_t>(session);
    farview::sim::Engine& engine = w_.engine();
    ++res_.attempted;
    issued_sim_[s] = engine.Now();
    request_id_[s] = ++next_request_id_;
    int span = -1;
    if (tracer_ != nullptr) {
      issued_host_[s] = HostNowNs();
      span = tracer_->Begin(SpanKind::kSubmit, request_id_[s], engine.Now());
    }
    in_issue_ = true;
    w_.Issue(session);
    in_issue_ = false;
    if (tracer_ != nullptr) tracer_->End(span, engine.Now());
  }

  void SnapshotWindowEnd(SimTime now) {
    // Allocation counters first: the snapshot below allocates.
    res_.allocs_window_end = farview::alloc_counter::allocations();
    res_.alloc_bytes_window_end = farview::alloc_counter::bytes();
    res_.host_window_end = HostNowNs();
    res_.sim_window_end = now;
    res_.counts_window_end = CollectCounts(w_);
    res_.records_window_end = RecordMarks(w_);
    res_.rss_window_end_mb = PeakRssMb();
  }

  Workload& w_;
  Tracer* tracer_;
  LoopConfig config_;
  LoopResult res_;
  std::vector<SimTime> issued_sim_;
  std::vector<int64_t> issued_host_;
  std::vector<uint64_t> request_id_;
  uint64_t next_request_id_ = 0;
  bool stop_ = false;
  bool in_issue_ = false;
  int64_t slice_start_ = 0;
  uint64_t slice_count_ = 0;
};

}  // namespace

LoopResult RunLoop(Workload& w, Tracer* tracer, const LoopConfig& config) {
  FV_CHECK(config.window > 0) << "a phase needs a non-empty window";
  ClosedLoop loop(w, tracer, config);
  return loop.Run();
}

}  // namespace fvbench
