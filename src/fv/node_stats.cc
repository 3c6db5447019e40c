#include "fv/node_stats.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace farview {

namespace {

/// One "p50 p90 p99 max" row of the stage-latency table, in microseconds.
void AppendStageRow(std::ostringstream& out, const char* label,
                    const sim::SampleStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "    %-16s %10.3f %10.3f %10.3f %10.3f\n", label,
                ToMicros(static_cast<SimTime>(s.Percentile(50))),
                ToMicros(static_cast<SimTime>(s.Percentile(90))),
                ToMicros(static_cast<SimTime>(s.Percentile(99))),
                ToMicros(static_cast<SimTime>(s.Max())));
  out << buf;
}

}  // namespace

void NodeStats::RecordCompletion(const RequestContext& ctx) {
  RequestRecord rec;
  rec.request_id = ctx.request_id;
  rec.qp_id = ctx.qp_id;
  rec.client_id = ctx.client_id;
  rec.verb = ctx.verb;
  rec.submitted = ctx.submitted;
  rec.ingress_done = ctx.ingress_done;
  rec.region_start = ctx.region_start;
  rec.first_memory_beat = ctx.first_memory_beat;
  rec.operator_done = ctx.operator_done;
  rec.egress_finished = ctx.egress_finished;
  rec.delivered = ctx.delivered;
  rec.bytes_on_wire = ctx.bytes_on_wire;
  rec.packets = ctx.packets;
  rec.rows = ctx.rows;
  FoldRecord(rec);
}

void NodeStats::FoldRecord(const RequestRecord& rec) {
  completed_.push_back(rec);
  QpStats& qp = per_qp_[rec.qp_id];
  ++qp.completed;
  qp.bytes_delivered += rec.bytes_on_wire;
  if (qp.first_submitted == 0 || rec.submitted < qp.first_submitted) {
    qp.first_submitted = rec.submitted;
  }
  qp.last_delivered = std::max(qp.last_delivered, rec.delivered);
}

sim::SampleStats NodeStats::StageLatency(Stamp begin, Stamp end,
                                        bool begin_required) const {
  sim::SampleStats s;
  for (const RequestRecord& rec : completed_) {
    if (rec.*end > 0 && (!begin_required || rec.*begin > 0)) {
      s.Add(static_cast<double>(rec.*end - rec.*begin));
    }
  }
  return s;
}

void NodeStats::MergeFrom(const NodeStats& other) {
  // Completion records re-fold through the exact single-registry path, so
  // a merged registry reports identically to one that observed every
  // completion directly (pinned by fv_node_test MergeFrom tests).
  for (const RequestRecord& rec : other.completed_) FoldRecord(rec);
  failed_ += other.failed_;
  rejected_ += other.rejected_;
  last_request_id_ = std::max(last_request_id_, other.last_request_id_);
  for (const auto& [qp_id, oqp] : other.per_qp_) {
    // completed / bytes / first / last were rebuilt by FoldRecord above;
    // only the aggregates with no per-record source remain.
    QpStats& qp = per_qp_[qp_id];
    qp.failed += oqp.failed;
    qp.rejected += oqp.rejected;
    qp.queue_high_water = std::max(qp.queue_high_water, oqp.queue_high_water);
  }
  for (const auto& [region_id, busy] : other.region_busy_) {
    region_busy_[region_id] += busy;
  }

  const ReliabilityStats& r = other.reliability_;
  reliability_.region_stalls += r.region_stalls;
  reliability_.region_faults += r.region_faults;
  reliability_.node_crashes += r.node_crashes;
  reliability_.node_restarts += r.node_restarts;
  reliability_.crash_failures += r.crash_failures;
  reliability_.timeouts += r.timeouts;
  reliability_.retries += r.retries;
  reliability_.fallbacks += r.fallbacks;
  reliability_.late_completions += r.late_completions;
  reliability_.failovers += r.failovers;
  reliability_.fast_fails += r.fast_fails;
  reliability_.circuit_opens += r.circuit_opens;
  reliability_.circuit_half_opens += r.circuit_half_opens;
  reliability_.circuit_closes += r.circuit_closes;
  reliability_.cluster_requests += r.cluster_requests;
  reliability_.resyncs += r.resyncs;
  reliability_.resync_bytes += r.resync_bytes;
  reliability_.resync_time += r.resync_time;

  const ShardingStats& s = other.sharding_;
  sharding_.fragment_reads += s.fragment_reads;
  sharding_.fragment_writes += s.fragment_writes;
  sharding_.fragment_offloads += s.fragment_offloads;
  sharding_.gather_bytes += s.gather_bytes;
  sharding_.partial_groups += s.partial_groups;
  sharding_.repartition_bytes += s.repartition_bytes;

  const AdmissionStats& a = other.admission_;
  admission_.admitted_latency += a.admitted_latency;
  admission_.admitted_batch += a.admitted_batch;
  admission_.shed_bucket_latency += a.shed_bucket_latency;
  admission_.shed_bucket_batch += a.shed_bucket_batch;
  admission_.shed_overload_latency += a.shed_overload_latency;
  admission_.shed_overload_batch += a.shed_overload_batch;
  admission_.scheduler_overflows += a.scheduler_overflows;
  for (int i = 0; i < AdmissionStats::kShedDelayBuckets; ++i) {
    admission_.shed_delay_hist[i] += a.shed_delay_hist[i];
  }
  admission_.tenant_backlog_high_water =
      std::max(admission_.tenant_backlog_high_water,
               a.tenant_backlog_high_water);
}

void NodeStats::RecordFailure(int qp_id) {
  ++failed_;
  ++per_qp_[qp_id].failed;
}

void NodeStats::RecordRejection(int qp_id) {
  ++rejected_;
  ++per_qp_[qp_id].rejected;
}

void NodeStats::RecordQueueDepth(int qp_id, size_t outstanding) {
  QpStats& qp = per_qp_[qp_id];
  qp.queue_high_water = std::max(qp.queue_high_water, outstanding);
}

void NodeStats::RecordAdmitted(SloClass slo) {
  if (slo == SloClass::kBatch) {
    ++admission_.admitted_batch;
  } else {
    ++admission_.admitted_latency;
  }
}

void NodeStats::RecordShed(SloClass slo, bool overload, SimTime retry_after) {
  if (overload) {
    if (slo == SloClass::kBatch) {
      ++admission_.shed_overload_batch;
    } else {
      ++admission_.shed_overload_latency;
    }
  } else {
    if (slo == SloClass::kBatch) {
      ++admission_.shed_bucket_batch;
    } else {
      ++admission_.shed_bucket_latency;
    }
  }
  // log2 bucket of the hint in whole microseconds; <1 µs shares bucket 0.
  int bucket = 0;
  for (SimTime us = retry_after / kMicrosecond; us > 1 &&
       bucket + 1 < AdmissionStats::kShedDelayBuckets;
       us /= 2) {
    ++bucket;
  }
  ++admission_.shed_delay_hist[bucket];
}

void NodeStats::RecordTenantBacklog(size_t backlog) {
  admission_.tenant_backlog_high_water =
      std::max(admission_.tenant_backlog_high_water, backlog);
}

void NodeStats::RecordRegionBusy(int region_id, SimTime busy) {
  region_busy_[region_id] += busy;
}

SimTime NodeStats::region_busy_time(int region_id) const {
  auto it = region_busy_.find(region_id);
  return it == region_busy_.end() ? 0 : it->second;
}

std::string NodeStats::FormatReport(SimTime now,
                                    double link_utilization) const {
  std::ostringstream out;
  out << "NodeStats: " << completed_.size() << " completed, " << failed_
      << " failed, " << rejected_ << " rejected\n";
  out << "  stage latency [us]        p50        p90        p99        max\n";
  AppendStageRow(out, "ingress", ingress_latency());
  AppendStageRow(out, "queue wait", queue_wait());
  AppendStageRow(out, "execute", execute_latency());
  AppendStageRow(out, "egress+deliver", egress_latency());
  AppendStageRow(out, "total", total_latency());
  for (const auto& [qp_id, qp] : per_qp_) {
    char buf[192];
    const SimTime span = qp.last_delivered - qp.first_submitted;
    const double gbps =
        span > 0 ? AchievedGBps(qp.bytes_delivered, span) : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "  qp %-4d %6llu reqs  %10llu B moved  %6.2f GB/s  "
                  "queue high-water %zu\n",
                  qp_id, static_cast<unsigned long long>(qp.completed),
                  static_cast<unsigned long long>(qp.bytes_delivered), gbps,
                  qp.queue_high_water);
    out << buf;
  }
  for (const auto& [region_id, busy] : region_busy_) {
    char buf[96];
    const double pct =
        now > 0 ? 100.0 * static_cast<double>(busy) / static_cast<double>(now)
                : 0.0;
    std::snprintf(buf, sizeof(buf), "  region %d: %5.1f%% busy\n", region_id,
                  pct);
    out << buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  link utilization: %5.1f%%\n",
                100.0 * link_utilization);
  out << buf;
  // Reliability section only when something happened: fault-free runs keep
  // their report byte-identical to the pre-fault-injection simulator.
  if (reliability_.AnyNonZero()) {
    char rbuf[256];
    std::snprintf(
        rbuf, sizeof(rbuf),
        "  reliability: %llu region stalls, %llu region faults, "
        "%llu crashes/%llu restarts (%llu crash failures)\n"
        "               %llu timeouts, %llu retries, %llu fallbacks, "
        "%llu late completions\n",
        static_cast<unsigned long long>(reliability_.region_stalls),
        static_cast<unsigned long long>(reliability_.region_faults),
        static_cast<unsigned long long>(reliability_.node_crashes),
        static_cast<unsigned long long>(reliability_.node_restarts),
        static_cast<unsigned long long>(reliability_.crash_failures),
        static_cast<unsigned long long>(reliability_.timeouts),
        static_cast<unsigned long long>(reliability_.retries),
        static_cast<unsigned long long>(reliability_.fallbacks),
        static_cast<unsigned long long>(reliability_.late_completions));
    out << rbuf;
    // Replication counters on their own line, and only when a cluster was
    // involved: single-node fault runs keep the PR 2 report byte-identical.
    if (reliability_.AnyClusterNonZero()) {
      std::snprintf(
          rbuf, sizeof(rbuf),
          "  replication: %llu served, %llu failovers, %llu fast fails, "
          "circuit %llu open/%llu half-open/%llu close\n"
          "               %llu resyncs, %llu resync bytes, %.3f ms resync\n",
          static_cast<unsigned long long>(reliability_.cluster_requests),
          static_cast<unsigned long long>(reliability_.failovers),
          static_cast<unsigned long long>(reliability_.fast_fails),
          static_cast<unsigned long long>(reliability_.circuit_opens),
          static_cast<unsigned long long>(reliability_.circuit_half_opens),
          static_cast<unsigned long long>(reliability_.circuit_closes),
          static_cast<unsigned long long>(reliability_.resyncs),
          static_cast<unsigned long long>(reliability_.resync_bytes),
          ToMillis(reliability_.resync_time));
      out << rbuf;
    }
  }
  // Sharding section only when a ShardedClient routed traffic here: bare
  // nodes and unsharded clusters keep their reports byte-identical.
  if (sharding_.AnyNonZero()) {
    char sbuf[256];
    std::snprintf(
        sbuf, sizeof(sbuf),
        "  sharding: %llu fragment reads, %llu fragment writes, "
        "%llu fragment offloads\n"
        "            %llu gather bytes, %llu partial groups, "
        "%llu repartition bytes\n",
        static_cast<unsigned long long>(sharding_.fragment_reads),
        static_cast<unsigned long long>(sharding_.fragment_writes),
        static_cast<unsigned long long>(sharding_.fragment_offloads),
        static_cast<unsigned long long>(sharding_.gather_bytes),
        static_cast<unsigned long long>(sharding_.partial_groups),
        static_cast<unsigned long long>(sharding_.repartition_bytes));
    out << sbuf;
  }
  // Admission section only when the controller or the scheduler cap acted:
  // seed workloads (admission off, cap never reached) keep their reports
  // byte-identical (DESIGN.md §15).
  if (admission_.AnyNonZero()) {
    char abuf[320];
    std::snprintf(
        abuf, sizeof(abuf),
        "  admission: %llu/%llu admitted (latency/batch), "
        "%llu/%llu bucket shed, %llu/%llu overload shed, "
        "%llu scheduler overflows\n"
        "             tenant backlog high-water %zu, shed retry-after "
        "hist [us, log2]",
        static_cast<unsigned long long>(admission_.admitted_latency),
        static_cast<unsigned long long>(admission_.admitted_batch),
        static_cast<unsigned long long>(admission_.shed_bucket_latency),
        static_cast<unsigned long long>(admission_.shed_bucket_batch),
        static_cast<unsigned long long>(admission_.shed_overload_latency),
        static_cast<unsigned long long>(admission_.shed_overload_batch),
        static_cast<unsigned long long>(admission_.scheduler_overflows),
        admission_.tenant_backlog_high_water);
    out << abuf;
    for (uint64_t h : admission_.shed_delay_hist) out << ' ' << h;
    out << '\n';
  }
  return out.str();
}

}  // namespace farview
