#include "trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"

namespace fvbench {

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kDistinct:
      return "distinct";
    case OpKind::kGroupBy:
      return "group_by";
    case OpKind::kSelect:
      return "select";
    case OpKind::kRegex:
      return "regex";
    case OpKind::kProject:
      return "project";
    case OpKind::kOther:
      break;
  }
  return "other";
}

OpKind OpKindOf(const std::string& operator_name) {
  if (operator_name == "distinct") return OpKind::kDistinct;
  if (operator_name == "group_by") return OpKind::kGroupBy;
  if (operator_name == "selection") return OpKind::kSelect;
  if (operator_name == "regex") return OpKind::kRegex;
  if (operator_name == "projection") return OpKind::kProject;
  return OpKind::kOther;
}

namespace {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kSubmit:
      return "submit";
    case SpanKind::kCallback:
      return "callback";
    case SpanKind::kRun:
      return "engine_run";
    case SpanKind::kOpProcess:
      return "op_process";
    case SpanKind::kOpFlush:
      return "op_flush";
    case SpanKind::kOpReset:
      return "op_reset";
  }
  return "?";
}

}  // namespace

Tracer::Tracer(size_t max_spans) : max_spans_(max_spans) {
  spans_.reserve(max_spans_);
  stack_.reserve(16);
  submit_durations_.reserve(1 << 20);
}

void Tracer::Clear() {
  FV_CHECK(stack_.empty()) << "Clear with open spans";
  spans_.clear();
  dropped_ = 0;
  totals_ = {};
  op_ns_ = {};
  op_rows_ = {};
  submit_durations_.clear();
}

int32_t Tracer::Store(const Span& span) {
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

int Tracer::Begin(SpanKind kind, uint64_t request_id,
                  farview::SimTime sim_now, OpKind op) {
  Span span;
  span.request_id = request_id;
  span.sim_start = sim_now;
  span.kind = kind;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back().index;
  Open open;
  open.kind = kind;
  open.op = op;
  open.index = Store(span);
  // Stamp last, so the bookkeeping above is not charged to the span.
  open.host_start = HostNowNs();
  stack_.push_back(open);
  return static_cast<int>(stack_.size() - 1);
}

void Tracer::End(int handle, farview::SimTime sim_now, uint64_t rows) {
  const int64_t host_end = HostNowNs();
  const Open open = stack_.back();
  (void)handle;  // spans are strictly nested: `handle` is always the top
  stack_.pop_back();
  const int64_t dur = host_end - open.host_start;
  totals_[static_cast<size_t>(open.kind)] += dur;
  switch (open.kind) {
    case SpanKind::kOpProcess:
    case SpanKind::kOpFlush:
      op_ns_[static_cast<size_t>(open.op)] += dur;
      op_rows_[static_cast<size_t>(open.op)] += rows;
      break;
    case SpanKind::kSubmit:
      submit_durations_.push_back(dur);
      break;
    default:
      break;
  }
  if (open.index >= 0) {
    Span& span = spans_[static_cast<size_t>(open.index)];
    span.host_start = open.host_start;
    span.host_end = host_end;
    span.sim_end = sim_now;
  }
}

void Tracer::Request(uint64_t request_id, int64_t host_submit,
                     int64_t host_done, farview::SimTime sim_submit,
                     farview::SimTime sim_done) {
  Span span;
  span.request_id = request_id;
  span.host_start = host_submit;
  span.host_end = host_done;
  span.sim_start = sim_submit;
  span.sim_end = sim_done;
  span.kind = SpanKind::kRequest;
  Store(span);
  totals_[static_cast<size_t>(SpanKind::kRequest)] += host_done - host_submit;
}

int64_t Tracer::op_total_ns() const {
  return total_ns(SpanKind::kOpProcess) + total_ns(SpanKind::kOpFlush) +
         total_ns(SpanKind::kOpReset);
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "id,kind,op,request,parent,host_start_ns,host_end_ns,"
               "sim_start_ps,sim_end_ps\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%s,%llu,%d,%lld,%lld,%lld,%lld\n", i,
                 SpanKindName(s.kind), OpKindName(s.op),
                 static_cast<unsigned long long>(s.request_id), s.parent,
                 static_cast<long long>(s.host_start),
                 static_cast<long long>(s.host_end),
                 static_cast<long long>(s.sim_start),
                 static_cast<long long>(s.sim_end));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// TimedOperator
// ---------------------------------------------------------------------------

TimedOperator::TimedOperator(farview::OperatorPtr inner, Tracer* tracer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      kind_(OpKindOf(inner_->name())) {
  stats_ = inner_->stats();
}

farview::Result<farview::Batch> TimedOperator::Process(farview::Batch in) {
  const uint64_t rows = in.num_rows;
  const int h = tracer_->Begin(SpanKind::kOpProcess, 0, tracer_->SimNow(),
                               kind_);
  farview::Result<farview::Batch> out = inner_->Process(std::move(in));
  tracer_->End(h, tracer_->SimNow(), rows);
  stats_ = inner_->stats();
  return out;
}

farview::Result<farview::Batch> TimedOperator::Flush() {
  const int h =
      tracer_->Begin(SpanKind::kOpFlush, 0, tracer_->SimNow(), kind_);
  farview::Result<farview::Batch> out = inner_->Flush();
  tracer_->End(h, tracer_->SimNow());
  stats_ = inner_->stats();
  return out;
}

void TimedOperator::Reset() {
  const int h =
      tracer_->Begin(SpanKind::kOpReset, 0, tracer_->SimNow(), kind_);
  inner_->Reset();
  tracer_->End(h, tracer_->SimNow());
  stats_ = inner_->stats();
}

farview::OperatorPtr MaybeTimed(farview::OperatorPtr op, Tracer* tracer) {
  if (tracer == nullptr) return op;
  return std::make_unique<TimedOperator>(std::move(op), tracer);
}

const farview::Operator& Undecorated(const farview::Operator& op) {
  if (const auto* timed = dynamic_cast<const TimedOperator*>(&op)) {
    return timed->inner();
  }
  return op;
}

}  // namespace fvbench
