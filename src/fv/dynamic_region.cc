#include "fv/dynamic_region.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/logging.h"
#include "operators/batch.h"

namespace farview {

DynamicRegion::DynamicRegion(int region_id, sim::Engine* engine,
                             const FarviewConfig& config, Mmu* mmu,
                             MemoryController* memctl, NetworkStack* net,
                             NodeStats* stats)
    : region_id_(region_id),
      engine_(engine),
      config_(config),
      mmu_(mmu),
      memctl_(memctl),
      net_(net),
      stats_(stats) {
  FV_CHECK(engine_ && mmu_ && memctl_ && net_ && stats_);
}

void DynamicRegion::LoadPipeline(Pipeline pipeline,
                                 std::function<void(Status)> done) {
  if (faulted_) {
    engine_->ScheduleAfter(0, [done = std::move(done)]() {
      done(Status::Unavailable("region faulted"));
    });
    return;
  }
  if (busy_ || reconfiguring_) {
    engine_->ScheduleAfter(0, [done = std::move(done)]() {
      done(Status::Unavailable("region busy; cannot reconfigure"));
    });
    return;
  }
  reconfiguring_ = true;
  // Partial reconfiguration: the bitstream for the pre-compiled pipeline is
  // loaded without disturbing other regions (Section 3.2).
  engine_->ScheduleAfter(
      config_.region_reconfig_time,
      [this, p = std::make_shared<Pipeline>(std::move(pipeline)),
       done = std::move(done)]() mutable {
        pipeline_.emplace(std::move(*p));
        reconfiguring_ = false;
        done(Status::OK());
      });
}

/// Per-request execution state, kept alive by shared_ptr across the event
/// callbacks of the three stacks.
struct DynamicRegion::ExecState {
  /// Lifecycle context of the request being served; stamps are written here
  /// as the request crosses stack boundaries.
  RequestContextPtr ctx;
  bool plain_read = false;

  /// Length of the input stream (whole tuples, or the smart-addressing
  /// extraction) and how much of it the datapath has consumed. Bytes are
  /// read from memory as each burst is processed (BurstBytes).
  uint64_t stream_len = 0;
  uint64_t stream_cursor = 0;

  /// Private datapath server for this request (rate depends on
  /// vectorization).
  std::unique_ptr<sim::Server> pipe;

  NetworkStack::StreamHandle tx;
  /// Borrowed from DynamicRegion::parser_ (rebound per request); never
  /// outlives the region.
  StreamParser* parser = nullptr;

  uint64_t mem_bursts_total = 0;
  uint64_t mem_bursts_done = 0;
  uint64_t pipe_chunks_done = 0;
  bool input_done = false;
  bool failed = false;

  FvResult result;
  std::function<void(Result<FvResult>)> on_result;
};

void DynamicRegion::EnterBusy(RequestContextPtr& ctx) {
  busy_ = true;
  busy_since_ = engine_->Now();
  ctx->region_start = busy_since_;
}

void DynamicRegion::ReleaseBusy() {
  busy_ = false;
  stats_->RecordRegionBusy(region_id_, engine_->Now() - busy_since_);
}

void DynamicRegion::StampDelivered(const std::shared_ptr<ExecState>& st,
                                   SimTime t) {
  st->ctx->delivered = t;
  st->ctx->egress_finished = st->tx->last_link_exit();
  st->ctx->bytes_on_wire = st->result.bytes_on_wire;
  st->ctx->packets = st->tx->packets_sent();
  st->ctx->rows = st->result.rows;
}

void DynamicRegion::Execute(RequestContextPtr ctx,
                            std::function<void(Result<FvResult>)> on_result) {
  const FvRequest& request = ctx->request;
  auto fail = [this, &on_result](Status s) {
    engine_->ScheduleAfter(0, [s, on_result = std::move(on_result)]() {
      on_result(s);
    });
  };
  if (faulted_) {
    fail(Status::Unavailable("region faulted"));
    return;
  }
  if (busy_ || reconfiguring_) {
    fail(Status::Unavailable("region busy"));
    return;
  }
  if (!pipeline_.has_value()) {
    fail(Status::FailedPrecondition("no pipeline loaded"));
    return;
  }
  if (request.tuple_bytes == 0 || request.len % request.tuple_bytes != 0) {
    fail(Status::InvalidArgument("length is not a whole number of tuples"));
    return;
  }
  const uint32_t stream_tuple =
      request.smart_addressing ? request.sa_access_bytes : request.tuple_bytes;
  if (stream_tuple != pipeline_->input_schema().tuple_width()) {
    fail(Status::InvalidArgument(
        "pipeline input width does not match the requested tuple layout"));
    return;
  }
  if (request.smart_addressing) {
    if (request.vectorized) {
      fail(Status::InvalidArgument(
          "smart addressing and vectorization are mutually exclusive"));
      return;
    }
    if (request.sa_access_bytes == 0 ||
        request.sa_offset + request.sa_access_bytes > request.tuple_bytes) {
      fail(Status::InvalidArgument("smart-addressing window out of tuple"));
      return;
    }
  }

  auto st = std::make_shared<ExecState>();
  st->ctx = ctx;
  st->on_result = std::move(on_result);
  st->result.issued_at = ctx->submitted;

  // Access check for the whole input up front; the bytes themselves are
  // read burst by burst. `on_result` now lives in the state object, so
  // failures from here on must route through it, not through `fail`.
  const uint64_t rows = request.len / request.tuple_bytes;
  st->stream_len =
      request.smart_addressing ? rows * request.sa_access_bytes : request.len;
  Status access = Status::OK();
  if (!request.smart_addressing) {
    access = mmu_->CheckAccess(ctx->client_id, request.vaddr, request.len);
  } else if (rows > 0) {
    // First access window through the last.
    access = mmu_->CheckAccess(
        ctx->client_id, request.vaddr + request.sa_offset,
        (rows - 1) * request.tuple_bytes + request.sa_access_bytes);
  }
  if (!access.ok()) {
    engine_->ScheduleAfter(0, [st, access]() { st->on_result(access); });
    return;
  }

  EnterBusy(ctx);
  pipeline_->Reset();
  parser_.Rebind(&pipeline_->input_schema());
  st->parser = &parser_;
  st->pipe = std::make_unique<sim::Server>(
      engine_, "region" + std::to_string(region_id_) + "_pipe",
      config_.PipeRate(request.vectorized));

  st->tx = net_->OpenStream(
      ctx->qp_id, [this, st](uint64_t bytes, bool last, SimTime t) {
        st->result.bytes_on_wire += bytes;
        if (st->result.first_byte_at == 0) st->result.first_byte_at = t;
        if (last) {
          st->result.completed_at = t;
          StampDelivered(st, t);
          ReleaseBusy();
          ++requests_served_;
          st->on_result(std::move(st->result));
        }
      });

  // Timing: drive the memory stack; each completed burst is handed to the
  // datapath; each datapath completion processes the next chunk of the
  // functional stream.
  auto on_mem_burst = [this, st](uint64_t bytes, bool last, SimTime t) {
    if (st->failed) return;
    ++st->mem_bursts_done;
    if (st->ctx->first_memory_beat == 0) st->ctx->first_memory_beat = t;
    if (last) st->input_done = true;
    const SimTime fill = st->pipe_chunks_done == 0 && st->mem_bursts_done == 1
                             ? config_.pipeline_fill_latency
                             : 0;
    st->pipe->Submit(st->ctx->qp_id, bytes, fill, [this, st, bytes](SimTime) {
      OnBurstProcessed(st, bytes);
    });
  };

  if (request.smart_addressing) {
    memctl_->ScatteredRead(ctx->qp_id, request.vaddr, rows,
                           request.sa_access_bytes, request.tuple_bytes,
                           on_mem_burst);
  } else {
    memctl_->StreamRead(ctx->qp_id, request.vaddr, request.len, on_mem_burst);
  }
}

void DynamicRegion::OnBurstProcessed(std::shared_ptr<ExecState> st,
                                     uint64_t bytes) {
  if (st->failed) return;
  ++st->pipe_chunks_done;
  // Functional processing: the next `bytes` of the stream clear the
  // datapath now, read from memory as they leave it.
  const uint64_t n =
      std::min<uint64_t>(bytes, st->stream_len - st->stream_cursor);
  Result<const uint8_t*> in = BurstBytes(*st, n);
  if (!in.ok()) {
    FailStream(st, in.status());
    return;
  }
  Batch batch = st->parser->Push(in.value(), n);
  st->stream_cursor += n;
  Result<Batch> out = pipeline_->Process(std::move(batch));
  if (!out.ok()) {
    FailStream(st, out.status());
    return;
  }
  AppendBytes(&st->result.data, out.value().bytes(),
              out.value().size_bytes());
  st->result.rows += out.value().num_rows;
  if (out.value().size_bytes() > 0) {
    st->tx->Push(out.value().size_bytes());
  }
  if (st->input_done && st->pipe_chunks_done == st->mem_bursts_done &&
      st->stream_cursor == st->stream_len) {
    FinishStream(st);
  }
}

Result<const uint8_t*> DynamicRegion::BurstBytes(const ExecState& st,
                                                 uint64_t n) {
  if (n == 0) return static_cast<const uint8_t*>(nullptr);
  const FvRequest& request = st.ctx->request;
  const int client = st.ctx->client_id;
  if (!request.smart_addressing) {
    const uint64_t vaddr = request.vaddr + st.stream_cursor;
    FV_ASSIGN_OR_RETURN(const std::span<const uint8_t> span,
                        mmu_->PageSpan(client, vaddr, n));
    if (span.size() == n) return span.data();
    scratch_.resize(n);
    FV_RETURN_IF_ERROR(mmu_->Read(client, vaddr, n, scratch_.data()));
    return static_cast<const uint8_t*>(scratch_.data());
  }
  // Smart addressing: this burst's slice of the extraction, one access
  // window (or part of one) at a time.
  scratch_.resize(n);
  const uint64_t access = request.sa_access_bytes;
  uint64_t done = 0;
  while (done < n) {
    const uint64_t pos = st.stream_cursor + done;
    const uint64_t within = pos % access;
    const uint64_t take = std::min(access - within, n - done);
    FV_RETURN_IF_ERROR(mmu_->Read(client,
                                  request.vaddr +
                                      pos / access * request.tuple_bytes +
                                      request.sa_offset + within,
                                  take, scratch_.data() + done));
    done += take;
  }
  return static_cast<const uint8_t*>(scratch_.data());
}

void DynamicRegion::FailStream(const std::shared_ptr<ExecState>& st,
                               Status s) {
  st->failed = true;
  ReleaseBusy();
  st->on_result(std::move(s));
}

void DynamicRegion::FinishStream(std::shared_ptr<ExecState> st) {
  Result<Batch> flushed = pipeline_->Flush();
  if (!flushed.ok()) {
    FailStream(st, flushed.status());
    return;
  }
  const Batch& fb = flushed.value();
  // Blocking operators pay the flush-phase latency: one queue lookup per
  // group per cycle (Section 5.4).
  SimTime flush_latency = 0;
  if (fb.num_rows > 0 && pipeline_->IsBlocking()) {
    flush_latency = static_cast<SimTime>(fb.num_rows) * config_.flush_per_group;
  }
  AppendBytes(&st->result.data, fb.bytes(), fb.size_bytes());
  st->result.rows += fb.num_rows;
  const uint64_t flush_bytes = fb.size_bytes();
  engine_->ScheduleAfter(flush_latency, [this, st, flush_bytes]() {
    st->ctx->operator_done = engine_->Now();
    if (flush_bytes > 0) st->tx->Push(flush_bytes);
    st->tx->Finish();
  });
}

void DynamicRegion::ExecuteRead(
    RequestContextPtr ctx, std::function<void(Result<FvResult>)> on_result) {
  auto fail = [this, &on_result](Status s) {
    engine_->ScheduleAfter(0, [s, on_result = std::move(on_result)]() {
      on_result(s);
    });
  };
  if (faulted_) {
    fail(Status::Unavailable("region faulted"));
    return;
  }
  if (busy_) {
    fail(Status::Unavailable("region busy"));
    return;
  }
  auto st = std::make_shared<ExecState>();
  st->ctx = ctx;
  st->plain_read = true;
  st->on_result = std::move(on_result);
  st->result.issued_at = ctx->submitted;
  // Plain reads have no parser/datapath stage, so the payload is appended
  // straight into the result — one copy pass, no scratch buffer and no
  // value-initializing resize.
  const Status s = mmu_->ReadInto(ctx->client_id, ctx->request.vaddr,
                                  ctx->request.len, &st->result.data);
  if (!s.ok()) {
    engine_->ScheduleAfter(0, [s, st]() { st->on_result(s); });
    return;
  }

  EnterBusy(ctx);
  st->tx = net_->OpenStream(
      ctx->qp_id, [this, st](uint64_t bytes, bool last, SimTime t) {
        st->result.bytes_on_wire += bytes;
        if (st->result.first_byte_at == 0) st->result.first_byte_at = t;
        if (last) {
          st->result.completed_at = t;
          StampDelivered(st, t);
          ReleaseBusy();
          ++requests_served_;
          st->on_result(std::move(st->result));
        }
      });

  // Blue bypass path (Figure 3): memory bursts stream straight to the
  // network stack, no datapath stage — the memory stack's last burst marks
  // the operator-done stage for plain reads.
  memctl_->StreamRead(ctx->qp_id, ctx->request.vaddr, ctx->request.len,
                      [st](uint64_t bytes, bool last, SimTime t) {
                        if (st->ctx->first_memory_beat == 0) {
                          st->ctx->first_memory_beat = t;
                        }
                        if (bytes > 0) st->tx->Push(bytes);
                        if (last) {
                          st->ctx->operator_done = t;
                          st->tx->Finish();
                        }
                      });
}

}  // namespace farview
