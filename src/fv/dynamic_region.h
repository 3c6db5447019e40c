#ifndef FARVIEW_FV_DYNAMIC_REGION_H_
#define FARVIEW_FV_DYNAMIC_REGION_H_

#include <functional>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "common/status.h"
#include "fv/fv_config.h"
#include "fv/node_stats.h"
#include "fv/request.h"
#include "fv/request_context.h"
#include "mem/memory_controller.h"
#include "mem/mmu.h"
#include "net/network_stack.h"
#include "operators/batch.h"
#include "operators/pipeline.h"
#include "sim/engine.h"
#include "sim/server.h"

namespace farview {

/// One virtual dynamic region of the operator stack (Sections 3.2, 4.5).
///
/// A region is assigned to one connection, holds at most one loaded operator
/// pipeline (swappable at runtime with a milliseconds-scale partial
/// reconfiguration), and serves one request at a time — multiple outstanding
/// requests wait in the owning queue pair's submission queue at the node.
/// Request execution follows Figure 3:
///
///   memory stack ──bursts──▶ reorder ──▶ pipe (datapath @16 GB/s/pipe)
///        ▲                                   │ operators (functional)
///   read requests                            ▼
///        └──────────── region ──────▶ network stack TxStream ──▶ client
///
/// Timing: bursts queue on the shared DRAM channel servers (striped), then
/// on the region's private datapath server (rate = 16 GB/s × pipes), then
/// the produced payload queues on the shared egress link. Functional bytes
/// are read through the MMU when each burst clears the datapath — in
/// stream order, which the reorder step guarantees (the hardware's
/// inter-stack queues do the same). Nothing is staged in between: the
/// first operator reads a contiguous scan's rows straight from the node's
/// DRAM image, so a burst processed after an overlapping write completes
/// sees the new bytes (DESIGN.md §8).
///
/// The region stamps each request's `RequestContext` as it moves through the
/// stacks (region-start, first-memory-beat, operator-done, egress-finished,
/// delivered) and reports its busy intervals to `NodeStats`.
class DynamicRegion {
 public:
  DynamicRegion(int region_id, sim::Engine* engine,
                const FarviewConfig& config, Mmu* mmu,
                MemoryController* memctl, NetworkStack* net,
                NodeStats* stats);

  DynamicRegion(const DynamicRegion&) = delete;
  DynamicRegion& operator=(const DynamicRegion&) = delete;

  /// Loads (or swaps) the operator pipeline; completes after the partial
  /// reconfiguration delay. Fails if a request is in flight.
  void LoadPipeline(Pipeline pipeline, std::function<void(Status)> done);

  /// True when a pipeline is loaded.
  bool HasPipeline() const { return pipeline_.has_value(); }

  /// The loaded pipeline (must exist).
  const Pipeline& pipeline() const { return *pipeline_; }

  /// Executes a Farview-verb request through the loaded pipeline. The
  /// request must already be at the node (ingress latency paid by the
  /// caller; `ctx->ingress_done` stamped). `on_result` runs when the last
  /// byte lands in client memory — the caller (node or scheduler) uses it
  /// to drain the submission queue before invoking `ctx->done`.
  void Execute(RequestContextPtr ctx,
               std::function<void(Result<FvResult>)> on_result);

  /// Executes a plain RDMA read of `ctx->request.vaddr/len` (the blue
  /// bypass path of Figure 3): memory streamed straight to the network, no
  /// operators.
  void ExecuteRead(RequestContextPtr ctx,
                   std::function<void(Result<FvResult>)> on_result);

  bool busy() const { return busy_; }
  bool reconfiguring() const { return reconfiguring_; }
  int region_id() const { return region_id_; }

  /// Fault window control (DESIGN.md §7). While faulted, Execute/
  /// ExecuteRead and LoadPipeline reject with `Unavailable("region
  /// faulted")`; the node fails queued requests for the region at dispatch
  /// so clients can retry or degrade to a raw read. A request already in
  /// flight when the fault opens finishes on its own (its datapath state is
  /// committed, like a one-sided RDMA in the paper's hardware).
  void InjectFault() { faulted_ = true; }
  void ClearFault() { faulted_ = false; }
  bool faulted() const { return faulted_; }

  /// Requests served since construction.
  uint64_t requests_served() const { return requests_served_; }

 private:
  struct ExecState;

  /// A burst of `bytes` cleared the datapath: run the functional pipeline
  /// over the next `bytes` of the input stream and push output to the
  /// network; finish after the last.
  void OnBurstProcessed(std::shared_ptr<ExecState> st, uint64_t bytes);

  /// Reads input-stream bytes [cursor, cursor + n) of the request at burst
  /// time. A contiguous range inside one page is a view into the DRAM
  /// image; a page-crossing range or a smart-addressing slice is gathered
  /// into `scratch_`. Fails like `Mmu::Read` (e.g. the table was freed).
  Result<const uint8_t*> BurstBytes(const ExecState& st, uint64_t n);

  void FinishStream(std::shared_ptr<ExecState> st);

  /// Ends the request with `s`: later bursts are ignored and the region is
  /// released.
  void FailStream(const std::shared_ptr<ExecState>& st, Status s);

  /// Marks the region busy and records the occupancy start.
  void EnterBusy(RequestContextPtr& ctx);

  /// Frees the region and reports the busy interval to NodeStats.
  void ReleaseBusy();

  /// Copies delivery accounting from the exec state into its context.
  void StampDelivered(const std::shared_ptr<ExecState>& st, SimTime t);

  int region_id_;
  sim::Engine* engine_;
  FarviewConfig config_;
  Mmu* mmu_;
  MemoryController* memctl_;
  NetworkStack* net_;
  NodeStats* stats_;

  std::optional<Pipeline> pipeline_;
  /// One burst's gathered input (see BurstBytes). Region-owned and reused,
  /// so it keeps its capacity across bursts and requests.
  ByteBuffer scratch_;
  /// Long-lived stream parser, rebound to the loaded pipeline's input schema
  /// at the start of each request (a region serves one request at a time, so
  /// reuse is race-free). Like `scratch_`, reuse keeps its partial-tuple
  /// buffer capacity warm instead of heap-allocating a parser per request
  /// (DESIGN.md §8a).
  StreamParser parser_{nullptr};
  bool busy_ = false;
  bool reconfiguring_ = false;
  bool faulted_ = false;
  SimTime busy_since_ = 0;
  uint64_t requests_served_ = 0;
};

}  // namespace farview

#endif  // FARVIEW_FV_DYNAMIC_REGION_H_
