#ifndef FVBENCH_TRACE_H_
#define FVBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "operators/operator.h"
#include "sim/engine.h"

namespace fvbench {

/// Host monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t HostNowNs();

/// What a span covers. Every span is recorded by the benchmark around a
/// call into one layer's public API; nothing inside the library is
/// instrumented.
enum class SpanKind : uint8_t {
  kRequest,    ///< one request, submit to completion (host + sim stamps)
  kSubmit,     ///< host time inside one client API call
  kCallback,   ///< one completion callback (verification + next submit)
  kRun,        ///< sim::Engine::Run
  kOpProcess,  ///< Operator::Process
  kOpFlush,    ///< Operator::Flush
  kOpReset,    ///< Operator::Reset
};

/// Operator kinds with their own per-row metric (`op.<kind>.ns_per_row`).
enum class OpKind : uint8_t {
  kDistinct,
  kGroupBy,
  kSelect,
  kRegex,
  kProject,
  kOther,  ///< packing and anything else: counted in op.self_frac only
};
inline constexpr int kNumOpKinds = 6;

/// Metric-name fragment of an operator kind ("distinct", "select", ...).
const char* OpKindName(OpKind kind);

/// Maps an `Operator::name()` onto its metric kind.
OpKind OpKindOf(const std::string& operator_name);

/// In-memory span recorder for the traced run.
///
/// Per-kind totals are always kept; individual spans are stored up to
/// `max_spans` (later ones still count in the totals) and written out by
/// `WriteCsv` when the run ends. Spans nest: a span's parent is the span
/// open when it began, so an operator span's parent is the `Engine::Run`
/// span, a submit issued from a completion callback has that callback as
/// parent, and request spans carry the request id.
class Tracer {
 public:
  explicit Tracer(size_t max_spans);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Engine whose clock stamps operator spans (operators themselves are
  /// untimed functional code).
  void set_engine(const farview::sim::Engine* engine) { engine_ = engine; }
  farview::SimTime SimNow() const {
    return engine_ != nullptr ? engine_->Now() : 0;
  }

  /// Drops every span and total (the warm-up is not part of the run).
  void Clear();

  /// Opens a span; returns its handle for `End`.
  int Begin(SpanKind kind, uint64_t request_id, farview::SimTime sim_now,
            OpKind op = OpKind::kOther);
  /// Closes the innermost open span (`handle` from the matching `Begin`).
  void End(int handle, farview::SimTime sim_now, uint64_t rows = 0);

  /// Records a finished request span (submit → completion).
  void Request(uint64_t request_id, int64_t host_submit, int64_t host_done,
               farview::SimTime sim_submit, farview::SimTime sim_done);

  /// Writes every stored span as CSV; returns false when the file could
  /// not be written.
  bool WriteCsv(const std::string& path) const;

  // --- Totals (host nanoseconds) ----------------------------------------
  int64_t total_ns(SpanKind kind) const {
    return totals_[static_cast<size_t>(kind)];
  }
  /// Process + Flush time of operator kind `k`, and the rows it consumed.
  int64_t op_ns(OpKind k) const { return op_ns_[static_cast<size_t>(k)]; }
  uint64_t op_rows(OpKind k) const {
    return op_rows_[static_cast<size_t>(k)];
  }
  /// Operator Process + Flush + Reset time over all kinds.
  int64_t op_total_ns() const;
  /// Host duration of every submit span, in order.
  const std::vector<int64_t>& submit_durations() const {
    return submit_durations_;
  }
  size_t spans_stored() const { return spans_.size(); }
  uint64_t spans_dropped() const { return dropped_; }

 private:
  struct Span {
    uint64_t request_id = 0;
    int64_t host_start = 0;
    int64_t host_end = 0;
    farview::SimTime sim_start = 0;
    farview::SimTime sim_end = 0;
    int32_t parent = -1;
    SpanKind kind = SpanKind::kRequest;
    OpKind op = OpKind::kOther;
  };
  /// An open span: its slot in `spans_` (-1 when not stored) and the
  /// fields needed for the totals.
  struct Open {
    int32_t index = -1;
    SpanKind kind = SpanKind::kRequest;
    OpKind op = OpKind::kOther;
    int64_t host_start = 0;
  };

  int32_t Store(const Span& span);

  const farview::sim::Engine* engine_ = nullptr;
  size_t max_spans_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  uint64_t dropped_ = 0;
  std::array<int64_t, 7> totals_{};
  std::array<int64_t, kNumOpKinds> op_ns_{};
  std::array<uint64_t, kNumOpKinds> op_rows_{};
  std::vector<int64_t> submit_durations_;
};

/// RAII span around one call; a null tracer makes it a no-op, so untraced
/// runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, uint64_t request_id,
             farview::SimTime sim_now)
      : tracer_(tracer), sim_now_(sim_now) {
    if (tracer_ != nullptr) {
      handle_ = tracer_->Begin(kind, request_id, sim_now);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(handle_, sim_now_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  farview::SimTime sim_now_;
  int handle_ = -1;
};

/// Forwarding `Operator` decorator that times Process/Flush/Reset of the
/// wrapped operator into a `Tracer`. It forwards `name()` and
/// `output_schema()` and mirrors `stats()` after every call, so the node's
/// resource model and `Pipeline::IsBlocking` see the same pipeline as an
/// undecorated build.
class TimedOperator final : public farview::Operator {
 public:
  TimedOperator(farview::OperatorPtr inner, Tracer* tracer);

  farview::Result<farview::Batch> Process(farview::Batch in) override;
  farview::Result<farview::Batch> Flush() override;
  const farview::Schema& output_schema() const override {
    return inner_->output_schema();
  }
  std::string name() const override { return inner_->name(); }
  void Reset() override;

  /// The decorated operator (for kind-specific counters).
  const farview::Operator& inner() const { return *inner_; }

 private:
  farview::OperatorPtr inner_;
  Tracer* tracer_;
  OpKind kind_;
};

/// Wraps `op` in a `TimedOperator` when `tracer` is non-null.
farview::OperatorPtr MaybeTimed(farview::OperatorPtr op, Tracer* tracer);

/// Unwraps a `TimedOperator` (identity for undecorated operators).
const farview::Operator& Undecorated(const farview::Operator& op);

}  // namespace fvbench

#endif  // FVBENCH_TRACE_H_
