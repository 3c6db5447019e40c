#ifndef FARVIEW_FV_CLIENT_STACK_H_
#define FARVIEW_FV_CLIENT_STACK_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "fv/client.h"
#include "sim/engine.h"

namespace farview {

// Mechanisms shared by the three client layers — `FarviewClient`,
// `ClusterClient` and `ShardedClient` (DESIGN.md §12–13). Each is written
// once here; the layers differ only in how they route a hop.

/// The status every data-path call on an unconnected client settles with.
inline Status NotConnected() {
  return Status::FailedPrecondition("not connected");
}

/// What a failed hop says about the node that answered it.
enum class HopOutcome {
  kOk,
  kShed,           ///< `ResourceExhausted`: healthy but refusing work (§15)
  kHealthFailure,  ///< `Unavailable` / `DeadlineExceeded`: node is suspect
  kRequestError,   ///< anything else: the request's own fault
};

/// Sorts a hop's status; every retry, failover and fencing decision of the
/// client layers branches on this one classification.
inline HopOutcome ClassifyHop(const Status& s) {
  if (s.ok()) return HopOutcome::kOk;
  if (s.IsResourceExhausted()) return HopOutcome::kShed;
  if (s.IsUnavailable() || s.IsDeadlineExceeded()) {
    return HopOutcome::kHealthFailure;
  }
  return HopOutcome::kRequestError;
}

/// Sync-over-async: issues one call through `issue(done)`, drives the
/// engine until it drains, and returns what `done` received. Only valid
/// when no other traffic must stay pending. An unconnected client gets
/// `NotConnected()` without the engine being driven.
template <typename T, typename Issue>
T RunSync(sim::Engine* engine, bool connected, Issue&& issue) {
  if (!connected) return NotConnected();
  std::optional<T> out;
  issue([&out](T r) { out.emplace(std::move(r)); });
  engine->Run();
  FV_CHECK(out.has_value()) << "synchronous client call did not complete";
  return std::move(*out);
}

/// Hands `result` to a one-shot completion held in a call's shared state,
/// moving the callback out first: its captures are released at once and no
/// later path of the call can invoke it again.
template <typename Done, typename R>
void Settle(Done& done, R&& result) {
  auto cb = std::move(done);
  cb(std::forward<R>(result));
}

/// Join of one fan-out of parallel hops (scatter, gather, per-replica
/// loads, mirror acks): counts arrivals down and keeps the first hop error.
/// It lives inside the fan-out's shared state, so it allocates nothing.
class FanOutJoin {
 public:
  void Expect(size_t hops) { pending_ = hops; }

  /// Records one hop's outcome. Returns true for exactly one arrival, the
  /// last; its caller settles the fan-out with `error()`.
  bool Arrive(const Status& hop = Status::OK()) {
    FV_CHECK(pending_ > 0) << "fan-out hop arrived after the join settled";
    if (!hop.ok() && error_.ok()) error_ = hop;
    return --pending_ == 0;
  }

  const Status& error() const { return error_; }

 private:
  size_t pending_ = 0;
  Status error_;
};

/// Opens one sub-client per index (`make(i)` builds it) and commits the
/// set only once all connected: a partial set would make `connected()`
/// true while the data path indexes it past its end.
template <typename Client, typename Make>
Status ConnectAll(int n, Make make,
                  std::vector<std::unique_ptr<Client>>* clients) {
  if (!clients->empty()) {
    return Status::FailedPrecondition("connection already open");
  }
  std::vector<std::unique_ptr<Client>> opened;
  for (int i = 0; i < n; ++i) {
    opened.push_back(make(i));
    FV_RETURN_IF_ERROR(opened.back()->OpenConnection());
  }
  *clients = std::move(opened);
  return Status::OK();
}

/// The standard request for a full scan of `table`.
inline FvRequest FullScanRequest(const FTable& table, bool vectorized) {
  FvRequest req;
  req.vaddr = table.vaddr;
  req.len = table.SizeBytes();
  req.tuple_bytes = table.schema.tuple_width();
  req.vectorized = vectorized;
  return req;
}

/// `InvalidArgument` unless `rows` has the table's schema and row count.
inline Status CheckRowsMatch(const FTable& table, const Table& rows) {
  if (!rows.schema().Equals(table.schema)) {
    return Status::InvalidArgument("row data does not match table schema");
  }
  if (rows.num_rows() != table.num_rows) {
    return Status::InvalidArgument("row count does not match table");
  }
  return Status::OK();
}

}  // namespace farview

#endif  // FARVIEW_FV_CLIENT_STACK_H_
