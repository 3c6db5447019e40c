#include "baseline/engines.h"

#include <algorithm>

#include "common/logging.h"

namespace farview {
namespace {

/// Extracts the hash-phase quantities from the executed pipeline.
struct HashProfile {
  bool present = false;
  uint64_t rows = 0;      ///< probes into the table
  uint64_t distinct = 0;  ///< resident entries at the end
  uint32_t entry_bytes = 0;
};

HashProfile ProfileHash(const Pipeline& pipeline) {
  HashProfile p;
  for (size_t i = 0; i < pipeline.num_operators(); ++i) {
    const Operator& op = pipeline.op(i);
    if (op.name() == "distinct" || op.name() == "group_by") {
      p.present = true;
      p.rows = op.stats().rows_in;
      p.distinct = op.stats().rows_out;
      p.entry_bytes = op.output_schema().tuple_width();
      return p;
    }
    if (op.name() == "hash_join") {
      // CPU cost: build-side inserts plus one probe per input row.
      const auto& join = static_cast<const HashJoinOp&>(op);
      p.present = true;
      p.rows = op.stats().rows_in + join.build_rows();
      p.distinct = join.build_rows();
      p.entry_bytes = op.output_schema().tuple_width();
      return p;
    }
  }
  return p;
}

}  // namespace

Result<BaselineResult> LocalEngine::Execute(const Table& input,
                                            const QuerySpec& spec,
                                            int concurrent_processes) const {
  FV_ASSIGN_OR_RETURN(Pipeline pipeline,
                      spec.BuildPipeline(input.schema()));

  // Functional execution: the whole table as one batch borrowing the input
  // rows, then flush.
  Batch batch = Batch::Borrow(&pipeline.input_schema(), input.data(),
                              input.num_rows());
  FV_ASSIGN_OR_RETURN(Batch streamed, pipeline.Process(std::move(batch)));
  FV_ASSIGN_OR_RETURN(Batch flushed, pipeline.Flush());

  BaselineResult res;
  res.output_schema = pipeline.output_schema();
  streamed.Own();
  res.data = std::move(streamed.data);
  AppendBytes(&res.data, flushed.bytes(), flushed.size_bytes());
  res.rows = streamed.num_rows + flushed.num_rows;

  // --- Timing --------------------------------------------------------------
  const int procs = std::max(concurrent_processes, 1);
  const uint64_t bytes_in = input.size_bytes();
  const uint64_t rows_in = input.num_rows();
  const uint64_t bytes_out = res.data.size();
  const double read_rate = model_.SharedReadRate(procs);
  const double write_rate = model_.SharedWriteRate(procs);
  const double interference =
      procs > 1 ? model_.config().cache_interference_factor : 1.0;

  res.stream_time =
      TransferTime(bytes_in, read_rate) +
      static_cast<SimTime>(rows_in) * model_.config().per_tuple_cost +
      TransferTime(bytes_out, write_rate);

  if (spec.decrypt) {
    res.crypto_time = model_.CryptoPhase(bytes_in);
  }
  if (spec.regex_column.has_value()) {
    const uint64_t scanned =
        rows_in * input.schema().width(*spec.regex_column);
    res.regex_time = model_.RegexPhase(scanned);
  }
  const HashProfile hp = ProfileHash(pipeline);
  if (hp.present) {
    res.hash_time =
        model_.HashPhase(hp.rows, hp.distinct, hp.entry_bytes, interference);
  }
  res.elapsed =
      res.stream_time + res.crypto_time + res.regex_time + res.hash_time;
  return res;
}

Result<BaselineResult> RemoteEngine::Execute(const Table& input,
                                             const QuerySpec& spec,
                                             int concurrent_processes) const {
  FV_ASSIGN_OR_RETURN(BaselineResult res,
                      LocalEngine::Execute(input, spec,
                                           concurrent_processes));
  // Ship the result through the commercial NIC: request one way, payload
  // across the PCIe-bound pipe (serialized across concurrent processes —
  // they share one NIC), delivery the other way.
  const int procs = std::max(concurrent_processes, 1);
  const uint64_t total_wire_bytes =
      res.data.size() * static_cast<uint64_t>(procs);
  res.network_time = net_.rnic_request_latency +
                     TransferTime(total_wire_bytes,
                                  net_.rnic_rate_bytes_per_sec) +
                     net_.rnic_delivery_latency;
  res.elapsed += res.network_time;
  return res;
}

}  // namespace farview
