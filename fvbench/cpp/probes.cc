#include "probes.h"

#include <algorithm>
#include <vector>

#include "harness.h"
#include "mem/memory_controller.h"
#include "net/network_stack.h"
#include "sim/engine.h"

namespace fvbench {
namespace {

/// Repetitions per probe; the median is reported.
constexpr int kReps = 5;

/// Self-rescheduling event chain of the sim probe.
struct EventChain {
  farview::sim::Engine* engine = nullptr;
  uint64_t remaining = 0;
  uint64_t lcg = 0;

  void Fire() {
    if (remaining == 0) return;
    --remaining;
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    // Delays of 1 ns to ~1 us, the span of packet, burst and link events.
    const SimTime delay =
        static_cast<SimTime>(1 + (lcg >> 54)) * farview::kNanosecond;
    engine->ScheduleAfter(delay, [this]() { Fire(); });
  }
};

}  // namespace

double ProbeSimEvent(uint64_t queue_depth, uint64_t events) {
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    farview::sim::Engine engine;
    std::vector<EventChain> chains(std::max<uint64_t>(queue_depth, 1));
    const uint64_t per_chain = events / chains.size() + 1;
    for (size_t i = 0; i < chains.size(); ++i) {
      chains[i].engine = &engine;
      chains[i].remaining = per_chain;
      chains[i].lcg = i + 1;
      chains[i].Fire();
    }
    const int64_t t0 = HostNowNs();
    engine.Run();
    const int64_t t1 = HostNowNs();
    ns.push_back(static_cast<double>(t1 - t0) /
                 static_cast<double>(engine.executed_events()));
  }
  return Median(ns);
}

double ProbeNetPacket(const farview::NetConfig& config,
                      uint64_t stream_packets, uint64_t packets) {
  std::vector<double> ns;
  const uint64_t streams =
      packets / std::max<uint64_t>(stream_packets, 1) + 1;
  for (int rep = 0; rep < kReps; ++rep) {
    farview::sim::Engine engine;
    farview::NetworkStack net(&engine, config);
    uint64_t delivered = 0;
    const int64_t t0 = HostNowNs();
    for (uint64_t s = 0; s < streams; ++s) {
      farview::NetworkStack::StreamHandle tx = net.OpenStream(
          0, [&delivered](uint64_t, bool last, SimTime) {
            if (last) ++delivered;
          });
      tx->Push(stream_packets * config.packet_bytes);
      tx->Finish();
      engine.Run();
    }
    const int64_t t1 = HostNowNs();
    FV_CHECK(delivered == streams) << "net probe lost a stream";
    ns.push_back(static_cast<double>(t1 - t0) /
                 static_cast<double>(net.total_packets()));
  }
  return Median(ns);
}

double ProbeMemBurst(const farview::DramConfig& config, uint64_t stream_bursts,
                     uint64_t bursts) {
  std::vector<double> ns;
  const uint64_t per_stream = std::max<uint64_t>(stream_bursts, 1);
  const uint64_t streams = bursts / per_stream + 1;
  for (int rep = 0; rep < kReps; ++rep) {
    farview::sim::Engine engine;
    farview::MemoryController mem(&engine, config);
    uint64_t served = 0;
    const int64_t t0 = HostNowNs();
    for (uint64_t s = 0; s < streams; ++s) {
      mem.StreamRead(0, 0, per_stream * config.stripe_bytes,
                     [&served](uint64_t, bool, SimTime) { ++served; });
      engine.Run();
    }
    const int64_t t1 = HostNowNs();
    ns.push_back(static_cast<double>(t1 - t0) /
                 static_cast<double>(served));
  }
  return Median(ns);
}

}  // namespace fvbench
