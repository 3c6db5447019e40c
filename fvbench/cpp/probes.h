#ifndef FVBENCH_PROBES_H_
#define FVBENCH_PROBES_H_

#include <cstdint>

#include "mem/dram_config.h"
#include "net/net_config.h"

namespace fvbench {

/// Isolated per-layer probes: each drives one standalone component through
/// its public constructor and API at a size taken from the workload, and
/// reports the median host cost per unit of work over a few repetitions.

/// A standalone `sim::Engine` holding `queue_depth` pending events, each of
/// which reschedules itself at a pseudo-random delay until `events` have
/// run. Returns host ns per executed event.
double ProbeSimEvent(uint64_t queue_depth, uint64_t events);

/// A standalone `NetworkStack` sending streams of `stream_packets`
/// full packets until `packets` have been delivered. Returns host ns per
/// packet (retransmissions included when `config` injects loss).
double ProbeNetPacket(const farview::NetConfig& config,
                      uint64_t stream_packets, uint64_t packets);

/// A standalone `MemoryController` serving `StreamRead`s of
/// `stream_bursts` stripe-sized bursts until `bursts` have completed.
/// Returns host ns per burst.
double ProbeMemBurst(const farview::DramConfig& config, uint64_t stream_bursts,
                     uint64_t bursts);

}  // namespace fvbench

#endif  // FVBENCH_PROBES_H_
