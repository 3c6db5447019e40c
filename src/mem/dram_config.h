#ifndef FARVIEW_MEM_DRAM_CONFIG_H_
#define FARVIEW_MEM_DRAM_CONFIG_H_

#include <cstdint>

#include "common/units.h"

namespace farview {

/// Configuration of Farview's on-board memory system, mirroring the paper's
/// prototype (Section 4.4 / 6.1): an Alveo u250 with up to four DRAM
/// channels, softcore controllers at 300 MHz with 64-byte interfaces
/// (18 GB/s theoretical per channel), of which the experiments use two.
struct DramConfig {
  /// Number of memory channels in use (paper: 2 of 4).
  int num_channels = 2;

  /// Usable capacity per channel. The physical board has 16 GiB per
  /// channel; simulations default to a smaller functional backing since
  /// experiments touch at most a few hundred MiB. The backing is
  /// demand-zero, so capacity bounds the address space, not host memory.
  uint64_t channel_capacity = 512ull * kMiB;

  /// Theoretical per-channel bandwidth (64 B × 300 MHz = 19.2e9; the paper
  /// rounds to 18 GB/s — we use the paper's number).
  double channel_rate_bytes_per_sec = GBpsToBytesPerSec(18.0);

  /// Fraction of theoretical bandwidth achieved by sequential streams
  /// (refresh, bank conflicts, bus turnaround). 0.85 × 18 GB/s ≈ 15.3 GB/s
  /// effective, consistent with the paper's measured 12 GB/s aggregate being
  /// network-bound rather than memory-bound.
  double sequential_efficiency = 0.85;

  /// Striping granule: virtual memory is laid out round-robin across
  /// channels in units of this size (Section 4.4, "allocating memory in a
  /// striping pattern across all available memory channels"). Also the
  /// burst size at which the controller arbitrates between regions.
  uint64_t stripe_bytes = 4 * kKiB;

  /// Width of the channel interface; every access occupies a multiple of
  /// this (Section 4.4: "the width of the interface ... is 64 bytes").
  uint32_t beat_bytes = 64;

  /// Extra service time charged to a non-sequential access (row activation
  /// + column access for a fresh row; DDR4 tRC is ~45 ns). Drives the
  /// smart-addressing crossover of Figure 7: per scattered access the
  /// channel is busy `random_access_overhead + beats`, so fetching 24 B per
  /// 512 B tuple costs ~22 ns/tuple across two channels — cheaper than
  /// streaming 512 B tuples through the 16 GB/s datapath (32 ns/tuple) but
  /// dearer than streaming 256 B tuples (16 ns/tuple).
  SimTime random_access_overhead = 40 * kNanosecond;

  /// One-time MMU/TLB translation and request-routing latency per request
  /// (the TLB holds all mappings, so there are no misses; Section 4.4).
  SimTime translation_latency = 40 * kNanosecond;

  /// Effective sequential rate per channel.
  double EffectiveChannelRate() const {
    return channel_rate_bytes_per_sec * sequential_efficiency;
  }

  /// Aggregate effective sequential rate across channels.
  double AggregateRate() const {
    return EffectiveChannelRate() * num_channels;
  }

  uint64_t TotalCapacity() const {
    return channel_capacity * static_cast<uint64_t>(num_channels);
  }
};

}  // namespace farview

#endif  // FARVIEW_MEM_DRAM_CONFIG_H_
