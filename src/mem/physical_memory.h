#ifndef FARVIEW_MEM_PHYSICAL_MEMORY_H_
#define FARVIEW_MEM_PHYSICAL_MEMORY_H_

#include <cstdint>
#include <vector>

#include "common/demand_zero_memory.h"
#include "common/status.h"

namespace farview {

/// The functional backing store for Farview's on-board DRAM: a flat byte
/// array divided into fixed-size frames handed out by a free-list
/// allocator. Channel interleaving is a *timing* concern handled by the
/// MemoryController; functionally the frames are plain bytes. The array is
/// demand-zero (`DemandZeroMemory`): the host backs only the pages that
/// were written, so the modelled capacity is an address-space bound.
class PhysicalMemory {
 public:
  /// `capacity` is rounded down to a whole number of `frame_bytes` frames.
  /// Aborts unless `frame_bytes > 0` and `capacity` holds at least one
  /// frame.
  PhysicalMemory(uint64_t capacity, uint64_t frame_bytes);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  /// Allocates one frame; returns its index. Fails when memory is full.
  Result<uint64_t> AllocFrame();

  /// Returns a frame to the free list and scrubs it to zero. Fails on
  /// double free / bad index.
  Status FreeFrame(uint64_t frame);

  /// Raw access to physical bytes. `paddr` + `len` must be in range.
  Status ReadPhysical(uint64_t paddr, uint64_t len, uint8_t* out) const;
  Status WritePhysical(uint64_t paddr, uint64_t len, const uint8_t* data);

  /// Bounds-checked pointer to `len` contiguous physical bytes at `paddr`
  /// (the frame store is one flat array). Lets the MMU append page spans to
  /// a destination buffer without a pre-zeroing pass over it.
  Result<const uint8_t*> Span(uint64_t paddr, uint64_t len) const;

  /// Base physical address of a frame.
  uint64_t FrameAddress(uint64_t frame) const { return frame * frame_bytes_; }

  uint64_t capacity() const { return data_.size(); }
  uint64_t frame_bytes() const { return frame_bytes_; }
  uint64_t num_frames() const { return num_frames_; }
  uint64_t free_frames() const { return free_list_.size(); }
  uint64_t used_frames() const { return num_frames_ - free_list_.size(); }

 private:
  uint64_t frame_bytes_;
  uint64_t num_frames_;
  DemandZeroMemory data_;
  std::vector<uint64_t> free_list_;
  std::vector<bool> in_use_;
};

}  // namespace farview

#endif  // FARVIEW_MEM_PHYSICAL_MEMORY_H_
