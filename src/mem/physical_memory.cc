#include "mem/physical_memory.h"

#include <cstring>

#include "common/logging.h"

namespace farview {

namespace {

/// Validates the constructor arguments before anything is sized or mapped.
uint64_t CheckedFrameCount(uint64_t capacity, uint64_t frame_bytes) {
  FV_CHECK(frame_bytes > 0) << "frame_bytes must be positive";
  FV_CHECK(capacity / frame_bytes > 0) << "capacity smaller than one frame";
  return capacity / frame_bytes;
}

}  // namespace

PhysicalMemory::PhysicalMemory(uint64_t capacity, uint64_t frame_bytes)
    : frame_bytes_(frame_bytes),
      num_frames_(CheckedFrameCount(capacity, frame_bytes)),
      data_(num_frames_ * frame_bytes_) {
  in_use_.assign(num_frames_, false);
  free_list_.reserve(num_frames_);
  // Hand out low frames first: push in reverse so pop_back yields frame 0.
  for (uint64_t f = num_frames_; f > 0; --f) free_list_.push_back(f - 1);
}

Result<uint64_t> PhysicalMemory::AllocFrame() {
  if (free_list_.empty()) {
    return Status::OutOfMemory("no free frames");
  }
  const uint64_t frame = free_list_.back();
  free_list_.pop_back();
  in_use_[frame] = true;
  return frame;
}

Status PhysicalMemory::FreeFrame(uint64_t frame) {
  if (frame >= num_frames_) {
    return Status::InvalidArgument("frame index out of range");
  }
  if (!in_use_[frame]) {
    return Status::FailedPrecondition("frame already free");
  }
  in_use_[frame] = false;
  // Scrub on free: a subsequent allocation must not observe stale tenant
  // data (the MMU provides isolation between clients). The frame's whole
  // host pages go back to the host and read zero when next touched.
  data_.Zero(FrameAddress(frame), frame_bytes_);
  free_list_.push_back(frame);
  return Status::OK();
}

Status PhysicalMemory::ReadPhysical(uint64_t paddr, uint64_t len,
                                    uint8_t* out) const {
  if (paddr + len > data_.size() || paddr + len < paddr) {
    return Status::OutOfRange("physical read out of range");
  }
  std::memcpy(out, data_.data() + paddr, len);
  return Status::OK();
}

Result<const uint8_t*> PhysicalMemory::Span(uint64_t paddr,
                                            uint64_t len) const {
  if (paddr + len > data_.size() || paddr + len < paddr) {
    return Status::OutOfRange("physical read out of range");
  }
  return data_.data() + paddr;
}

Status PhysicalMemory::WritePhysical(uint64_t paddr, uint64_t len,
                                     const uint8_t* data) {
  if (paddr + len > data_.size() || paddr + len < paddr) {
    return Status::OutOfRange("physical write out of range");
  }
  std::memcpy(data_.data() + paddr, data, len);
  return Status::OK();
}

}  // namespace farview
