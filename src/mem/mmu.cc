#include "mem/mmu.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace farview {

Mmu::Mmu(PhysicalMemory* phys) : phys_(phys), next_vaddr_(kPageSize) {
  FV_CHECK(phys_ != nullptr);
  FV_CHECK(phys_->frame_bytes() == kPageSize)
      << "physical memory must be framed in MMU pages";
}

Result<uint64_t> Mmu::Alloc(int client, uint64_t bytes) {
  if (bytes == 0) {
    return Status::InvalidArgument("cannot allocate zero bytes");
  }
  const uint64_t pages = CeilDiv(bytes, kPageSize);
  if (pages > phys_->free_frames()) {
    return Status::OutOfMemory("not enough free pages: need " +
                               std::to_string(pages) + ", have " +
                               std::to_string(phys_->free_frames()));
  }
  Allocation alloc;
  alloc.owner = client;
  alloc.bytes = bytes;
  alloc.pages = pages;
  alloc.frames.reserve(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    Result<uint64_t> frame = phys_->AllocFrame();
    FV_CHECK(frame.ok());  // count was checked above
    alloc.frames.push_back(frame.value());
  }
  const uint64_t base = next_vaddr_;
  next_vaddr_ += pages * kPageSize;
  for (uint64_t i = 0; i < pages; ++i) {
    page_table_.emplace(base + i * kPageSize, alloc.frames[i]);
  }
  allocated_bytes_ += pages * kPageSize;
  allocations_.emplace(base, std::move(alloc));
  return base;
}

Status Mmu::Free(int client, uint64_t vaddr) {
  auto it = allocations_.find(vaddr);
  if (it == allocations_.end()) {
    return Status::NotFound("no allocation at this address");
  }
  Allocation& alloc = it->second;
  if (client != kAnyClient && alloc.owner != client) {
    return Status::FailedPrecondition("client does not own this allocation");
  }
  for (uint64_t i = 0; i < alloc.pages; ++i) {
    FV_RETURN_IF_ERROR(phys_->FreeFrame(alloc.frames[i]));
    page_table_.erase(vaddr + i * kPageSize);
  }
  allocated_bytes_ -= alloc.pages * kPageSize;
  allocations_.erase(it);
  return Status::OK();
}

Status Mmu::Share(int client, uint64_t vaddr) {
  auto it = allocations_.find(vaddr);
  if (it == allocations_.end()) {
    return Status::NotFound("no allocation at this address");
  }
  if (client != kAnyClient && it->second.owner != client) {
    return Status::FailedPrecondition("only the owner can share");
  }
  it->second.shared = true;
  return Status::OK();
}

const Mmu::Allocation* Mmu::FindAllocation(uint64_t vaddr) const {
  auto it = allocations_.upper_bound(vaddr);
  if (it == allocations_.begin()) return nullptr;
  --it;
  const Allocation& alloc = it->second;
  if (vaddr >= it->first + alloc.pages * kPageSize) return nullptr;
  return &alloc;
}

Result<uint64_t> Mmu::Translate(int client, uint64_t vaddr) const {
  const Allocation* alloc = FindAllocation(vaddr);
  if (alloc == nullptr) {
    return Status::NotFound("unmapped virtual address");
  }
  if (!MayAccess(client, *alloc)) {
    return Status::FailedPrecondition("access denied: not owner of page");
  }
  const uint64_t page_base = AlignDown(vaddr, kPageSize);
  auto it = page_table_.find(page_base);
  FV_CHECK(it != page_table_.end());
  return phys_->FrameAddress(it->second) + (vaddr - page_base);
}

Status Mmu::Read(int client, uint64_t vaddr, uint64_t len,
                 uint8_t* out) const {
  uint64_t done = 0;
  while (done < len) {
    FV_ASSIGN_OR_RETURN(const uint64_t paddr,
                        Translate(client, vaddr + done));
    const uint64_t page_remaining =
        kPageSize - ((vaddr + done) % kPageSize);
    const uint64_t n = std::min(len - done, page_remaining);
    FV_RETURN_IF_ERROR(phys_->ReadPhysical(paddr, n, out + done));
    done += n;
  }
  return Status::OK();
}

Status Mmu::CheckAccess(int client, uint64_t vaddr, uint64_t len) const {
  uint64_t done = 0;
  while (done < len) {
    FV_RETURN_IF_ERROR(Translate(client, vaddr + done).status());
    done += std::min(len - done, kPageSize - ((vaddr + done) % kPageSize));
  }
  return Status::OK();
}

Result<std::span<const uint8_t>> Mmu::PageSpan(int client, uint64_t vaddr,
                                               uint64_t max_len) const {
  FV_ASSIGN_OR_RETURN(const uint64_t paddr, Translate(client, vaddr));
  const uint64_t n = std::min(max_len, kPageSize - (vaddr % kPageSize));
  FV_ASSIGN_OR_RETURN(const uint8_t* p, phys_->Span(paddr, n));
  return std::span<const uint8_t>(p, n);
}

Status Mmu::ReadInto(int client, uint64_t vaddr, uint64_t len,
                     ByteBuffer* out) const {
  // ByteBuffer growth default-initializes (PooledByteAllocator), so this
  // resize reserves space without a zeroing pass; memcpy then writes each
  // page span once. Plain cached stores on purpose: the payload is read
  // back soon after (clients read their read results). Writing it
  // around the caches only to fetch it back from DRAM more than doubled the
  // cost: one 1 MiB ReadInto plus a read of the copy (micro_primitives
  // BM_MmuReadInto) took 220-300 us with non-temporal stores and 60-130 us
  // with memcpy across runs on a 4-vCPU x86 VM with 8 MiB L2 and 300 MiB L3
  // (DESIGN.md §8).
  const std::size_t old_size = out->size();
  out->resize(old_size + len);
  uint8_t* dst = out->data() + old_size;
  uint64_t done = 0;
  while (done < len) {
    FV_ASSIGN_OR_RETURN(const uint64_t paddr,
                        Translate(client, vaddr + done));
    const uint64_t page_remaining =
        kPageSize - ((vaddr + done) % kPageSize);
    const uint64_t n = std::min(len - done, page_remaining);
    FV_ASSIGN_OR_RETURN(const uint8_t* src, phys_->Span(paddr, n));
    std::memcpy(dst + done, src, n);
    done += n;
  }
  return Status::OK();
}

Status Mmu::Write(int client, uint64_t vaddr, uint64_t len,
                  const uint8_t* data) {
  uint64_t done = 0;
  while (done < len) {
    FV_ASSIGN_OR_RETURN(const uint64_t paddr,
                        Translate(client, vaddr + done));
    const uint64_t page_remaining =
        kPageSize - ((vaddr + done) % kPageSize);
    const uint64_t n = std::min(len - done, page_remaining);
    FV_RETURN_IF_ERROR(phys_->WritePhysical(paddr, n, data + done));
    done += n;
  }
  return Status::OK();
}

}  // namespace farview
