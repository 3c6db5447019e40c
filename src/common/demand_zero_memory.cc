#include "common/demand_zero_memory.h"

#if !defined(__linux__)
#error "DemandZeroMemory relies on Linux MADV_DONTNEED zero-fill semantics"
#endif

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace farview {

namespace {

uint64_t HostPageBytes() {
  static const uint64_t kPageBytes =
      static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return kPageBytes;
}

}  // namespace

DemandZeroMemory::DemandZeroMemory(uint64_t size)
    : data_(static_cast<uint8_t*>(
          ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0))),
      size_(size) {
  FV_CHECK(data_ != MAP_FAILED)
      << "cannot map " << size_ << " bytes: " << std::strerror(errno);
  // Page-granular on every host: with transparent huge pages forced on, a
  // one-byte write would otherwise take 2 MiB, and Zero would split huge
  // pages instead of releasing them. Advisory, so a failure is harmless.
  ::madvise(data_, size_, MADV_NOHUGEPAGE);
}

DemandZeroMemory::~DemandZeroMemory() { ::munmap(data_, size_); }

void DemandZeroMemory::Zero(uint64_t offset, uint64_t len) {
  FV_CHECK(offset <= size_ && len <= size_ - offset)
      << "Zero(" << offset << ", " << len << ") outside " << size_ << " bytes";
  // The mapping starts on a page boundary, so offsets align like addresses.
  const uint64_t page = HostPageBytes();
  const uint64_t end = offset + len;
  const uint64_t inner_begin = AlignUp(offset, page);
  const uint64_t inner_end = AlignDown(end, page);
  if (inner_begin >= inner_end) {
    std::memset(data_ + offset, 0, len);
    return;
  }
  std::memset(data_ + offset, 0, inner_begin - offset);
  FV_CHECK(::madvise(data_ + inner_begin, inner_end - inner_begin,
                     MADV_DONTNEED) == 0)
      << "madvise(MADV_DONTNEED): " << std::strerror(errno);
  std::memset(data_ + inner_end, 0, end - inner_end);
}

}  // namespace farview
