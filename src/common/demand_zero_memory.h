#ifndef FARVIEW_COMMON_DEMAND_ZERO_MEMORY_H_
#define FARVIEW_COMMON_DEMAND_ZERO_MEMORY_H_

#include <cstdint>

namespace farview {

/// A zero-initialized byte array that takes host pages only when written.
///
/// Backs simulated memories whose modelled capacity dwarfs what a workload
/// touches: the node's on-board DRAM (`PhysicalMemory`, 1 GiB by default)
/// and the cuckoo tables' BRAM images (`CuckooTable`, tens of MiB). The
/// bytes are private anonymous pages mapped `MAP_NORESERVE`: every byte
/// reads zero until written, and an unwritten page costs the host address
/// space only (DESIGN.md §8).
///
/// Owns its mapping; not copyable or movable.
class DemandZeroMemory {
 public:
  /// Maps `size` (> 0) zero bytes. Aborts when the host refuses the
  /// mapping, as a failed allocation would.
  explicit DemandZeroMemory(uint64_t size);

  ~DemandZeroMemory();

  DemandZeroMemory(const DemandZeroMemory&) = delete;
  DemandZeroMemory& operator=(const DemandZeroMemory&) = delete;

  /// Sets bytes [`offset`, `offset + len`) to zero. Whole host pages inside
  /// the range go back to the host (`MADV_DONTNEED`; a released private
  /// anonymous page reads zero on its next access); only the partial pages
  /// at the two edges are memset, so bytes outside the range are never
  /// touched. The range must lie inside the array.
  void Zero(uint64_t offset, uint64_t len);

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }

 private:
  uint8_t* data_;
  uint64_t size_;
};

}  // namespace farview

#endif  // FARVIEW_COMMON_DEMAND_ZERO_MEMORY_H_
