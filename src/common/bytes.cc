#include "common/bytes.h"

#include <cstdio>

namespace farview {

std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else if (bytes < 1024ull * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else if (bytes < 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

}  // namespace farview
