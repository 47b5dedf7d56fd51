#include "oracles/coalescer.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace bd::simt::oracle {

CoalesceResult coalesce(const std::vector<LaneAccess>& accesses,
                        std::uint32_t line_bytes) {
  BD_CHECK_MSG(line_bytes > 0 && std::has_single_bit(line_bytes),
               "line size must be a power of two");
  const std::uint64_t mask = ~static_cast<std::uint64_t>(line_bytes - 1);

  CoalesceResult result;
  result.line_addrs.reserve(accesses.size());
  for (const LaneAccess& a : accesses) {
    result.bytes_requested += a.bytes;
    if (a.bytes == 0) continue;
    std::uint64_t first = a.addr & mask;
    std::uint64_t last = (a.addr + a.bytes - 1) & mask;
    for (std::uint64_t line = first; line <= last; line += line_bytes) {
      result.line_addrs.push_back(line);
    }
  }
  std::sort(result.line_addrs.begin(), result.line_addrs.end());
  result.line_addrs.erase(
      std::unique(result.line_addrs.begin(), result.line_addrs.end()),
      result.line_addrs.end());
  result.bytes_transferred =
      static_cast<std::uint64_t>(result.line_addrs.size()) * line_bytes;
  return result;
}

}  // namespace bd::simt::oracle
