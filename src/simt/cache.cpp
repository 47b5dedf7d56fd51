#include "simt/cache.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace bd::simt {

std::uint32_t SetAssocCache::sets_for(std::uint32_t capacity_bytes,
                                      std::uint32_t line_bytes,
                                      std::uint32_t ways) {
  BD_CHECK_MSG(line_bytes > 0 && std::has_single_bit(line_bytes),
               "line size must be a power of two");
  BD_CHECK_MSG(ways > 0, "associativity must be positive");
  const std::uint32_t lines = capacity_bytes / line_bytes;
  BD_CHECK_MSG(lines >= ways, "capacity too small for associativity");
  // Round sets down to a power of two for cheap indexing.
  return std::bit_floor(lines / ways);
}

SetAssocCache::SetAssocCache(std::uint32_t capacity_bytes,
                             std::uint32_t line_bytes, std::uint32_t ways)
    : line_bytes_(line_bytes),
      line_shift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes))),
      num_sets_(sets_for(capacity_bytes, line_bytes, ways)),
      ways_(ways) {
  tags_.assign(static_cast<std::size_t>(num_sets_) * ways_, 0);
  fill_.assign(num_sets_, 0);
}

void SetAssocCache::flush() { std::fill(fill_.begin(), fill_.end(), 0u); }

}  // namespace bd::simt
