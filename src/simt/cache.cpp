#include "simt/cache.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace bd::simt {

SetAssocCache::SetAssocCache(std::uint32_t capacity_bytes,
                             std::uint32_t line_bytes, std::uint32_t ways)
    : line_bytes_(line_bytes), ways_(ways) {
  BD_CHECK_MSG(line_bytes > 0 && std::has_single_bit(line_bytes),
               "line size must be a power of two");
  BD_CHECK_MSG(ways > 0, "associativity must be positive");
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
  const std::uint32_t lines = capacity_bytes / line_bytes;
  BD_CHECK_MSG(lines >= ways, "capacity too small for associativity");
  num_sets_ = lines / ways;
  // Round sets down to a power of two for cheap indexing.
  num_sets_ = std::bit_floor(num_sets_);
  BD_CHECK(num_sets_ >= 1);
  tags_.assign(static_cast<std::size_t>(num_sets_) * ways_, 0);
  fill_.assign(num_sets_, 0);
}

bool SetAssocCache::access(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const std::size_t set = static_cast<std::size_t>(line & (num_sets_ - 1));
  std::uint64_t* tags = &tags_[set * ways_];
  const std::uint32_t fill = fill_[set];

  // Scan from the most recent line, shifting each one back a slot: a hit
  // at w leaves the line in front of the w lines that were newer; a miss
  // shifts the whole set and drops the least recent line when full.
  std::uint64_t carry = line;
  for (std::uint32_t w = 0; w < fill; ++w) {
    const std::uint64_t held = tags[w];
    tags[w] = carry;
    if (held == line) {
      ++stats_.hits;
      return true;
    }
    carry = held;
  }
  if (fill < ways_) {
    tags[fill] = carry;
    fill_[set] = fill + 1;
  }
  ++stats_.misses;
  return false;
}

void SetAssocCache::flush() { std::fill(fill_.begin(), fill_.end(), 0u); }

}  // namespace bd::simt
