#pragma once
/// \file lru_cache.hpp
/// Naive true-LRU set-associative cache (test oracle): each set is a list
/// of lines ordered from least to most recently used. Same geometry rules
/// as simt::SetAssocCache (power-of-two line, sets rounded down to a power
/// of two), none of its storage tricks.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace bd::simt::oracle {

class LruCache {
 public:
  LruCache(std::uint32_t capacity_bytes, std::uint32_t line_bytes,
           std::uint32_t ways)
      : shift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes))),
        ways_(ways),
        sets_(std::bit_floor(capacity_bytes / line_bytes / ways)) {}

  /// True on hit; a miss installs the line, evicting the least recently
  /// used one when the set is full.
  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr >> shift_;
    std::vector<std::uint64_t>& set = sets_[line % sets_.size()];
    const auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
      ++hits_;
    } else {
      if (set.size() == ways_) set.erase(set.begin());
      ++misses_;
    }
    set.push_back(line);
    return hit;
  }

  void flush() {
    for (auto& set : sets_) set.clear();
  }
  void reset_stats() { hits_ = misses_ = 0; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint32_t shift_;
  std::uint32_t ways_;
  std::vector<std::vector<std::uint64_t>> sets_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace bd::simt::oracle
