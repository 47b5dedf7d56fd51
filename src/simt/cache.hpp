#pragma once
/// \file cache.hpp
/// Set-associative LRU cache model used for both the per-SM L1 and the
/// shared L2. Addresses are cache-line granular (the coalescer splits raw
/// accesses into line touches before calling in here).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bd::simt {

/// Aggregate hit/miss counters for one cache instance.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  std::uint64_t accesses() const { return hits + misses; }
  double hit_rate() const {
    return accesses() ? static_cast<double>(hits) / accesses() : 0.0;
  }
  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    return *this;
  }
};

/// Classic set-associative cache with true-LRU replacement.
/// Capacity, line size and associativity are fixed at construction.
///
/// Way placement is unobservable: under true LRU a set's contents after any
/// access sequence are its `ways` most recently used distinct lines, no
/// matter which physical way holds which line, so the hit/miss sequence of
/// every access stream is fixed by the stream alone. The storage exploits
/// that: one flat tag array keeps each set's lines in recency order, most
/// recent first, so the order itself is the LRU state and no way carries a
/// timestamp or a valid bit (tests/test_cache.cpp compares it with a naive
/// reference).
class SetAssocCache {
 public:
  /// \param capacity_bytes total size; must be a multiple of line*ways.
  /// \param line_bytes line (transaction) size; must be a power of two.
  /// \param ways associativity; clamped so there is at least one set.
  SetAssocCache(std::uint32_t capacity_bytes, std::uint32_t line_bytes,
                std::uint32_t ways);

  /// Probe and fill: returns true on hit; on miss the line is installed
  /// with LRU eviction. Inline: the cache replay calls it per access.
  bool access(std::uint64_t addr) {
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

  /// Number of sets a cache of this geometry has: capacity / (line * ways),
  /// rounded down to a power of two. Checks the geometry as the
  /// constructor does.
  static std::uint32_t sets_for(std::uint32_t capacity_bytes,
                                std::uint32_t line_bytes, std::uint32_t ways);

  /// Invalidate all lines; statistics are kept.
  void flush();

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  std::uint32_t line_bytes() const { return line_bytes_; }
  std::uint32_t num_sets() const { return num_sets_; }
  std::uint32_t ways() const { return ways_; }

 private:
  std::uint32_t line_bytes_;
  std::uint32_t line_shift_;
  std::uint32_t num_sets_;
  std::uint32_t ways_;
  // Set s owns tags_[s * ways_, (s + 1) * ways_), most recently used
  // first; only the first fill_[s] entries hold lines.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> fill_;
  CacheStats stats_;
};

}  // namespace bd::simt
