#pragma once
/// \file crc32_bytewise.hpp
/// Bytewise table-driven CRC-32 (test oracle): the IEEE 802.3 reflected
/// polynomial 0xEDB88320, one table lookup per byte — the textbook loop
/// that util::crc32's slicing-by-8 form must reproduce for every length,
/// alignment and seed.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace bd::util::oracle {

inline std::uint32_t crc32_bytewise(std::span<const std::byte> data,
                                    std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::byte b : data) {
    c = table[(c ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace bd::util::oracle
