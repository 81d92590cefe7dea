#include "par/crc32c.h"

#include <array>

namespace esamr::par {

namespace {

constexpr std::uint32_t poly = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ poly : c >> 1;
    t[i] = c;
  }
  return t;
}

constexpr auto table = make_table();

}  // namespace

std::uint32_t crc32c_update(std::uint32_t crc, const void* data, std::size_t nbytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < nbytes; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

std::uint32_t crc32c(const void* data, std::size_t nbytes) {
  return crc32c_update(0, data, nbytes);
}

}  // namespace esamr::par
