#include "par/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

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

namespace detail {

std::uint32_t crc32c_update_table(std::uint32_t crc, const void* data, std::size_t nbytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < nbytes; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

#if defined(__x86_64__)

// Compiled for SSE4.2 alone, so the rest of the library keeps the baseline
// ISA; crc32c_have_sse42() guards every call.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(std::uint32_t crc,
                                                                    const void* data,
                                                                    std::size_t nbytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~crc;
  for (; nbytes >= 8; p += 8, nbytes -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);  // unaligned little-endian load
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; nbytes > 0; ++p, --nbytes) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

bool crc32c_have_sse42() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return have;
}

#else

// No SSE4.2 on this architecture: crc32c_have_sse42() is false, and this
// entry point (reached only by a caller that ignores it) is the table walk.
std::uint32_t crc32c_update_sse42(std::uint32_t crc, const void* data, std::size_t nbytes) {
  return crc32c_update_table(crc, data, nbytes);
}

bool crc32c_have_sse42() { return false; }

#endif

}  // namespace detail

std::uint32_t crc32c_update(std::uint32_t crc, const void* data, std::size_t nbytes) {
  return detail::crc32c_have_sse42() ? detail::crc32c_update_sse42(crc, data, nbytes)
                                     : detail::crc32c_update_table(crc, data, nbytes);
}

std::uint32_t crc32c(const void* data, std::size_t nbytes) {
  return crc32c_update(0, data, nbytes);
}

}  // namespace esamr::par
