#include "util/hash.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace treelab::util {

namespace {

/// The Castagnoli polynomial 0x1EDC6F41, bit-reflected.
constexpr std::uint32_t kCastagnoli = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (kCastagnoli & (0u - (c & 1u)));
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

#if defined(__x86_64__)
/// One crc32 instruction per 8 bytes (a little-endian load feeds the low
/// byte first, as the byte-wise definition does), then one per tail byte.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const char* p, std::size_t n) noexcept {
  std::uint64_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n)
    c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(*p));
  return ~c32;
}

bool cpu_has_sse42() noexcept {
  __builtin_cpu_init();  // a static initializer may call crc32c first
  return __builtin_cpu_supports("sse4.2") != 0;
}
#endif

}  // namespace

std::uint32_t crc32c_portable(const char* p, std::size_t n) noexcept {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = kCrc32cTable[(c ^ static_cast<unsigned char>(p[i])) & 0xFFu] ^
        (c >> 8);
  return ~c;
}

std::uint32_t crc32c(const char* p, std::size_t n) noexcept {
#if defined(__x86_64__)
  static const bool hw = cpu_has_sse42();
  if (hw) return crc32c_sse42(p, n);
#endif
  return crc32c_portable(p, n);
}

}  // namespace treelab::util
