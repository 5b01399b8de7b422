#include "util/hash.hpp"

#include <array>
#include <cstring>

#include "util/bytes.hpp"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace treelab::util {

namespace {

/// The Castagnoli polynomial 0x1EDC6F41, bit-reflected.
constexpr std::uint32_t kCastagnoli = 0x82F63B78u;

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: t[0][b] is the CRC step of byte b, and t[k][b]
/// that of byte b followed by k zero bytes, so eight lookups fold eight
/// bytes at once.
constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (kCastagnoli & (0u - (c & 1u)));
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

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
  const Crc32cTables& t = kCrc32cTables;
  std::uint32_t c = 0xFFFFFFFFu;
  // Eight bytes per step: the CRC so far folds into the low four, and
  // byte j of the word is looked up in the table for 7 - j zero bytes.
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = load_le<std::uint64_t>(p) ^ c;
    c = t[7][w & 0xFFu] ^ t[6][(w >> 8) & 0xFFu] ^ t[5][(w >> 16) & 0xFFu] ^
        t[4][(w >> 24) & 0xFFu] ^ t[3][(w >> 32) & 0xFFu] ^
        t[2][(w >> 40) & 0xFFu] ^ t[1][(w >> 48) & 0xFFu] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n)
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (c >> 8);
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
