// util/hash — treelab's two hashes and what each one is for:
//
//  * crc32c checks bytes for corruption: the 24-byte frame header of
//    util/bytes.hpp (TLNF wire frames, TLRC journal records) and the TLJN
//    journal header carry it, zero-extended into their u64 sum field.
//  * fnv1a names content: LabelStore::lens_hash and chain_hash, the epoch
//    chain that followers, journals and deltas compare, so their values
//    must not change. The v3 delta container's trailing checksum is
//    FNV-1a too, until the next LabelStore version bump.
#pragma once

#include <cstddef>
#include <cstdint>

namespace treelab::util {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

[[nodiscard]] inline std::uint64_t fnv1a(const char* p, std::size_t n,
                                         std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= kFnvPrime;
  }
  return h;
}

/// CRC32C (the Castagnoli polynomial, as in iSCSI, RFC 3720) of n bytes:
/// the SSE4.2 crc32 instruction, 8 bytes at a time, where the CPU has it
/// (checked once), crc32c_portable otherwise.
[[nodiscard]] std::uint32_t crc32c(const char* p, std::size_t n) noexcept;

/// The table-driven CRC32C (slicing-by-8: eight table lookups per 8 bytes):
/// the only path on a CPU without SSE4.2.
[[nodiscard]] std::uint32_t crc32c_portable(const char* p,
                                            std::size_t n) noexcept;

}  // namespace treelab::util
