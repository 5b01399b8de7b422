#include "core/label_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "bits/bitio.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"
#include "util/io_error.hpp"

namespace treelab::core {

namespace {

template <typename T>
void put(std::ostream& os, T x) {
  // Little-endian fixed-width integer.
  for (std::size_t i = 0; i < sizeof(T); ++i)
    os.put(static_cast<char>((x >> (8 * i)) & 0xff));
}

template <typename T>
T get(std::istream& is) {
  T x = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const int c = is.get();
    if (c < 0) throw std::runtime_error("LabelStore: truncated input");
    x |= static_cast<T>(static_cast<unsigned char>(c)) << (8 * i);
  }
  return x;
}

void put_string(std::ostream& os, std::string_view s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string get_string(std::istream& is, std::uint32_t max_len) {
  const auto len = get<std::uint32_t>(is);
  if (len > max_len) throw std::runtime_error("LabelStore: oversized string");
  std::string s(len, '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  if (!is) throw std::runtime_error("LabelStore: truncated string");
  return s;
}

/// Serialized header size through the count field — writer and reader must
/// agree on it (the mappable container's word-buffer alignment hangs off
/// this number).
std::size_t header_bytes(std::string_view scheme, std::string_view params) {
  return 4 + 4 + 4 + scheme.size() + 4 + params.size() + 8;
}

void write_header(std::ostream& os, std::string_view scheme,
                  std::string_view params, std::uint64_t count,
                  const char* magic, std::uint32_t version) {
  os.write(magic, 4);
  put<std::uint32_t>(os, version);
  put_string(os, scheme);
  put_string(os, params);
  put<std::uint64_t>(os, count);
}

/// One label payload: `bits` bits out of a word array whose bit 0 is the
/// label's first bit (true for standalone BitVecs and for arena views —
/// both are word-aligned, with zero bits beyond the end). Bytes are the
/// little-endian word bytes, truncated to ceil(bits/8).
void put_label(std::ostream& os, std::string& buf, const std::uint64_t* words,
               std::uint64_t bits) {
  put<std::uint64_t>(os, bits);
  const std::uint64_t nbytes = (bits + 7) / 8;
  buf.resize(static_cast<std::size_t>(nbytes));
  for (std::uint64_t j = 0; j < nbytes; ++j)
    buf[static_cast<std::size_t>(j)] =
        static_cast<char>((words[j >> 3] >> (8 * (j & 7))) & 0xff);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

/// Appends `bitlen` bits decoded from little-endian `bytes` into a writer,
/// a word at a time.
void append_label_bits(bits::BitWriter& w, const std::string& bytes,
                       std::uint64_t bitlen) {
  std::uint64_t b = 0;
  for (; b + 64 <= bitlen; b += 64) {
    std::uint64_t word = 0;
    for (int j = 7; j >= 0; --j)
      word = (word << 8) |
             static_cast<unsigned char>(bytes[static_cast<std::size_t>(b / 8) +
                                              static_cast<std::size_t>(j)]);
    w.put_bits(word, 64);
  }
  for (; b < bitlen; b += 8) {
    const int take = static_cast<int>(std::min<std::uint64_t>(8, bitlen - b));
    w.put_bits(
        static_cast<unsigned char>(bytes[static_cast<std::size_t>(b / 8)]),
        take);
  }
}

/// Streams one label's `nbytes`-byte payload (word-multiple chunks) into
/// `w`, appending exactly `bitlen` bits. Chunked so that a corrupt length
/// field costs at most one bounded buffer before the truncation is
/// detected — never a length-directory-sized allocation.
constexpr std::size_t kPayloadChunkBytes = std::size_t{1} << 20;

void read_label_payload(std::istream& is, bits::BitWriter& w,
                        std::uint64_t nbytes, std::uint64_t bitlen,
                        std::string& buf) {
  std::uint64_t bits_left = bitlen;
  while (nbytes > 0) {
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(nbytes, kPayloadChunkBytes));
    buf.resize(take);
    is.read(buf.data(), static_cast<std::streamsize>(take));
    if (!is) throw std::runtime_error("LabelStore: truncated label");
    const std::uint64_t chunk_bits =
        std::min<std::uint64_t>(bits_left, std::uint64_t{take} * 8);
    append_label_bits(w, buf, chunk_bits);
    bits_left -= chunk_bits;
    nbytes -= take;
  }
}

/// Length field of a version-1 label, bounds-checked.
std::uint64_t get_label_bitlen(std::istream& is) {
  const auto bitlen = get<std::uint64_t>(is);
  if (bitlen > (std::uint64_t{1} << 32))
    throw std::runtime_error("LabelStore: implausible label length");
  return bitlen;
}

struct Header {
  std::string scheme;
  std::string params;
  std::uint64_t count = 0;
  std::uint32_t version = 0;
  std::size_t bytes = 0;  ///< serialized header size, through the count field
};

/// Bounds a label count against the stream's remaining bytes when the
/// stream is seekable (every label costs >= 8 bytes in either container
/// version: a length prefix in v1, a directory entry in v2). A corrupt
/// count field must fail loudly up front, not via count-sized allocations.
void check_count_plausible(std::istream& is, std::uint64_t count) {
  if (count == 0) return;
  const auto pos = is.tellg();
  if (pos < 0) return;  // non-seekable: streamed reads detect truncation
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.clear();
  is.seekg(pos);
  if (end < 0) return;
  const std::uint64_t remaining =
      end >= pos ? static_cast<std::uint64_t>(end - pos) : 0;
  if (count > remaining / 8)
    throw std::runtime_error("LabelStore: label count exceeds stream size");
}

Header read_and_check_header(std::istream& is, const char* magic,
                             std::uint32_t max_version) {
  char got[4];
  is.read(got, sizeof(got));
  if (!is || std::memcmp(got, magic, 4) != 0)
    throw std::runtime_error("LabelStore: bad magic");
  Header h;
  h.version = get<std::uint32_t>(is);
  if (h.version < 1 || h.version > max_version)
    throw std::runtime_error("LabelStore: unsupported version");
  h.scheme = get_string(is, 256);
  h.params = get_string(is, 4096);
  h.count = get<std::uint64_t>(is);
  if (h.count > (std::uint64_t{1} << 32))
    throw std::runtime_error("LabelStore: implausible label count");
  h.bytes = header_bytes(h.scheme, h.params);
  return h;
}

// --- version-2 (mappable) payload ------------------------------------------

/// Directory entries of a version-2 container, with the per-label bound of
/// get_label_bytes applied — and, mirroring MappedArena::map's defence, a
/// guard on the *accumulated* word count: the per-entry bound alone still
/// lets an adversarial directory overflow a size_t accumulator downstream
/// (32-bit hosts; or future arithmetic on the total).
std::vector<std::size_t> read_lens(std::istream& is, std::uint64_t count) {
  std::vector<std::size_t> lens(static_cast<std::size_t>(count));
  std::uint64_t total_words = 0;
  for (auto& l : lens) {
    const auto bitlen = get<std::uint64_t>(is);
    if (bitlen > (std::uint64_t{1} << 32))
      throw std::runtime_error("LabelStore: implausible label length");
    const std::uint64_t nw = bitlen / 64 + (bitlen % 64 != 0 ? 1 : 0);
    if (total_words > std::numeric_limits<std::uint64_t>::max() - nw ||
        total_words + nw >
            std::numeric_limits<std::size_t>::max() / sizeof(std::uint64_t))
      throw std::runtime_error("LabelStore: length directory overflows");
    total_words += nw;
    l = static_cast<std::size_t>(bitlen);
  }
  return lens;
}

/// Bytes of zero padding between the directory and the word buffer, sized so
/// the buffer starts at an 8-byte-aligned file offset.
std::size_t pad_after_directory(std::size_t header_bytes, std::uint64_t count) {
  const std::size_t before =
      header_bytes + static_cast<std::size_t>(count) * 8;
  return (8 - before % 8) % 8;
}

void skip_padding(std::istream& is, std::size_t pad) {
  for (std::size_t i = 0; i < pad; ++i)
    if (is.get() < 0) throw std::runtime_error("LabelStore: truncated padding");
}

}  // namespace

void LabelStore::save(std::ostream& os, std::string_view scheme,
                      std::span<const bits::BitVec> labels,
                      std::string_view params) {
  write_header(os, scheme, params, labels.size(), kMagic, kVersion);
  std::string buf;
  for (const auto& l : labels) put_label(os, buf, l.words().data(), l.size());
}

void LabelStore::save(std::ostream& os, std::string_view scheme,
                      const bits::LabelArena& labels, std::string_view params) {
  write_header(os, scheme, params, labels.size(), kMagic, kVersion);
  std::string buf;
  for (std::size_t i = 0; i < labels.size(); ++i)
    put_label(os, buf, labels.label_words(i), labels.label_bits(i));
}

void LabelStore::save_mappable(std::ostream& os, std::string_view scheme,
                               const bits::LabelArena& labels,
                               std::string_view params) {
  write_header(os, scheme, params, labels.size(), kMagic, kVersionMappable);
  for (std::size_t i = 0; i < labels.size(); ++i)
    put<std::uint64_t>(os, labels.label_bits(i));
  const std::size_t pad =
      pad_after_directory(header_bytes(scheme, params), labels.size());
  for (std::size_t i = 0; i < pad; ++i) os.put('\0');
  std::string buf;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::uint64_t* words = labels.label_words(i);
    const std::size_t nw = (labels.label_bits(i) + 63) / 64;
    buf.resize(nw * 8);
    for (std::size_t j = 0; j < buf.size(); ++j)
      buf[j] = static_cast<char>((words[j >> 3] >> (8 * (j & 7))) & 0xff);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
}

LabelStore::Loaded LabelStore::load(std::istream& is) {
  const Header h = read_and_check_header(is, kMagic, kVersionMappable);
  check_count_plausible(is, h.count);
  Loaded out;
  out.scheme = h.scheme;
  out.params = h.params;
  out.labels.reserve(static_cast<std::size_t>(h.count));
  std::string bytes;
  if (h.version == kVersion) {
    for (std::uint64_t i = 0; i < h.count; ++i) {
      const std::uint64_t bitlen = get_label_bitlen(is);
      bits::BitWriter w;
      read_label_payload(is, w, (bitlen + 7) / 8, bitlen, bytes);
      out.labels.push_back(w.take());
    }
  } else {
    const std::vector<std::size_t> lens = read_lens(is, h.count);
    skip_padding(is, pad_after_directory(h.bytes, h.count));
    for (const std::size_t bitlen : lens) {
      bits::BitWriter w;
      read_label_payload(is, w, ((std::uint64_t{bitlen} + 63) / 64) * 8,
                         bitlen, bytes);
      out.labels.push_back(w.take());
    }
  }
  return out;
}

LabelStore::LoadedArena LabelStore::load_arena(std::istream& is) {
  const Header h = read_and_check_header(is, kMagic, kVersionMappable);
  check_count_plausible(is, h.count);
  LoadedArena out;
  out.scheme = h.scheme;
  out.params = h.params;
  // Single-threaded build visits labels strictly in order, matching the
  // stream layout.
  std::string bytes;
  if (h.version == kVersion) {
    out.labels = bits::LabelArena::build(
        static_cast<std::size_t>(h.count), 1,
        [&](std::size_t, bits::BitWriter& w) {
          const std::uint64_t bitlen = get_label_bitlen(is);
          read_label_payload(is, w, (bitlen + 7) / 8, bitlen, bytes);
        });
  } else {
    const std::vector<std::size_t> lens = read_lens(is, h.count);
    skip_padding(is, pad_after_directory(h.bytes, h.count));
    out.labels = bits::LabelArena::build(
        static_cast<std::size_t>(h.count), 1,
        [&](std::size_t i, bits::BitWriter& w) {
          read_label_payload(is, w, ((std::uint64_t{lens[i]} + 63) / 64) * 8,
                             lens[i], bytes);
        });
  }
  return out;
}

// --- version-3 (delta) container -------------------------------------------

namespace {

using util::fnv1a;
using util::kFnvOffset;

/// FNV-1a over x's eight little-endian bytes, continuing from `h`.
std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t x) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(x >> (8 * i));
  return fnv1a(b, 8, h);
}

/// In-memory little-endian reader over a fully buffered delta, with
/// truncation-checked primitives. Buffering the whole container first keeps
/// the trailing-checksum check trivial and makes every allocation below
/// provably bounded by the buffer size.
struct DeltaCursor {
  const unsigned char* p;
  std::size_t n;
  std::size_t off = 0;

  [[nodiscard]] std::size_t remaining() const noexcept { return n - off; }
  void need(std::size_t k) const {
    if (k > remaining())
      throw std::runtime_error("LabelStore: truncated delta");
  }
  std::uint8_t get_u8() {
    need(1);
    return p[off++];
  }
  template <typename T>
  T get_le() {
    need(sizeof(T));
    T x = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      x |= static_cast<T>(p[off + i]) << (8 * i);
    off += sizeof(T);
    return x;
  }
  std::string get_string(std::uint32_t max_len) {
    const auto len = get_le<std::uint32_t>();
    if (len > max_len)
      throw std::runtime_error("LabelStore: oversized string");
    need(len);
    std::string s(reinterpret_cast<const char*>(p + off), len);
    off += len;
    return s;
  }
};

/// Structural validation shared by load_delta (wire) and apply_delta
/// (program-built deltas take the same scrutiny). Throws std::runtime_error
/// on any inconsistency; performs no allocation proportional to the counts.
void validate_delta(const LabelDelta& d) {
  const auto bad = [](const char* what) {
    throw std::runtime_error(std::string("LabelStore: invalid delta: ") +
                             what);
  };
  if (d.base_count > (std::uint64_t{1} << 32) ||
      d.new_count > (std::uint64_t{1} << 32))
    bad("implausible label count");
  std::uint64_t prev_end = 0;
  std::uint64_t total_dropped = 0;
  bool first_run = true;
  for (const IdRun& r : d.dropped) {
    if (r.count == 0) bad("empty dropped run");
    if (!first_run && r.first < prev_end)
      bad("unsorted or overlapping dropped runs");
    if (r.first > d.base_count || r.count > d.base_count - r.first)
      bad("dropped run out of range");
    prev_end = r.first + r.count;
    total_dropped += r.count;
    first_run = false;
  }
  const std::uint64_t survivors = d.base_count - total_dropped;
  if (survivors > d.new_count) bad("survivors exceed the new label count");
  std::uint64_t prev = 0;
  bool first_id = true;
  for (const std::uint64_t id : d.dirty) {
    if (!first_id && id <= prev) bad("unsorted dirty ids");
    if (id >= d.new_count) bad("dirty id out of range");
    prev = id;
    first_id = false;
  }
  if (d.payload.size() != d.dirty.size())
    bad("payload/dirty size mismatch");
  // Every id past the survivor range has no base source: it must carry a
  // payload.
  std::uint64_t expect = survivors;
  for (auto it = std::lower_bound(d.dirty.begin(), d.dirty.end(), survivors);
       it != d.dirty.end(); ++it, ++expect)
    if (*it != expect) bad("appended ids not covered by dirty payload");
  if (expect != d.new_count) bad("appended ids not covered by dirty payload");
}

}  // namespace

std::vector<IdRun> id_runs(const std::vector<std::uint64_t>& sorted_ids) {
  std::vector<IdRun> runs;
  for (const std::uint64_t id : sorted_ids) {
    if (!runs.empty() && runs.back().first + runs.back().count == id)
      ++runs.back().count;
    else
      runs.push_back({id, 1});
  }
  return runs;
}

std::uint64_t LabelStore::lens_hash(const bits::LabelArena& a) {
  std::uint64_t h = fnv1a_u64(kFnvOffset, a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    h = fnv1a_u64(h, a.label_bits(i));
  return h;
}

std::uint64_t LabelStore::lens_hash(const bits::MappedArena& a) {
  std::uint64_t h = fnv1a_u64(kFnvOffset, a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    h = fnv1a_u64(h, a.label_bits(i));
  return h;
}

std::uint64_t LabelStore::chain_hash(std::uint64_t base_chain,
                                     const LabelDelta& d) {
  std::uint64_t h = fnv1a_u64(kFnvOffset, base_chain);
  h = fnv1a_u64(h, d.base_count);
  h = fnv1a_u64(h, d.new_count);
  for (const IdRun& r : d.dropped) {
    h = fnv1a_u64(h, r.first);
    h = fnv1a_u64(h, r.count);
  }
  for (const std::uint64_t id : d.dirty) h = fnv1a_u64(h, id);
  for (std::size_t i = 0; i < d.payload.size(); ++i) {
    const std::size_t bits = d.payload.label_bits(i);
    h = fnv1a_u64(h, bits);
    const std::uint64_t* w = d.payload.label_words(i);
    for (std::size_t j = 0; j < (bits + 63) / 64; ++j) h = fnv1a_u64(h, w[j]);
  }
  return h;
}

void LabelStore::save_delta(std::ostream& os, const LabelDelta& d) {
  try {
    validate_delta(d);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument(e.what());  // caller bug, not wire corruption
  }
  // Mirror load_delta's string caps: a producer must not be able to write
  // a container its own loader refuses.
  if (d.scheme.size() > 256 || d.params.size() > 4096)
    throw std::invalid_argument(
        "LabelStore: scheme/params too long for the delta container");
  std::string out;
  const auto put8 = [&](std::uint8_t x) { out.push_back(static_cast<char>(x)); };
  const auto put32 = [&](std::uint32_t x) {
    for (int i = 0; i < 4; ++i) put8(static_cast<std::uint8_t>(x >> (8 * i)));
  };
  const auto put64 = [&](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) put8(static_cast<std::uint8_t>(x >> (8 * i)));
  };
  const auto puts = [&](std::string_view s) {
    put32(static_cast<std::uint32_t>(s.size()));
    out.append(s);
  };
  out.append(kMagic, 4);
  put32(kVersionDelta);
  puts(d.scheme);
  puts(d.params);
  put64(d.base_count);
  put64(d.new_count);
  put64(d.base_lens_hash);
  put64(d.base_chain);
  put64(d.new_chain);
  put64(d.dropped.size());
  for (const IdRun& r : d.dropped) {
    put64(r.first);
    put64(r.count);
  }
  const std::vector<IdRun> dirty_runs = id_runs(d.dirty);
  put64(dirty_runs.size());
  for (const IdRun& r : dirty_runs) {
    put64(r.first);
    put64(r.count);
  }
  for (std::size_t i = 0; i < d.payload.size(); ++i)
    put64(d.payload.label_bits(i));
  while (out.size() % 8 != 0) put8(0);  // payload starts 8-byte aligned
  for (std::size_t i = 0; i < d.payload.size(); ++i) {
    const std::uint64_t* words = d.payload.label_words(i);
    const std::size_t nw = (d.payload.label_bits(i) + 63) / 64;
    for (std::size_t w = 0; w < nw; ++w) put64(words[w]);
  }
  put64(d.edits.size());
  for (const LabelEdit& e : d.edits) {
    put8(static_cast<std::uint8_t>(e.kind));
    put64(e.a);
    put64(e.b);
  }
  put64(fnv1a(out.data(), out.size()));
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

LabelDelta LabelStore::load_delta(std::istream& is) {
  // Buffer the whole container: the checksum covers everything before the
  // trailing hash, and every count below is then verifiably bounded by the
  // buffer size before anything is allocated.
  std::string buf;
  {
    char chunk[1 << 16];
    while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0)
      buf.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  DeltaCursor c{reinterpret_cast<const unsigned char*>(buf.data()),
                buf.size()};
  c.need(4);
  if (std::memcmp(buf.data(), kMagic, 4) != 0)
    throw std::runtime_error("LabelStore: bad magic");
  c.off += 4;
  const auto version = c.get_le<std::uint32_t>();
  if (version != kVersionDelta)
    throw std::runtime_error("LabelStore: unsupported version");
  LabelDelta d;
  d.scheme = c.get_string(256);
  d.params = c.get_string(4096);
  d.base_count = c.get_le<std::uint64_t>();
  d.new_count = c.get_le<std::uint64_t>();
  if (d.base_count > (std::uint64_t{1} << 32) ||
      d.new_count > (std::uint64_t{1} << 32))
    throw std::runtime_error("LabelStore: implausible label count");
  d.base_lens_hash = c.get_le<std::uint64_t>();
  d.base_chain = c.get_le<std::uint64_t>();
  d.new_chain = c.get_le<std::uint64_t>();

  const auto n_drop = c.get_le<std::uint64_t>();
  if (n_drop > c.remaining() / 16)
    throw std::runtime_error("LabelStore: dropped runs exceed stream size");
  d.dropped.reserve(static_cast<std::size_t>(n_drop));
  for (std::uint64_t i = 0; i < n_drop; ++i) {
    IdRun r;
    r.first = c.get_le<std::uint64_t>();
    r.count = c.get_le<std::uint64_t>();
    d.dropped.push_back(r);
  }

  const auto n_dirty_runs = c.get_le<std::uint64_t>();
  if (n_dirty_runs > c.remaining() / 16)
    throw std::runtime_error("LabelStore: dirty runs exceed stream size");
  std::vector<IdRun> dirty_runs;
  dirty_runs.reserve(static_cast<std::size_t>(n_dirty_runs));
  std::uint64_t dirty_total = 0;
  for (std::uint64_t i = 0; i < n_dirty_runs; ++i) {
    IdRun r;
    r.first = c.get_le<std::uint64_t>();
    r.count = c.get_le<std::uint64_t>();
    if (r.count == 0)
      throw std::runtime_error("LabelStore: invalid delta: empty dirty run");
    if (dirty_total >
        std::numeric_limits<std::uint64_t>::max() - r.count)
      throw std::runtime_error("LabelStore: dirty run count overflows");
    dirty_total += r.count;
    dirty_runs.push_back(r);
  }
  // Every dirty id owns an 8-byte length entry still ahead in the stream —
  // the bound that keeps run expansion allocation-safe on corrupt counts.
  if (dirty_total > c.remaining() / 8)
    throw std::runtime_error("LabelStore: dirty ids exceed stream size");
  d.dirty.reserve(static_cast<std::size_t>(dirty_total));
  for (const IdRun& r : dirty_runs) {
    if (r.first > d.new_count || r.count > d.new_count - r.first)
      throw std::runtime_error(
          "LabelStore: invalid delta: dirty run out of range");
    for (std::uint64_t k = 0; k < r.count; ++k)
      d.dirty.push_back(r.first + k);
  }

  std::vector<std::size_t> lens(static_cast<std::size_t>(dirty_total));
  std::uint64_t total_words = 0;
  for (auto& l : lens) {
    const auto bitlen = c.get_le<std::uint64_t>();
    if (bitlen > (std::uint64_t{1} << 32))
      throw std::runtime_error("LabelStore: implausible label length");
    const std::uint64_t nw = bitlen / 64 + (bitlen % 64 != 0 ? 1 : 0);
    if (total_words > std::numeric_limits<std::uint64_t>::max() - nw ||
        total_words + nw >
            std::numeric_limits<std::size_t>::max() / sizeof(std::uint64_t))
      throw std::runtime_error("LabelStore: length directory overflows");
    total_words += nw;
    l = static_cast<std::size_t>(bitlen);
  }
  while (c.off % 8 != 0) {
    if (c.get_u8() != 0)
      throw std::runtime_error("LabelStore: invalid delta: nonzero padding");
  }
  if (total_words > c.remaining() / 8)
    throw std::runtime_error("LabelStore: truncated delta payload");
  d.payload = bits::LabelArena::build(
      lens.size(), 1, [&](std::size_t i, bits::BitWriter& w) {
        std::size_t left = lens[i];
        while (left > 0) {
          const auto word = c.get_le<std::uint64_t>();
          const int take = static_cast<int>(std::min<std::size_t>(64, left));
          w.put_bits(word, take);
          left -= static_cast<std::size_t>(take);
        }
      });

  const auto n_edits = c.get_le<std::uint64_t>();
  if (n_edits > c.remaining() / 17)
    throw std::runtime_error("LabelStore: edit log exceeds stream size");
  d.edits.reserve(static_cast<std::size_t>(n_edits));
  for (std::uint64_t i = 0; i < n_edits; ++i) {
    const std::uint8_t kind = c.get_u8();
    if (kind > static_cast<std::uint8_t>(LabelEdit::Kind::kCompact))
      throw std::runtime_error("LabelStore: invalid delta: unknown edit kind");
    LabelEdit e;
    e.kind = static_cast<LabelEdit::Kind>(kind);
    e.a = c.get_le<std::uint64_t>();
    e.b = c.get_le<std::uint64_t>();
    d.edits.push_back(e);
  }

  const std::size_t hashed = c.off;
  const auto want = c.get_le<std::uint64_t>();
  if (c.off != c.n)
    throw std::runtime_error("LabelStore: trailing bytes after delta");
  if (fnv1a(buf.data(), hashed) != want)
    throw std::runtime_error("LabelStore: delta checksum mismatch");
  validate_delta(d);
  return d;
}

bits::LabelArena LabelStore::apply_delta(const bits::MappedArena& base,
                                         const LabelDelta& d) {
  validate_delta(d);
  if (base.size() != d.base_count)
    throw std::runtime_error("LabelStore: delta base count mismatch");
  if (lens_hash(base) != d.base_lens_hash)
    throw std::runtime_error("LabelStore: delta does not match base labeling");
  // Source of each new label: the delta payload for dirty ids, the
  // (drop-shifted) base label otherwise. Survivors occupy the first
  // base_count - dropped new ids in base order; validate_delta guarantees
  // everything past that range is dirty.
  const auto n = static_cast<std::size_t>(d.new_count);
  std::vector<std::int64_t> src(n);
  {
    std::size_t next_drop = 0;
    std::uint64_t new_id = 0;
    for (std::uint64_t b = 0; b < d.base_count && new_id < d.new_count; ++b) {
      while (next_drop < d.dropped.size() &&
             b >= d.dropped[next_drop].first + d.dropped[next_drop].count)
        ++next_drop;
      if (next_drop < d.dropped.size() &&
          b >= d.dropped[next_drop].first)
        continue;  // dropped base id
      src[static_cast<std::size_t>(new_id++)] = static_cast<std::int64_t>(b);
    }
    for (std::size_t t = 0; t < d.dirty.size(); ++t)
      src[static_cast<std::size_t>(d.dirty[t])] =
          ~static_cast<std::int64_t>(t);
  }
  return bits::LabelArena::composed(n, [&](std::size_t i) {
    const std::int64_t s = src[i];
    if (s >= 0) {
      const auto b = static_cast<std::size_t>(s);
      return bits::LabelArena::LabelRef{base.label_words(b),
                                        base.label_bits(b)};
    }
    const auto t = static_cast<std::size_t>(~s);
    return bits::LabelArena::LabelRef{d.payload.label_words(t),
                                      d.payload.label_bits(t)};
  });
}

LabelStore::MappedLoaded LabelStore::open_mapped(const std::string& path) {
  if (auto fp = util::failpoint::check("label_store.open_mapped"))
    util::failpoint::raise(*fp, "label_store.open_mapped", path);
  {
    std::ifstream is(path, std::ios::binary);
    if (!is)
      throw util::IoError(path, "open labels for reading", errno);
    const Header h = read_and_check_header(is, kMagic, kVersionMappable);
    check_count_plausible(is, h.count);
    if (h.version == kVersionMappable) {
      std::vector<std::size_t> lens = read_lens(is, h.count);
      const std::size_t words_offset = h.bytes +
                                       static_cast<std::size_t>(h.count) * 8 +
                                       pad_after_directory(h.bytes, h.count);
      if (auto mapped =
              bits::MappedArena::map(path.c_str(), words_offset,
                                     std::move(lens))) {
        MappedLoaded out;
        out.scheme = h.scheme;
        out.params = h.params;
        out.labels = std::move(*mapped);
        return out;
      }
    }
  }
  // Streamed fallback: version-1 files, and version-2 files that could not
  // be mapped (its validation also catches a word buffer shorter than the
  // directory promises, which map() refuses silently).
  std::ifstream is(path, std::ios::binary);
  if (!is) throw util::IoError(path, "open labels for reading", errno);
  LoadedArena la = load_arena(is);
  MappedLoaded out;
  out.scheme = std::move(la.scheme);
  out.params = std::move(la.params);
  out.labels = bits::MappedArena::adopt(std::move(la.labels));
  return out;
}

void LabelStore::save_file(const std::string& path, std::string_view scheme,
                           const bits::LabelArena& labels,
                           std::string_view params, bool mappable) {
  std::ostringstream os(std::ios::binary);
  if (mappable)
    save_mappable(os, scheme, labels, params);
  else
    save(os, scheme, labels, params);
  util::atomic_write_file(path, os.str());
}

void LabelStore::save_delta_file(const std::string& path,
                                 const LabelDelta& d) {
  std::ostringstream os(std::ios::binary);
  save_delta(os, d);
  util::atomic_write_file(path, os.str());
}

void LabelStore::rechain(LabelDelta& d, std::uint64_t base_chain) {
  d.base_chain = base_chain;
  d.new_chain = chain_hash(base_chain, d);
}

}  // namespace treelab::core
