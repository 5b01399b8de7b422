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
#include "util/bytes.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/io_error.hpp"

namespace treelab::core {

namespace {

using util::fnv1a;
using util::kFnvOffset;

constexpr char kMagic[4] = {'T', 'L', 'A', 'B'};
constexpr std::uint32_t kVersion = 1;  // compact; read-only
constexpr std::uint32_t kVersionMappable = 2;
constexpr std::uint32_t kVersionDelta = 3;

constexpr std::uint32_t kMaxSchemeBytes = 256;
constexpr std::uint32_t kMaxParamsBytes = 4096;
constexpr std::uint64_t kMaxLabels = std::uint64_t{1} << 32;
constexpr std::uint64_t kMaxLabelBits = std::uint64_t{1} << 32;
/// The longest v1/v2 header: both strings at their caps.
constexpr std::size_t kMaxHeaderBytes =
    4 + 4 + 4 + kMaxSchemeBytes + 4 + kMaxParamsBytes + 8;

/// Zero bytes that bring offset `at` to the next multiple of 8 (where every
/// container's word buffer starts).
std::size_t pad8(std::size_t at) { return (8 - at % 8) % 8; }

std::size_t words_of(std::uint64_t bits) {
  return static_cast<std::size_t>(bits / 64 + (bits % 64 != 0 ? 1 : 0));
}

/// Up to `n` bytes from `is` (fewer at end of stream).
std::string read_upto(std::istream& is, std::size_t n) {
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  s.resize(static_cast<std::size_t>(is.gcount()));
  return s;
}

/// The rest of `is`, read in bounded chunks.
std::string read_all(std::istream& is) {
  std::string buf;
  char chunk[1 << 16];
  while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0)
    buf.append(chunk, static_cast<std::size_t>(is.gcount()));
  return buf;
}

/// magic | u32 version | u32-prefixed scheme | u32-prefixed params: the
/// front all three container versions share.
void put_header(std::string& out, std::uint32_t version,
                std::string_view scheme, std::string_view params) {
  out.append(kMagic, 4);
  util::put_le(out, version);
  util::put_le(out, static_cast<std::uint32_t>(scheme.size()));
  out.append(scheme);
  util::put_le(out, static_cast<std::uint32_t>(params.size()));
  out.append(params);
}

struct Header {
  std::uint32_t version = 0;
  std::string scheme;
  std::string params;
};

std::string read_string(util::ByteReader& r, std::uint32_t max_len) {
  const auto len = r.get<std::uint32_t>();
  r.require("LabelStore: truncated input");
  if (len > max_len) throw std::runtime_error("LabelStore: oversized string");
  const std::string_view s = r.bytes(len);
  r.require("LabelStore: truncated string");
  return std::string(s);
}

/// Parses put_header's fields, refusing a version outside [lo, hi].
Header read_header(util::ByteReader& r, std::uint32_t lo, std::uint32_t hi) {
  if (r.bytes(4) != std::string_view(kMagic, 4))
    throw std::runtime_error("LabelStore: bad magic");
  Header h;
  h.version = r.get<std::uint32_t>();
  r.require("LabelStore: truncated input");
  if (h.version < lo || h.version > hi)
    throw std::runtime_error("LabelStore: unsupported version");
  h.scheme = read_string(r, kMaxSchemeBytes);
  h.params = read_string(r, kMaxParamsBytes);
  return h;
}

/// The v1/v2 label count, bounded by the `stream_bytes` the container
/// spans: every label costs >= 8 bytes in either version (a v1 length
/// prefix, a v2 directory entry), so a corrupt count fails here, not via
/// count-sized allocations.
std::uint64_t read_count(util::ByteReader& r, std::uint64_t stream_bytes) {
  const auto count = r.get<std::uint64_t>();
  r.require("LabelStore: truncated input");
  if (count > kMaxLabels)
    throw std::runtime_error("LabelStore: implausible label count");
  if (count > (stream_bytes - r.offset()) / 8)
    throw std::runtime_error("LabelStore: label count exceeds stream size");
  return count;
}

/// A length directory (v2 container, v3 delta payload): `count` u64 bit
/// lengths, each at most 2^32 bits. Mirroring MappedArena::map's defence,
/// the *accumulated* word count is guarded too: the per-entry bound alone
/// still lets an adversarial directory overflow a size_t accumulator
/// downstream (32-bit hosts; or future arithmetic on the total).
struct Directory {
  std::vector<std::size_t> lens;
  std::uint64_t words = 0;
};

Directory read_lens(util::ByteReader& r, std::uint64_t count) {
  if (count > r.remaining() / 8)
    throw std::runtime_error("LabelStore: truncated length directory");
  Directory d;
  d.lens.resize(static_cast<std::size_t>(count));
  for (std::size_t& l : d.lens) {
    const auto bitlen = r.get<std::uint64_t>();
    if (bitlen > kMaxLabelBits)
      throw std::runtime_error("LabelStore: implausible label length");
    const std::uint64_t nw = words_of(bitlen);
    if (d.words > std::numeric_limits<std::uint64_t>::max() - nw ||
        d.words + nw >
            std::numeric_limits<std::size_t>::max() / sizeof(std::uint64_t))
      throw std::runtime_error("LabelStore: length directory overflows");
    d.words += nw;
    l = static_cast<std::size_t>(bitlen);
  }
  return d;
}

/// Appends `bits` bits to `w` from `bytes`, which holds them little-endian
/// from bit 0 in at least ceil(bits/8) bytes: a v1 label's byte string, or
/// a v2/v3 label's word run.
void append_bits(bits::BitWriter& w, std::string_view bytes,
                 std::size_t bits) {
  std::size_t b = 0;
  for (; b + 64 <= bits; b += 64)
    w.put_bits(util::load_le<std::uint64_t>(bytes.data() + b / 8), 64);
  if (b < bits) {
    char tail[8] = {};
    std::memcpy(tail, bytes.data() + b / 8, (bits - b + 7) / 8);
    w.put_bits(util::load_le<std::uint64_t>(tail), static_cast<int>(bits - b));
  }
}

/// The word buffer behind a length directory: label i is ceil(lens[i]/64)
/// little-endian words. Single-threaded build visits labels strictly in
/// order, matching the buffer layout.
bits::LabelArena read_words(util::ByteReader& r, const Directory& dir) {
  if (dir.words > r.remaining() / 8)
    throw std::runtime_error("LabelStore: truncated label payload");
  return bits::LabelArena::build(
      dir.lens.size(), 1, [&](std::size_t i, bits::BitWriter& w) {
        append_bits(w, r.bytes(words_of(dir.lens[i]) * 8), dir.lens[i]);
      });
}

}  // namespace

void LabelStore::save_mappable(std::ostream& os, std::string_view scheme,
                               const bits::LabelArena& labels,
                               std::string_view params) {
  std::string head;
  put_header(head, kVersionMappable, scheme, params);
  util::put_le<std::uint64_t>(head, labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i)
    util::put_le<std::uint64_t>(head, labels.label_bits(i));
  head.append(pad8(head.size()), '\0');
  std::string scratch;
  const std::string_view words = util::le_bytes(labels.words(), scratch);
  os.write(head.data(), static_cast<std::streamsize>(head.size()));
  os.write(words.data(), static_cast<std::streamsize>(words.size()));
}

LabelStore::LoadedArena LabelStore::load_arena(std::istream& is) {
  const std::string buf = read_all(is);
  util::ByteReader r(buf);
  Header h = read_header(r, kVersion, kVersionMappable);
  const std::uint64_t count = read_count(r, buf.size());
  LoadedArena out{std::move(h.scheme), std::move(h.params), {}};
  if (h.version == kVersionMappable) {
    const Directory dir = read_lens(r, count);
    (void)r.bytes(pad8(r.offset()));
    r.require("LabelStore: truncated padding");
    out.labels = read_words(r, dir);
    return out;
  }
  // Version 1: each label is a u64 bit length, then ceil(bits/8) bytes.
  out.labels = bits::LabelArena::build(
      static_cast<std::size_t>(count), 1,
      [&](std::size_t, bits::BitWriter& w) {
        const auto bitlen = r.get<std::uint64_t>();
        if (bitlen > kMaxLabelBits)
          throw std::runtime_error("LabelStore: implausible label length");
        const std::string_view bytes = r.bytes((bitlen + 7) / 8);
        r.require("LabelStore: truncated label");
        append_bits(w, bytes, static_cast<std::size_t>(bitlen));
      });
  return out;
}

LabelStore::MappedLoaded LabelStore::open_mapped(const std::string& path) {
  if (auto fp = util::failpoint::check("label_store.open_mapped"))
    util::failpoint::raise(*fp, "label_store.open_mapped", path);
  {
    // Only the header and the length directory are read: a mapped word
    // buffer stays in the page cache.
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
      throw util::IoError(path, "open labels for reading", errno);
    const auto size = static_cast<std::uint64_t>(
        std::max<std::streamoff>(is.tellg(), 0));
    is.seekg(0);
    const std::string head = read_upto(
        is, static_cast<std::size_t>(std::min<std::uint64_t>(
                size, kMaxHeaderBytes)));
    util::ByteReader r(head);
    Header h = read_header(r, kVersion, kVersionMappable);
    const std::uint64_t count = read_count(r, size);
    if (h.version == kVersionMappable) {
      const std::size_t dir_at = r.offset();
      is.clear();
      is.seekg(static_cast<std::streamoff>(dir_at));
      const std::string dir_bytes =
          read_upto(is, static_cast<std::size_t>(count) * 8);
      util::ByteReader dr(dir_bytes);
      Directory dir = read_lens(dr, count);
      const std::size_t words_at = dir_at + dir.lens.size() * 8;
      if (auto mapped = bits::MappedArena::map(
              path.c_str(), words_at + pad8(words_at), std::move(dir.lens)))
        return {std::move(h.scheme), std::move(h.params), std::move(*mapped)};
    }
  }
  // Streamed fallback: version-1 files, and version-2 files that could not
  // be mapped (its validation also catches a word buffer shorter than the
  // directory promises, which map() refuses silently).
  std::ifstream is(path, std::ios::binary);
  if (!is) throw util::IoError(path, "open labels for reading", errno);
  LoadedArena la = load_arena(is);
  return {std::move(la.scheme), std::move(la.params),
          bits::MappedArena::adopt(std::move(la.labels))};
}

void LabelStore::save_file(const std::string& path, std::string_view scheme,
                           const bits::LabelArena& labels,
                           std::string_view params) {
  std::ostringstream os(std::ios::binary);
  save_mappable(os, scheme, labels, params);
  util::atomic_write_file(path, os.str());
}

// --- version-3 (delta) container -------------------------------------------

namespace {

/// FNV-1a over x's eight little-endian bytes, continuing from `h`.
std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t x) {
  char b[8];
  util::store_le(b, x);
  return fnv1a(b, 8, h);
}

void put_runs(std::string& out, const std::vector<IdRun>& runs) {
  util::put_le<std::uint64_t>(out, runs.size());
  for (const IdRun& r : runs) {
    util::put_le(out, r.first);
    util::put_le(out, r.count);
  }
}

/// A u64 run count, then that many (first, count) pairs; `what` is the
/// error for a count the remaining bytes cannot hold.
std::vector<IdRun> read_runs(util::ByteReader& r, const char* what) {
  const auto n = r.get<std::uint64_t>();
  r.require("LabelStore: truncated delta");
  if (n > r.remaining() / 16) throw std::runtime_error(what);
  std::vector<IdRun> runs(static_cast<std::size_t>(n));
  for (IdRun& run : runs) {
    run.first = r.get<std::uint64_t>();
    run.count = r.get<std::uint64_t>();
  }
  return runs;
}

template <typename Arena>
std::uint64_t lens_hash_of(const Arena& a) {
  std::uint64_t h = fnv1a_u64(kFnvOffset, a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    h = fnv1a_u64(h, a.label_bits(i));
  return h;
}

/// Structural validation shared by load_delta (wire) and apply_delta
/// (program-built deltas take the same scrutiny). Throws std::runtime_error
/// on any inconsistency; performs no allocation proportional to the counts.
void validate_delta(const LabelDelta& d) {
  const auto bad = [](const char* what) {
    throw std::runtime_error(std::string("LabelStore: invalid delta: ") +
                             what);
  };
  if (d.base_count > kMaxLabels || d.new_count > kMaxLabels)
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

template <typename Arena>
bits::LabelArena apply_delta_to(const Arena& base, const LabelDelta& d) {
  validate_delta(d);
  if (base.size() != d.base_count)
    throw std::runtime_error("LabelStore: delta base count mismatch");
  if (lens_hash_of(base) != d.base_lens_hash)
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
  return lens_hash_of(a);
}

std::uint64_t LabelStore::lens_hash(const bits::MappedArena& a) {
  return lens_hash_of(a);
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
    for (std::size_t j = 0; j < words_of(bits); ++j) h = fnv1a_u64(h, w[j]);
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
  if (d.scheme.size() > kMaxSchemeBytes || d.params.size() > kMaxParamsBytes)
    throw std::invalid_argument(
        "LabelStore: scheme/params too long for the delta container");
  std::string out;
  put_header(out, kVersionDelta, d.scheme, d.params);
  for (const std::uint64_t x : {d.base_count, d.new_count, d.base_lens_hash,
                                d.base_chain, d.new_chain})
    util::put_le(out, x);
  put_runs(out, d.dropped);
  put_runs(out, id_runs(d.dirty));
  for (std::size_t i = 0; i < d.payload.size(); ++i)
    util::put_le<std::uint64_t>(out, d.payload.label_bits(i));
  out.append(pad8(out.size()), '\0');  // payload starts 8-byte aligned
  std::string scratch;
  out.append(util::le_bytes(d.payload.words(), scratch));
  util::put_le<std::uint64_t>(out, d.edits.size());
  for (const LabelEdit& e : d.edits) {
    out.push_back(static_cast<char>(e.kind));
    util::put_le(out, e.a);
    util::put_le(out, e.b);
  }
  util::put_le(out, fnv1a(out.data(), out.size()));
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

LabelDelta LabelStore::load_delta(std::istream& is) {
  // Buffer the whole container: the checksum covers everything before the
  // trailing hash, and every count below is then verifiably bounded by the
  // buffer size before anything is allocated.
  const std::string buf = read_all(is);
  util::ByteReader c(buf);
  Header h = read_header(c, kVersionDelta, kVersionDelta);
  LabelDelta d;
  d.scheme = std::move(h.scheme);
  d.params = std::move(h.params);
  d.base_count = c.get<std::uint64_t>();
  d.new_count = c.get<std::uint64_t>();
  d.base_lens_hash = c.get<std::uint64_t>();
  d.base_chain = c.get<std::uint64_t>();
  d.new_chain = c.get<std::uint64_t>();
  c.require("LabelStore: truncated delta");
  if (d.base_count > kMaxLabels || d.new_count > kMaxLabels)
    throw std::runtime_error("LabelStore: implausible label count");

  d.dropped = read_runs(c, "LabelStore: dropped runs exceed stream size");
  const std::vector<IdRun> dirty_runs =
      read_runs(c, "LabelStore: dirty runs exceed stream size");
  std::uint64_t dirty_total = 0;
  for (const IdRun& r : dirty_runs) {
    if (r.count == 0)
      throw std::runtime_error("LabelStore: invalid delta: empty dirty run");
    if (dirty_total > std::numeric_limits<std::uint64_t>::max() - r.count)
      throw std::runtime_error("LabelStore: dirty run count overflows");
    dirty_total += r.count;
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

  const Directory dir = read_lens(c, dirty_total);
  const std::string_view pad = c.bytes(pad8(c.offset()));
  c.require("LabelStore: truncated delta");
  if (pad.find_first_not_of('\0') != std::string_view::npos)
    throw std::runtime_error("LabelStore: invalid delta: nonzero padding");
  d.payload = read_words(c, dir);

  const auto n_edits = c.get<std::uint64_t>();
  c.require("LabelStore: truncated delta");
  if (n_edits > c.remaining() / 17)
    throw std::runtime_error("LabelStore: edit log exceeds stream size");
  d.edits.resize(static_cast<std::size_t>(n_edits));
  for (LabelEdit& e : d.edits) {
    const auto kind = c.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(LabelEdit::Kind::kCompact))
      throw std::runtime_error("LabelStore: invalid delta: unknown edit kind");
    e.kind = static_cast<LabelEdit::Kind>(kind);
    e.a = c.get<std::uint64_t>();
    e.b = c.get<std::uint64_t>();
  }

  const std::size_t hashed = c.offset();
  const auto want = c.get<std::uint64_t>();
  c.require("LabelStore: truncated delta");
  if (!c.done())
    throw std::runtime_error("LabelStore: trailing bytes after delta");
  if (fnv1a(buf.data(), hashed) != want)
    throw std::runtime_error("LabelStore: delta checksum mismatch");
  validate_delta(d);
  return d;
}

bits::LabelArena LabelStore::apply_delta(const bits::LabelArena& base,
                                         const LabelDelta& d) {
  return apply_delta_to(base, d);
}

bits::LabelArena LabelStore::apply_delta(const bits::MappedArena& base,
                                         const LabelDelta& d) {
  return apply_delta_to(base, d);
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
