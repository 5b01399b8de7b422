// LabelStore round-trip coverage across every distance scheme: save from
// the pooled arena, load the written (version-2) container, verify
// bit-exact labels and query parity against a brute-force oracle — plus
// truncation/corruption failure cases for the header and the payload, and
// the refusal of other container versions. This is the ship-and-serve
// loop: labels computed centrally must come back from the wire
// indistinguishable from the originals.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <limits>
#include <random>
#include <string>

#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/incremental_relabeler.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/label_store.hpp"
#include "core/peleg_scheme.hpp"
#include "core/tree_scaffold.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"
#include "util/bytes.hpp"
#include "util/failpoint.hpp"
#include "util/io_error.hpp"

namespace {

using namespace treelab;
using tree::NodeId;
using tree::Tree;

constexpr NodeId kN = 300;

std::string v2_image(const bits::LabelArena& labels, std::string_view scheme,
                     std::string_view params) {
  std::stringstream ss;
  core::LabelStore::save_mappable(ss, scheme, labels, params);
  return ss.str();
}

core::LabelStore::LoadedArena load(const std::string& wire) {
  std::stringstream in(wire);
  return core::LabelStore::load_arena(in);
}

/// Saves `labels`, loads them back from the written container, and checks
/// scheme/params/bit-exactness.
core::LabelStore::LoadedArena roundtrip(const bits::LabelArena& labels,
                                        const char* scheme,
                                        const char* params) {
  core::LabelStore::LoadedArena loaded = load(v2_image(labels, scheme, params));
  EXPECT_EQ(loaded.scheme, scheme);
  EXPECT_EQ(loaded.params, params);
  EXPECT_EQ(loaded.labels.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i)
    EXPECT_TRUE(loaded.labels[i] == labels[i]) << scheme << " label " << i;
  return loaded;
}

TEST(LabelStoreSchemes, FgnwRoundtripAndQueryParity) {
  const Tree t = tree::random_tree(kN, 41);
  const core::FgnwScheme s(t);
  const auto loaded = roundtrip(s.labels(), "fgnw", "");
  const tree::NcaIndex oracle(t);
  for (NodeId u = 0; u < kN; u += 13)
    for (NodeId v = 0; v < kN; v += 7)
      ASSERT_EQ(core::FgnwScheme::query(loaded.labels[u], loaded.labels[v]),
                oracle.distance(u, v));
}

TEST(LabelStoreSchemes, AlstrupRoundtripAndQueryParity) {
  const Tree t = tree::random_tree(kN, 42);
  const core::AlstrupScheme s(t);
  const auto loaded = roundtrip(s.labels(), "alstrup", "");
  const tree::NcaIndex oracle(t);
  for (NodeId u = 0; u < kN; u += 13)
    for (NodeId v = 0; v < kN; v += 7)
      ASSERT_EQ(core::AlstrupScheme::query(loaded.labels[u], loaded.labels[v]),
                oracle.distance(u, v));
}

TEST(LabelStoreSchemes, PelegRoundtripAndQueryParity) {
  const Tree t = tree::random_tree(kN, 43);
  const core::PelegScheme s(t);
  const auto loaded = roundtrip(s.labels(), "peleg", "");
  const tree::NcaIndex oracle(t);
  for (NodeId u = 0; u < kN; u += 13)
    for (NodeId v = 0; v < kN; v += 7)
      ASSERT_EQ(core::PelegScheme::query(loaded.labels[u], loaded.labels[v]),
                oracle.distance(u, v));
}

TEST(LabelStoreSchemes, ApproxRoundtripAndQueryParity) {
  const Tree t = tree::random_tree(kN, 44);
  const double eps = 0.25;
  const core::ApproxScheme s(t, eps);
  const auto loaded = roundtrip(s.labels(), "approx", "eps=0.25");
  for (NodeId u = 0; u < kN; u += 13)
    for (NodeId v = 0; v < kN; v += 7)
      ASSERT_EQ(
          core::ApproxScheme::query(s.powers(), loaded.labels[u],
                                    loaded.labels[v]),
          core::ApproxScheme::query(s.powers(), s.label(u), s.label(v)));
}

TEST(LabelStoreSchemes, KDistanceRoundtripAndQueryParity) {
  const Tree t = tree::random_tree(kN, 45);
  const std::uint64_t k = 6;
  const core::KDistanceScheme s(t, k);
  const auto loaded = roundtrip(s.labels(), "kdistance", "k=6");
  const tree::NcaIndex oracle(t);
  for (NodeId u = 0; u < kN; u += 13)
    for (NodeId v = 0; v < kN; v += 7) {
      const auto got =
          core::KDistanceScheme::query(k, loaded.labels[u], loaded.labels[v]);
      const std::uint64_t d = oracle.distance(u, v);
      ASSERT_EQ(got.within, d <= k);
      if (got.within) {
        ASSERT_EQ(got.distance, d);
      }
    }
}

TEST(LabelStoreSchemes, ParallelBuiltLabelsShipIdentically) {
  // The wire bytes must not depend on construction thread count either.
  const Tree t = tree::random_tree(kN, 46);
  const core::TreeScaffold s1(t, 1), s4(t, 4);
  EXPECT_EQ(v2_image(core::FgnwScheme(s1).labels(), "fgnw", ""),
            v2_image(core::FgnwScheme(s4).labels(), "fgnw", ""));
}

TEST(LabelStoreSchemes, EmptyAndOddSizes) {
  // A zero-length label, a 3-bit one, and 33 bits (a non-byte-aligned
  // tail).
  const bits::LabelArena labels =
      bits::LabelArena::build(3, 1, [](std::size_t i, bits::BitWriter& w) {
        if (i == 1) w.put_bits(0b101, 3);
        if (i == 2) w.put_bits(0x1deadbeefull, 33);
      });
  const auto loaded = roundtrip(labels, "raw", "");
  EXPECT_EQ(loaded.labels.label_bits(0), 0u);
  EXPECT_EQ(loaded.labels.label_bits(2), 33u);
}

TEST(LabelStoreFailure, TruncatedEverywhere) {
  const Tree t = tree::random_tree(60, 47);
  const core::FgnwScheme s(t);
  const std::string wire = v2_image(s.labels(), "fgnw", "p=1");
  // Every strict prefix must throw (the container has no trailing slack).
  for (std::size_t len = 0; len < wire.size();
       len += 1 + len / 9) {  // denser probing near the header
    EXPECT_THROW((void)load(wire.substr(0, len)), std::runtime_error)
        << "prefix " << len;
  }
}

/// One corrupted wire image through a loader: must either throw
/// std::runtime_error or produce a labeling that is safe to walk — never
/// read out of bounds (the ASan+UBSan CI job is the teeth behind this).
template <typename Load>
void expect_throws_or_loads(const std::string& wire, const Load& load,
                            const char* what, std::size_t pos) {
  try {
    const auto arena = load(wire);
    std::size_t total = 0;
    for (std::size_t i = 0; i < arena.size(); ++i) {
      total += arena.label_bits(i);
      const auto v = arena.view(i);
      if (v.size() != 0) (void)v.get(v.size() - 1);
    }
    (void)total;
  } catch (const std::runtime_error&) {
    // includes DecodeError; loud failure is the other acceptable outcome
  } catch (...) {
    FAIL() << what << ": unexpected exception type at bit " << pos;
  }
}

/// Flips single bits across an entire wire image and pushes the result
/// through `load`. Probes every header byte densely and samples the
/// payload (the images are a few KB).
template <typename Load>
void bit_flip_sweep(const std::string& wire, const Load& load,
                    const char* what) {
  for (std::size_t bit = 0; bit < wire.size() * 8;
       bit += 1 + bit / 24) {
    std::string bad = wire;
    bad[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(bad[bit / 8]) ^ (1u << (bit % 8)));
    expect_throws_or_loads(bad, load, what, bit);
  }
}

TEST(LabelStoreFailure, BitFlippedV2ContainerNeverReadsOutOfBounds) {
  // Through both the streamed loader and the zero-copy open_mapped path —
  // the mmap'ed BitSpan views are exactly what the sanitizer job should
  // sweep.
  const Tree t = tree::random_tree(40, 50);
  const core::AlstrupScheme s(t);
  std::stringstream ss;
  core::LabelStore::save_mappable(ss, "alstrup", s.labels(), "p=2");
  const std::string wire = ss.str();

  bit_flip_sweep(wire, [](const std::string& w) {
    std::stringstream in(w);
    return core::LabelStore::load_arena(in).labels;
  }, "v2 load_arena");

  const std::string path =
      testing::TempDir() + "treelab_store_v2_bitflip.lbl";
  bit_flip_sweep(wire, [&path](const std::string& w) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(w.data(), static_cast<std::streamsize>(w.size()));
    out.close();
    return std::move(core::LabelStore::open_mapped(path).labels);
  }, "v2 open_mapped");
  std::remove(path.c_str());
}

// --- version-3 delta container sweeps --------------------------------------

/// A small but representative delta: inserts + deletes + a compaction on a
/// stable-weight relabeler, shipped through the real producer.
struct DeltaFixture {
  bits::LabelArena base;
  std::string wire;
  core::LabelDelta delta;  // the parsed form (known-good)
};

DeltaFixture make_delta_fixture() {
  const Tree t = tree::random_tree(80, 51);
  core::IncrementalRelabeler r(t);
  DeltaFixture f;
  f.base = r.labels();
  std::mt19937_64 rng(52);
  for (int e = 0; e < 12; ++e) {
    try {
      if (e % 3 == 0)
        r.delete_leaf(static_cast<NodeId>(rng() % r.size()));
      else
        (void)r.insert_leaf(static_cast<NodeId>(rng() % r.size()));
    } catch (const std::exception&) {
    }
  }
  (void)r.compact();
  std::stringstream ss;
  r.ship_delta(ss);
  f.wire = ss.str();
  std::stringstream in(f.wire);
  f.delta = core::LabelStore::load_delta(in);
  return f;
}

/// One corrupted delta image: must either throw std::runtime_error (from
/// load or from apply-against-base) or produce an arena that is safe to
/// walk — never UB/OOM. The checksum catches nearly everything; the
/// structural validation is the backstop the adversarial tests poke at
/// directly.
void expect_delta_throws_or_applies(const DeltaFixture& f,
                                    const std::string& bad, std::size_t pos) {
  try {
    std::stringstream in(bad);
    const core::LabelDelta d = core::LabelStore::load_delta(in);
    const bits::LabelArena out = core::LabelStore::apply_delta(f.base, d);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto v = out.view(i);
      if (v.size() != 0) (void)v.get(v.size() - 1);
    }
  } catch (const std::runtime_error&) {
    // loud failure is the other acceptable outcome
  } catch (...) {
    FAIL() << "unexpected exception type at bit " << pos;
  }
}

TEST(LabelStoreDelta, BitFlippedDeltaNeverReadsOutOfBounds) {
  const DeltaFixture f = make_delta_fixture();
  for (std::size_t bit = 0; bit < f.wire.size() * 8; bit += 1 + bit / 24) {
    std::string bad = f.wire;
    bad[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(bad[bit / 8]) ^ (1u << (bit % 8)));
    expect_delta_throws_or_applies(f, bad, bit);
  }
}

TEST(LabelStoreDelta, TruncatedDeltaAlwaysThrows) {
  const DeltaFixture f = make_delta_fixture();
  for (std::size_t len = 0; len < f.wire.size(); len += 1 + len / 9) {
    std::stringstream in(f.wire.substr(0, len));
    EXPECT_THROW((void)core::LabelStore::load_delta(in), std::runtime_error)
        << "prefix " << len;
  }
}

TEST(LabelStoreDelta, AdversarialRunDirectories) {
  // Program-built deltas take the same structural scrutiny as wire ones:
  // overlapping/unsorted runs, out-of-range ids, wrapping counts, and
  // payload/dirty mismatches must all throw — from save_delta (caller bug:
  // invalid_argument) and from apply_delta (runtime_error) — never
  // allocate count-sized memory or read out of bounds.
  const DeltaFixture f = make_delta_fixture();
  const auto expect_invalid = [&](core::LabelDelta d, const char* what) {
    std::stringstream ss;
    EXPECT_THROW(core::LabelStore::save_delta(ss, d), std::invalid_argument)
        << what;
    EXPECT_THROW((void)core::LabelStore::apply_delta(f.base, d),
                 std::runtime_error)
        << what;
  };
  {
    core::LabelDelta d = f.delta;
    d.dropped = {{5, 4}, {3, 2}};  // unsorted + overlapping
    expect_invalid(std::move(d), "unsorted dropped runs");
  }
  {
    core::LabelDelta d = f.delta;
    d.dropped = {{70, 1u << 20}};  // far past base_count
    expect_invalid(std::move(d), "dropped run out of range");
  }
  {
    core::LabelDelta d = f.delta;
    d.dropped = {{0, 0}};  // empty run
    expect_invalid(std::move(d), "empty dropped run");
  }
  {
    core::LabelDelta d = f.delta;
    d.dropped.push_back(
        {std::numeric_limits<std::uint64_t>::max() - 1, 2});  // wraps
    expect_invalid(std::move(d), "wrapping dropped run");
  }
  {
    core::LabelDelta d = f.delta;
    if (!d.dirty.empty()) {
      d.dirty.back() = d.new_count + 7;  // out of range
      expect_invalid(std::move(d), "dirty id out of range");
    }
  }
  {
    core::LabelDelta d = f.delta;
    std::reverse(d.dirty.begin(), d.dirty.end());  // unsorted
    if (d.dirty.size() > 1)
      expect_invalid(std::move(d), "unsorted dirty ids");
  }
  {
    core::LabelDelta d = f.delta;
    d.dirty.pop_back();  // payload no longer matches
    expect_invalid(std::move(d), "payload/dirty mismatch");
  }
  {
    core::LabelDelta d = f.delta;
    d.new_count += 3;  // appended tail has no payload
    expect_invalid(std::move(d), "uncovered appended ids");
  }
}

TEST(LabelStoreDelta, ApplyRefusesTheWrongBase) {
  const DeltaFixture f = make_delta_fixture();
  // A different tree's labeling with the same node count: the lens hash
  // must refuse it before any splicing happens.
  const core::AlstrupScheme other(
      tree::random_tree(80, 77), {nca::CodeWeights::kStablePow2, 1});
  EXPECT_THROW((void)core::LabelStore::apply_delta(other.labels(), f.delta),
               std::runtime_error);
  // And a right-sized arena truncated by one label fails on the count.
  std::vector<std::size_t> ids(79);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  EXPECT_THROW((void)core::LabelStore::apply_delta(
                   bits::LabelArena::gathered(f.base, ids), f.delta),
               std::runtime_error);
}

TEST(LabelStoreDelta, LensHashIsRepresentationIndependent) {
  const Tree t = tree::random_tree(120, 53);
  const core::AlstrupScheme s(t);
  const std::uint64_t h1 = core::LabelStore::lens_hash(s.labels());
  // Through the v2 container and back via open_mapped (owned or mapped —
  // the hash must not care).
  const std::string path = testing::TempDir() + "treelab_lens_hash.lbl";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    core::LabelStore::save_mappable(out, "alstrup", s.labels(), "");
  }
  const auto opened = core::LabelStore::open_mapped(path);
  EXPECT_EQ(core::LabelStore::lens_hash(opened.labels), h1);
  std::remove(path.c_str());
}

TEST(LabelStorePersistence, SaveFileIsAtomicUnderTornWrite) {
  const Tree t = tree::random_tree(40, 49);
  const core::AlstrupScheme s(t);
  const std::string path =
      testing::TempDir() + "treelab_store_atomic.lbl";
  core::LabelStore::save_file(path, "alstrup", s.labels());
  const auto before = core::LabelStore::open_mapped(path);

  // A crash mid-overwrite must leave the previous file fully readable:
  // save_file goes through temp + fsync + rename.
  const core::FgnwScheme other(t);
  util::failpoint::arm("fs.write", util::FailMode::kTornWrite, 0, 1, 8);
  EXPECT_THROW(core::LabelStore::save_file(path, "fgnw", other.labels()),
               util::FailpointAbort);
  util::failpoint::disarm_all();
  const auto after = core::LabelStore::open_mapped(path);
  EXPECT_EQ(after.scheme, "alstrup");
  ASSERT_EQ(after.labels.size(), before.labels.size());
  for (std::size_t i = 0; i < after.labels.size(); ++i)
    EXPECT_TRUE(after.labels.view(i) == before.labels.view(i));

  // Without the failpoint the overwrite completes and swaps cleanly.
  core::LabelStore::save_file(path, "fgnw", other.labels());
  EXPECT_EQ(core::LabelStore::open_mapped(path).scheme, "fgnw");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(LabelStorePersistence, MissingFileIsIoErrorWithPathAndErrno) {
  const std::string path =
      testing::TempDir() + "treelab_store_no_such_file.lbl";
  try {
    (void)core::LabelStore::open_mapped(path);
    FAIL() << "expected IoError";
  } catch (const util::IoError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.error_code(), ENOENT);
  }
}

TEST(LabelStoreFailure, CorruptHeaderFields) {
  const Tree t = tree::random_tree(30, 48);
  const core::AlstrupScheme s(t);
  const std::string wire = v2_image(s.labels(), "alstrup", "");
  {  // bad magic
    std::string bad = wire;
    bad[2] ^= 0x40;
    EXPECT_THROW((void)load(bad), std::runtime_error);
  }
  {  // unsupported version
    std::string bad = wire;
    bad[4] = 9;
    EXPECT_THROW((void)load(bad), std::runtime_error);
  }
  {  // oversized scheme-string length
    std::string bad = wire;
    bad[10] = '\x7f';  // high byte of the scheme length field
    EXPECT_THROW((void)load(bad), std::runtime_error);
  }
  {  // implausible label count (little-endian u64 right after the strings)
    std::string bad = wire;
    const std::size_t count_off = 4 + 4 + 4 + 7 /*"alstrup"*/ + 4;
    bad[count_off + 7] = '\x01';  // 2^56 labels
    EXPECT_THROW((void)load(bad), std::runtime_error);
  }
}

// --- other container versions are refused ---------------------------------

std::string temp_path(const char* name) {
  return testing::TempDir() + "treelab_store_" + name + ".lbl";
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(LabelStoreFailure, Version1ContainerIsRefusedByName) {
  // A well-formed version-1 container, the compact format of earlier
  // builds: the version-2 header with version 1, then each label as a u64
  // bit length and its ceil(bits/8) bytes — here 0b101 and 17 bits 0x1beef.
  std::string v1 = "TLAB";
  util::put_le<std::uint32_t>(v1, 1);
  util::put_le<std::uint32_t>(v1, 4);
  v1 += "fgnw";
  util::put_le<std::uint32_t>(v1, 0);
  util::put_le<std::uint64_t>(v1, 2);
  util::put_le<std::uint64_t>(v1, 3);
  v1 += '\x05';
  util::put_le<std::uint64_t>(v1, 17);
  v1 += std::string("\xef\xbe\x01", 3);
  const auto expect_refused = [](const auto& open, const char* loader) {
    try {
      (void)open();
      ADD_FAILURE() << loader << " loaded a version-1 container";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
          << loader << ": " << e.what();
    }
  };
  expect_refused([&] { return load(v1); }, "load_arena");
  const std::string path = temp_path("v1");
  write_file(path, v1);
  expect_refused([&] { return core::LabelStore::open_mapped(path); },
                 "open_mapped");
  std::remove(path.c_str());
}

}  // namespace
