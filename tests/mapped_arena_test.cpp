// Zero-copy serving coverage: the mappable (version-2) LabelStore container
// must round-trip byte-identical with the streamed loader through
// bits::MappedArena — mmap'ed views and the owned-arena fallback serve the
// same bits — and every truncation/corruption of a mappable file must fail
// loudly through open_mapped(). Version-1 files are label_store_test's.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bits/mapped_arena.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/label_store.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace treelab;
using tree::NodeId;
using tree::Tree;

constexpr NodeId kN = 260;

std::string temp_path(const char* name) {
  return testing::TempDir() + "treelab_mapped_" + name + ".lbl";
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string mappable_wire(const bits::LabelArena& labels, const char* scheme,
                          const char* params) {
  std::stringstream ss;
  core::LabelStore::save_mappable(ss, scheme, labels, params);
  return ss.str();
}

TEST(MappedArena, MappableFileServesZeroCopyAndBitIdentical) {
  const Tree t = tree::random_tree(kN, 51);
  const core::FgnwScheme s(t);
  const std::string path = temp_path("fgnw_v2");
  write_file(path, mappable_wire(s.labels(), "fgnw", "opt=none"));

  const auto opened = core::LabelStore::open_mapped(path);
  EXPECT_EQ(opened.scheme, "fgnw");
  EXPECT_EQ(opened.params, "opt=none");
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(opened.labels.mapped());
#endif
  ASSERT_EQ(opened.labels.size(), s.labels().size());
  for (std::size_t i = 0; i < s.labels().size(); ++i) {
    EXPECT_EQ(opened.labels.label_bits(i), s.labels().label_bits(i));
    EXPECT_TRUE(opened.labels.view(i) == s.labels().view(i)) << "label " << i;
  }
  EXPECT_EQ(opened.labels.total_label_bits(), s.labels().total_label_bits());

  // Byte-identical with the streamed arena loader over the same file.
  std::ifstream in(path, std::ios::binary);
  const auto streamed = core::LabelStore::load_arena(in);
  ASSERT_EQ(streamed.labels.size(), opened.labels.size());
  for (std::size_t i = 0; i < streamed.labels.size(); ++i)
    EXPECT_TRUE(streamed.labels.view(i) == opened.labels.view(i))
        << "label " << i;

  // And the mapped views answer queries exactly.
  const tree::NcaIndex oracle(t);
  for (NodeId u = 0; u < kN; u += 11)
    for (NodeId v = 0; v < kN; v += 17)
      ASSERT_EQ(core::FgnwScheme::query(opened.labels[u], opened.labels[v]),
                oracle.distance(u, v));
  std::remove(path.c_str());
}

TEST(MappedArena, MapFailureFallsBackToStreamedReadBitIdentical) {
  // When mmap is unavailable (here: forced off via the failpoint), a
  // mappable file must still open — streamed into an owned arena — and
  // serve the exact same bits as the zero-copy path.
  const Tree t = tree::random_tree(kN, 57);
  const core::FgnwScheme s(t);
  const std::string path = temp_path("fgnw_nofallocmap");
  write_file(path, mappable_wire(s.labels(), "fgnw", ""));

  util::failpoint::arm("mapped_arena.map", util::FailMode::kError);
  const auto fallback = core::LabelStore::open_mapped(path);
  util::failpoint::disarm_all();
  EXPECT_FALSE(fallback.labels.mapped());

  const auto mapped = core::LabelStore::open_mapped(path);
  ASSERT_EQ(fallback.labels.size(), mapped.labels.size());
  for (std::size_t i = 0; i < mapped.labels.size(); ++i) {
    EXPECT_EQ(fallback.labels.label_bits(i), mapped.labels.label_bits(i));
    EXPECT_TRUE(fallback.labels.view(i) == mapped.labels.view(i))
        << "label " << i;
  }
  EXPECT_EQ(fallback.labels.total_label_bits(),
            mapped.labels.total_label_bits());
  // The fallback arena answers queries exactly like the scheme.
  const tree::NcaIndex oracle(t);
  for (NodeId u = 0; u < kN; u += 13)
    for (NodeId v = 0; v < kN; v += 19)
      ASSERT_EQ(
          core::FgnwScheme::query(fallback.labels[u], fallback.labels[v]),
          oracle.distance(u, v));
  std::remove(path.c_str());
}

TEST(MappedArena, AdoptedArenaServesIdentically) {
  const Tree t = tree::random_tree(90, 54);
  const core::FgnwScheme s(t);
  std::stringstream ss(mappable_wire(s.labels(), "fgnw", ""));
  auto loaded = core::LabelStore::load_arena(ss);
  const std::size_t n = loaded.labels.size();
  const bits::MappedArena adopted =
      bits::MappedArena::adopt(std::move(loaded.labels));
  EXPECT_FALSE(adopted.mapped());
  ASSERT_EQ(adopted.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_TRUE(adopted.view(i) == s.labels().view(i)) << "label " << i;
}

TEST(MappedArena, TruncatedMappableFileThrowsEverywhere) {
  const Tree t = tree::random_tree(60, 55);
  const core::FgnwScheme s(t);
  const std::string wire = mappable_wire(s.labels(), "fgnw", "p=1");
  const std::string path = temp_path("trunc");
  for (std::size_t len = 0; len < wire.size(); len += 1 + len / 9) {
    write_file(path, wire.substr(0, len));
    EXPECT_THROW((void)core::LabelStore::open_mapped(path),
                 std::runtime_error)
        << "prefix " << len;
    std::stringstream in(wire.substr(0, len));
    EXPECT_THROW((void)core::LabelStore::load_arena(in), std::runtime_error)
        << "stream prefix " << len;
  }
  std::remove(path.c_str());
}

TEST(MappedArena, CorruptDirectoryThrows) {
  const Tree t = tree::random_tree(40, 56);
  const core::FgnwScheme s(t);
  std::string wire = mappable_wire(s.labels(), "fgnw", "");
  // The first directory entry sits right after the header
  // (4+4+4+"fgnw"+4+""+8 bytes); poke its high byte to an implausible
  // length (> 2^32 bits).
  const std::size_t dir_off = 4 + 4 + 4 + 4 + 4 + 0 + 8;
  std::string bad = wire;
  bad[dir_off + 7] = '\x01';
  const std::string path = temp_path("corrupt_dir");
  write_file(path, bad);
  EXPECT_THROW((void)core::LabelStore::open_mapped(path), std::runtime_error);

  // A plausible but oversized length (file too small for the promised
  // words) must fail through the fallback loader, not serve garbage.
  bad = wire;
  bad[dir_off + 2] = '\x7f';  // +8M bits on label 0
  write_file(path, bad);
  EXPECT_THROW((void)core::LabelStore::open_mapped(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(MappedArena, AdversarialLengthDirectoryCannotWrapTheWordCount) {
  // A length directory whose running word count overflows size_t used to
  // wrap to a tiny total, pass the file-size check, and hand out BitSpans
  // pointing far outside the mapping. map() must refuse instead (nullopt →
  // the caller's streamed fallback reports the corruption).
  const std::string path = temp_path("overflow_dir");
  write_file(path, std::string(64, '\x5a'));

  // One entry near SIZE_MAX: the naive (len + 63) / 64 itself wraps.
  {
    std::vector<std::size_t> lens{SIZE_MAX - 10};
    EXPECT_FALSE(
        bits::MappedArena::map(path.c_str(), 0, std::move(lens)).has_value());
  }
  // Several huge entries whose word counts only overflow when summed.
  {
    const std::size_t big = SIZE_MAX / 2;
    std::vector<std::size_t> lens{big, big, big};
    EXPECT_FALSE(
        bits::MappedArena::map(path.c_str(), 0, std::move(lens)).has_value());
  }
  // Sane directories still map.
  {
    std::vector<std::size_t> lens{64, 130, 1};
    const auto arena =
        bits::MappedArena::map(path.c_str(), 0, std::move(lens));
#if defined(__unix__) || defined(__APPLE__)
    ASSERT_TRUE(arena.has_value());
    EXPECT_EQ(arena->size(), 3u);
    EXPECT_EQ(arena->label_bits(1), 130u);
#endif
  }
  std::remove(path.c_str());
}

TEST(MappedArena, OverflowingDirectoryInAV2FileFailsLoudly) {
  // The same defence through LabelStore: a version-2 file whose directory
  // promises astronomically long labels must throw from every loader, not
  // serve out-of-bounds views. Directory entries are also individually
  // bounded, so craft the largest per-entry value that passes the bound —
  // the file-size checks must still catch it.
  const Tree t = tree::random_tree(8, 57);
  const core::FgnwScheme s(t);
  std::string wire = mappable_wire(s.labels(), "fgnw", "");
  const std::size_t dir_off = 4 + 4 + 4 + 4 + 4 + 0 + 8;
  for (std::size_t e = 0; e < 8; ++e) {  // every entry 2^32 bits
    wire[dir_off + e * 8 + 0] = '\0';
    wire[dir_off + e * 8 + 1] = '\0';
    wire[dir_off + e * 8 + 2] = '\0';
    wire[dir_off + e * 8 + 3] = '\0';
    wire[dir_off + e * 8 + 4] = '\x01';
  }
  const std::string path = temp_path("overflow_v2");
  write_file(path, wire);
  EXPECT_THROW((void)core::LabelStore::open_mapped(path), std::runtime_error);
  std::stringstream in(wire);
  EXPECT_THROW((void)core::LabelStore::load_arena(in), std::runtime_error);
  std::remove(path.c_str());
}

TEST(MappedArena, EmptyLabelingRoundtrips) {
  const bits::LabelArena empty;
  const std::string path = temp_path("empty");
  write_file(path, mappable_wire(empty, "fgnw", ""));
  const auto opened = core::LabelStore::open_mapped(path);
  EXPECT_EQ(opened.scheme, "fgnw");
  EXPECT_EQ(opened.labels.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
