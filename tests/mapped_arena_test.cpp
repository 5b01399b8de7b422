// Zero-copy serving coverage: the mappable (version-2) LabelStore container
// must round-trip byte-identical with the streamed loader through
// bits::LabelArena::map — mmap'ed and owned arenas serve the same bits, and
// a copy of a mapped arena keeps the mapping alive — and every
// truncation/corruption of a mappable file must fail loudly through
// open_mapped().
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "bits/label_arena.hpp"
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

// Per process: copies of this binary running at once must not rewrite
// each other's mapped files.
std::string temp_path(const char* name) {
  return testing::TempDir() + "treelab_mapped_" + name + "_" +
         std::to_string(::getpid()) + ".lbl";
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

TEST(MappedLabels, MappableFileServesZeroCopyAndBitIdentical) {
  const Tree t = tree::random_tree(kN, 51);
  const core::FgnwScheme s(t);
  const std::string path = temp_path("fgnw_v2");
  write_file(path, mappable_wire(s.labels(), "fgnw", "opt=none"));

  const auto opened = core::LabelStore::open_mapped(path);
  EXPECT_EQ(opened.scheme, "fgnw");
  EXPECT_EQ(opened.params, "opt=none");
  EXPECT_TRUE(opened.labels.mapped());
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

TEST(MappedLabels, MapFailureFallsBackToStreamedReadBitIdentical) {
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

TEST(MappedLabels, CopyOutlivesTheOriginalAndTheFile) {
  // Copies share the word buffer, mapped or owned: a copy of a mapped
  // arena must keep serving the exact bits after the original is gone and
  // the file is deleted.
  const Tree t = tree::random_tree(kN, 54);
  const core::FgnwScheme s(t);
  const bits::LabelArena owned_copy = s.labels();
  EXPECT_EQ(owned_copy.label_words(0), s.labels().label_words(0));

  const std::string path = temp_path("copy");
  write_file(path, mappable_wire(s.labels(), "fgnw", ""));
  std::optional<bits::LabelArena> original =
      core::LabelStore::open_mapped(path).labels;
  const bits::LabelArena copy = *original;
  EXPECT_EQ(copy.label_words(0), original->label_words(0));
  original.reset();
  ASSERT_EQ(std::remove(path.c_str()), 0);
  EXPECT_TRUE(copy.mapped());
  ASSERT_EQ(copy.size(), s.labels().size());
  for (std::size_t i = 0; i < copy.size(); ++i)
    EXPECT_TRUE(copy.view(i) == s.labels().view(i)) << "label " << i;
  // Padding included: the words are the file's, bit for bit.
  EXPECT_TRUE(std::ranges::equal(copy.words(), s.labels().words()));
}

TEST(MappedLabels, TruncatedMappableFileThrowsEverywhere) {
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

TEST(MappedLabels, CorruptDirectoryThrows) {
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

TEST(MappedLabels, AdversarialLengthDirectoryCannotWrapTheWordCount) {
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
        bits::LabelArena::map(path.c_str(), 0, std::move(lens)).has_value());
  }
  // Several huge entries whose word counts only overflow when summed.
  {
    const std::size_t big = SIZE_MAX / 2;
    std::vector<std::size_t> lens{big, big, big};
    EXPECT_FALSE(
        bits::LabelArena::map(path.c_str(), 0, std::move(lens)).has_value());
  }
  // Sane directories still map.
  {
    std::vector<std::size_t> lens{64, 130, 1};
    const auto arena =
        bits::LabelArena::map(path.c_str(), 0, std::move(lens));
    ASSERT_TRUE(arena.has_value());
    EXPECT_EQ(arena->size(), 3u);
    EXPECT_EQ(arena->label_bits(1), 130u);
  }
  std::remove(path.c_str());
}

TEST(MappedLabels, OverflowingDirectoryInAV2FileFailsLoudly) {
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

TEST(MappedLabels, EmptyLabelingRoundtrips) {
  const bits::LabelArena empty;
  const std::string path = temp_path("empty");
  write_file(path, mappable_wire(empty, "fgnw", ""));
  const auto opened = core::LabelStore::open_mapped(path);
  EXPECT_EQ(opened.scheme, "fgnw");
  EXPECT_EQ(opened.labels.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
