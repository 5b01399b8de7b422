#include "bits/label_arena.hpp"

namespace treelab::bits {

std::size_t LabelArena::total_label_bits() const noexcept {
  std::size_t total = 0;
  for (const std::size_t l : len_) total += l;
  return total;
}

}  // namespace treelab::bits
