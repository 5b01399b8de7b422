// Fixture: std::atomic over a shared_ptr, spelled out and through an alias
// declared in the same file. Both must be flagged.
#include <atomic>
#include <memory>

struct Entry {
  int epoch = 0;
};

using EntryPtr = std::shared_ptr<const Entry>;

struct Slots {
  std::atomic<std::shared_ptr<const Entry>> spelled_out;
  std::atomic<EntryPtr> through_alias;
  std::atomic<int> counter{0};  // not a shared_ptr: fine
};
