// Fixture: every rule's happy path in one mini-repo — must lint clean.
#include <unistd.h>

#include <atomic>
#include <memory>

namespace failpoint {
bool check(const char*);
}

struct Registry {
  int& counter(const char*);
};

void register_metrics(Registry& reg) {
  reg.counter("demo.requests");  // documented in README.md's catalog
}

long guarded_read(int fd, char* buf, unsigned long n) {
  if (failpoint::check("demo.read")) return -1;
  return ::read(fd, buf, n);
}

void poke(int fd) {
  const char b = 'w';
  // lint: allow(io-failpoint): self-pipe poke, not a fault boundary
  (void)::write(fd, &b, 1);
}

int* intentional_leak() {
  // A string or comment saying new or malloc( must not trip naked-new.
  const char* note = "placement new is spelled differently";
  (void)note;
  // lint: allow(naked-new): deliberate leak, owned for process lifetime
  return new int(7);
}

// NOLINTNEXTLINE(bugprone-demo-check): reason present, so this is fine
int g_counter = 0;

using IntPtr = std::shared_ptr<int>;
// lint: allow(atomic-shared-ptr): a reasoned allow suppresses the finding
std::atomic<IntPtr> g_published;
