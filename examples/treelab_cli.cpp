// treelab_cli — command-line front end for the library, demonstrating the
// ship-labels-then-query-locally workflow end to end:
//
//   treelab_cli gen <shape> <n> <seed>          > tree.txt
//   treelab_cli label <scheme> tree.txt out.lbl   (scheme: fgnw|alstrup|
//                                                  peleg|kdist:<k>|
//                                                  approx:<1/eps>; writes a
//                                                  mappable container)
//   treelab_cli query out.lbl <u> <v>             (labels only; the tree
//                                                  file is NOT read)
//   treelab_cli stats out.lbl                     (label-size statistics and
//                                                  storage, as `load`)
//   treelab_cli stats <host>:<port> [--probe N]   (live metrics: send kStats
//                                                  to a running server and
//                                                  print its obs registry as
//                                                  `name value` lines; with
//                                                  --probe, send N small
//                                                  query batches first so
//                                                  the latency histograms
//                                                  are warm)
//   treelab_cli save <in.lbl> <out.lbl>          (read a version-2 container
//                                                  and write it again,
//                                                  crash-safely)
//   treelab_cli load <labels.lbl>                 (open for serving as a
//                                                  server would, report
//                                                  mapped vs streamed;
//                                                  version 2 only)
//   treelab_cli update <tree.txt> <out.lbl> [--edits E] [--seed X]
//                                           [--tree-out grown.txt]
//                                                 (dynamic forests: build
//                                                  stable-weight alstrup
//                                                  labels, apply E random
//                                                  leaf inserts through the
//                                                  incremental relabeler,
//                                                  write the final labels;
//                                                  prints per-edit outcome
//                                                  counters and timing)
//   treelab_cli delta-save <tree.txt> <base.lbl> <out.delta>
//                          [--edits E] [--seed X] [--inserts-only]
//                          [--tree-out edited.txt]
//                                                 (write the base labels as
//                                                  a mappable file, drive E
//                                                  random edits — inserts,
//                                                  deletes, weight updates,
//                                                  subtree moves, compact —
//                                                  through the incremental
//                                                  relabeler, then ship
//                                                  only the dirty chunks as
//                                                  a v3 delta; prints delta
//                                                  bytes vs full-file
//                                                  bytes)
//   treelab_cli delta-apply <base.lbl> <in.delta> <out.lbl>
//                                                 (patch a base label file
//                                                  with a delta — what a
//                                                  serving node does via
//                                                  ForestIndex::apply_delta
//                                                  — and write the result)
//   treelab_cli journal info <base.lbl>           (open the crash-safe delta
//                                                  journal beside base.lbl,
//                                                  run recovery, report what
//                                                  it replayed/truncated)
//   treelab_cli journal append <base.lbl> <in.delta>
//                                                 (append a delta to the
//                                                  journal, rechaining it to
//                                                  the journal's epoch chain
//                                                  when needed)
//   treelab_cli journal checkpoint <base.lbl>     (fold the journal into the
//                                                  base file atomically)
//   treelab_cli serve <tree.txt> <base.lbl> [--port P] [--edits E]
//                     [--seed X] [--wait-subscribers N] [--port-file F]
//                                                 (replication leader: build
//                                                  incremental labels, start
//                                                  the batch-RPC server with
//                                                  the delta journal
//                                                  attached, churn E random
//                                                  leaf inserts through it,
//                                                  then either wait for N
//                                                  followers to fully catch
//                                                  up or serve until
//                                                  SIGINT/SIGTERM; on exit
//                                                  checkpoint the journal
//                                                  into base.lbl)
//   treelab_cli follow <host>:<port> <out.lbl>
//                      [--stats-port-file F] [--linger-ms M]
//                                                 (replication follower:
//                                                  tail the leader until its
//                                                  end-of-stream, then write
//                                                  the converged labels —
//                                                  bit-identical to the
//                                                  leader's checkpoint; with
//                                                  --stats-port-file, also
//                                                  run a query/stats server
//                                                  over the follower index
//                                                  and keep it up M ms after
//                                                  convergence so a peer can
//                                                  probe the follower's
//                                                  metrics)
//
// All label/delta outputs are written atomically (temp + fsync + rename):
// a crash mid-write never leaves a torn file behind. Exit codes separate
// failure kinds: 0 ok, 1 other error, 2 usage, 3 I/O error (path + errno
// on stderr), 4 corrupt/invalid input.
//
// Example:
//   treelab_cli gen random 1000 7 > t.txt
//   treelab_cli label fgnw t.txt t.lbl
//   treelab_cli query t.lbl 12 900
//   treelab_cli update t.txt t2.lbl --edits 500 --tree-out t2.txt
//   treelab_cli delta-save t.txt base.lbl churn.delta --edits 200
//   treelab_cli delta-apply base.lbl churn.delta patched.lbl
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/delta_journal.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/incremental_relabeler.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/label_store.hpp"
#include "core/peleg_scheme.hpp"
#include "net/client.hpp"
#include "net/replicator.hpp"
#include "net/server.hpp"
#include "serve/any_scheme.hpp"
#include "serve/forest_index.hpp"
#include "util/fs.hpp"
#include "tree/generators.hpp"
#include "tree/io.hpp"
#include "util/io_error.hpp"

using namespace treelab;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  treelab_cli gen <shape> <n> <seed>\n"
               "  treelab_cli label <scheme> <tree.txt> <out.lbl>\n"
               "  treelab_cli query <labels.lbl> <u> <v>\n"
               "  treelab_cli stats <labels.lbl>\n"
               "  treelab_cli stats <host>:<port> [--probe N]\n"
               "  treelab_cli save <in.lbl> <out.lbl>\n"
               "  treelab_cli load <labels.lbl>\n"
               "  treelab_cli update <tree.txt> <out.lbl> [--edits E] "
               "[--seed X] [--tree-out grown.txt]\n"
               "  treelab_cli delta-save <tree.txt> <base.lbl> <out.delta> "
               "[--edits E] [--seed X] [--inserts-only] [--tree-out f]\n"
               "  treelab_cli delta-apply <base.lbl> <in.delta> <out.lbl>\n"
               "  treelab_cli journal info <base.lbl>\n"
               "  treelab_cli journal append <base.lbl> <in.delta>\n"
               "  treelab_cli journal checkpoint <base.lbl>\n"
               "  treelab_cli serve <tree.txt> <base.lbl> [--port P] "
               "[--edits E] [--seed X] [--wait-subscribers N] "
               "[--port-file F]\n"
               "  treelab_cli follow <host>:<port> <out.lbl> "
               "[--stats-port-file F] [--linger-ms M]\n"
               "shapes: path star caterpillar broom spider balanced-binary "
               "random random-binary\n"
               "schemes: fgnw alstrup peleg kdist:<k> approx:<inv_eps>\n");
  return 2;
}

int cmd_gen(int argc, char** argv) {
  if (argc != 5) return usage();
  const std::string shape = argv[2];
  const auto n = static_cast<tree::NodeId>(std::stol(argv[3]));
  const auto seed = static_cast<std::uint64_t>(std::stoull(argv[4]));
  for (const auto& s : tree::standard_shapes())
    if (s.name == shape) {
      tree::write_text(std::cout, s.make(n, seed));
      return 0;
    }
  std::fprintf(stderr, "unknown shape '%s'\n", shape.c_str());
  return 2;
}

int cmd_label(int argc, char** argv) {
  if (argc != 5) return usage();
  const std::string scheme = argv[2];
  std::ifstream in(argv[3]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[3]);
    return 1;
  }
  const tree::Tree t = tree::read_text(in);
  const auto save = [&](const char* tag, const bits::LabelArena& labels,
                        const std::string& params = {}) {
    core::LabelStore::save_file(argv[4], tag, labels, params);
  };

  if (scheme == "fgnw") {
    save("fgnw", core::FgnwScheme(t).labels());
  } else if (scheme == "alstrup") {
    save("alstrup", core::AlstrupScheme(t).labels());
  } else if (scheme == "peleg") {
    save("peleg", core::PelegScheme(t).labels());
  } else if (scheme.rfind("kdist:", 0) == 0) {
    const std::uint64_t k = std::stoull(scheme.substr(6));
    save("kdist", core::KDistanceScheme(t, k).labels(),
         "k=" + std::to_string(k));
  } else if (scheme.rfind("approx:", 0) == 0) {
    const std::uint64_t inv = std::stoull(scheme.substr(7));
    save("approx",
         core::ApproxScheme(t, 1.0 / static_cast<double>(inv)).labels(),
         "inv_eps=" + std::to_string(inv));
  } else {
    std::fprintf(stderr, "unknown scheme '%s'\n", scheme.c_str());
    return 2;
  }
  std::printf("labeled %d nodes with %s -> %s\n", t.size(), scheme.c_str(),
              argv[4]);
  return 0;
}

int cmd_query(int argc, char** argv) {
  if (argc != 5) return usage();
  const auto opened = core::LabelStore::open_mapped(argv[2]);
  const auto u = static_cast<std::size_t>(std::stoull(argv[3]));
  const auto v = static_cast<std::size_t>(std::stoull(argv[4]));
  const std::size_t n = opened.labels.size();
  if (u >= n || v >= n) {
    std::fprintf(stderr, "node out of range (have %zu labels)\n", n);
    return 1;
  }
  // The scheme the server would answer with: any tag and params it serves.
  const serve::Dist d =
      serve::AnyScheme::make(opened.scheme, opened.params)
          .query(opened.labels.view(u), opened.labels.view(v));
  const std::string note =
      opened.params.empty() ? "" : " (" + opened.params + ")";
  if (d.within)
    std::printf("d %s %llu%s\n", opened.scheme == "approx" ? "~" : "=",
                static_cast<unsigned long long>(d.value), note.c_str());
  else
    std::printf("d > k%s\n", note.c_str());
  return 0;
}

int cmd_save(int argc, char** argv) {
  if (argc != 4) return usage();
  std::ifstream in(argv[2], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 1;
  }
  const auto loaded = core::LabelStore::load_arena(in);
  core::LabelStore::save_file(argv[3], loaded.scheme, loaded.labels,
                              loaded.params);
  std::printf("rewrote %zu %s labels -> %s (mappable container)\n",
              loaded.labels.size(), loaded.scheme.c_str(), argv[3]);
  return 0;
}

/// `stats <file>` and `load`: label sizes, and whether the file serves
/// zero-copy, as a server would open it.
int print_label_file(const char* path) {
  const auto opened = core::LabelStore::open_mapped(path);
  core::LabelStats st;
  for (std::size_t i = 0; i < opened.labels.size(); ++i)
    st.add(opened.labels.label_bits(i));
  std::printf(
      "scheme=%s params='%s' labels=%zu max=%zu bits avg=%.1f bits "
      "storage=%s\n",
      opened.scheme.c_str(), opened.params.c_str(), st.count, st.max_bits,
      st.avg_bits(),
      opened.labels.mapped() ? "mmap (zero-copy)" : "owned (streamed)");
  return 0;
}

int cmd_load(int argc, char** argv) {
  if (argc != 3) return usage();
  return print_label_file(argv[2]);
}

int cmd_update(int argc, char** argv) {
  if (argc < 4) return usage();
  const char* tree_path = argv[2];
  const char* out_path = argv[3];
  std::size_t edits = 100;
  std::uint64_t seed = 1;
  const char* tree_out = nullptr;
  for (int i = 4; i < argc; ++i) {
    const std::string name = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", name.c_str());
      return 2;
    }
    const char* val = argv[++i];
    if (name == "--tree-out") {
      tree_out = val;
      continue;
    }
    char* end = nullptr;
    const long long v = std::strtoll(val, &end, 10);
    if (*val == '\0' || *end != '\0' || v < 0) {
      std::fprintf(stderr, "bad value '%s' for %s\n", val, name.c_str());
      return 2;
    }
    if (name == "--edits")
      edits = static_cast<std::size_t>(v);
    else if (name == "--seed")
      seed = static_cast<std::uint64_t>(v);
    else
      return usage();
  }

  std::ifstream in(tree_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", tree_path);
    return 1;
  }
  const tree::Tree t = tree::read_text(in);

  using clock = std::chrono::steady_clock;
  auto t0 = clock::now();
  core::IncrementalRelabeler relab(t);
  const double build_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();

  std::mt19937_64 rng(seed);
  t0 = clock::now();
  for (std::size_t e = 0; e < edits; ++e)
    (void)relab.insert_leaf(
        static_cast<tree::NodeId>(rng() % relab.size()));
  const double edit_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();

  const auto loaded = relab.to_loaded();
  core::LabelStore::save_file(out_path, loaded.scheme, loaded.labels,
                              loaded.params);
  if (tree_out != nullptr) {
    std::ofstream tout(tree_out);
    if (!tout) {
      std::fprintf(stderr, "cannot open %s for writing\n", tree_out);
      return 1;
    }
    tree::write_text(tout, relab.snapshot());
    tout.flush();
    if (!tout) {
      std::fprintf(stderr, "write to %s failed\n", tree_out);
      return 1;
    }
  }

  const auto& st = relab.stats();
  std::printf(
      "grew %d -> %zu nodes (%zu edits in %.1f ms, %.3f ms/edit; initial "
      "build %.1f ms)\n"
      "outcomes: %llu incremental, %llu restructured, %llu full (heavy "
      "flip), %llu full (dirty cone)\n"
      "labels: %llu re-emitted, %llu spliced -> %s (stable-weight alstrup, "
      "mappable container)\n",
      t.size(), relab.size(), edits, edit_ms,
      edits > 0 ? edit_ms / static_cast<double>(edits) : 0.0, build_ms,
      static_cast<unsigned long long>(st.incremental),
      static_cast<unsigned long long>(st.restructured),
      static_cast<unsigned long long>(st.full_heavy_flip),
      static_cast<unsigned long long>(st.full_dirty_cone),
      static_cast<unsigned long long>(st.labels_reemitted),
      static_cast<unsigned long long>(st.labels_spliced), out_path);
  return 0;
}

int cmd_delta_save(int argc, char** argv) {
  if (argc < 5) return usage();
  const char* tree_path = argv[2];
  const char* base_path = argv[3];
  const char* delta_path = argv[4];
  std::size_t edits = 100;
  std::uint64_t seed = 1;
  bool inserts_only = false;
  const char* tree_out = nullptr;
  for (int i = 5; i < argc; ++i) {
    const std::string name = argv[i];
    if (name == "--inserts-only") {
      inserts_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", name.c_str());
      return 2;
    }
    const char* val = argv[++i];
    if (name == "--tree-out") {
      tree_out = val;
      continue;
    }
    char* end = nullptr;
    const long long v = std::strtoll(val, &end, 10);
    if (*val == '\0' || *end != '\0' || v < 0) {
      std::fprintf(stderr, "bad value '%s' for %s\n", val, name.c_str());
      return 2;
    }
    if (name == "--edits")
      edits = static_cast<std::size_t>(v);
    else if (name == "--seed")
      seed = static_cast<std::uint64_t>(v);
    else
      return usage();
  }

  std::ifstream in(tree_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", tree_path);
    return 1;
  }
  const tree::Tree t = tree::read_text(in);
  core::IncrementalRelabeler relab(t);

  // The base epoch: what a serving node already holds.
  {
    const auto loaded = relab.to_loaded();
    core::LabelStore::save_file(base_path, loaded.scheme, loaded.labels,
                                loaded.params);
  }
  relab.rebase_delta();

  // Random churn across the whole edit model (or inserts only).
  std::mt19937_64 rng(seed);
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  std::size_t done = 0;
  while (done < edits) {
    const auto op = inserts_only ? 0u : rng() % 10;
    try {
      if (op < 5) {
        tree::NodeId p;
        do p = static_cast<tree::NodeId>(rng() % relab.size());
        while (!relab.alive(p));
        (void)relab.insert_leaf(p, static_cast<std::uint32_t>(1 + rng() % 3));
      } else if (op < 7) {
        relab.delete_leaf(static_cast<tree::NodeId>(rng() % relab.size()));
      } else if (op < 8) {
        relab.set_edge_weight(static_cast<tree::NodeId>(rng() % relab.size()),
                              static_cast<std::uint32_t>(rng() % 4));
      } else if (op < 9) {
        if (relab.detached_root() == tree::kNoNode) {
          relab.detach_subtree(
              static_cast<tree::NodeId>(rng() % relab.size()));
          continue;  // the attach below completes the move as one edit pair
        }
        tree::NodeId p;
        do p = static_cast<tree::NodeId>(rng() % relab.size());
        while (!relab.alive(p));
        relab.attach_subtree(p, 1);
      } else if (relab.detached_root() == tree::kNoNode) {
        (void)relab.compact();
      } else {
        continue;
      }
      ++done;
    } catch (const std::out_of_range&) {
    } catch (const std::invalid_argument&) {
    }
  }
  if (relab.detached_root() != tree::kNoNode) relab.attach_subtree(0, 1);
  const double edit_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();

  const core::LabelDelta d = relab.make_delta();
  core::LabelStore::save_delta_file(delta_path, d);
  if (tree_out != nullptr) {
    std::ofstream tout(tree_out);
    if (!tout) {
      std::fprintf(stderr, "cannot open %s for writing\n", tree_out);
      return 1;
    }
    tree::write_text(tout, relab.snapshot());
  }

  std::size_t full_bytes = 0;
  {
    std::ostringstream full;
    const auto loaded = relab.to_loaded();
    core::LabelStore::save_mappable(full, loaded.scheme, loaded.labels,
                                    loaded.params);
    full_bytes = full.str().size();
  }
  std::ifstream delta_in(delta_path, std::ios::binary | std::ios::ate);
  const auto delta_bytes = static_cast<std::size_t>(delta_in.tellg());
  const auto& st = relab.stats();
  std::printf(
      "base %d nodes -> %zu ids (%zu live) after %zu edits in %.1f ms\n"
      "outcomes: %llu incremental, %llu restructured, %llu full rebuilds, "
      "%llu compactions\n"
      "delta: %zu dirty labels, %llu dropped ids, %zu edit records\n"
      "bytes: delta %zu vs full file %zu (%.1f%%) -> %s\n",
      t.size(), relab.size(), relab.live_size(), done, edit_ms,
      static_cast<unsigned long long>(st.incremental),
      static_cast<unsigned long long>(st.restructured),
      static_cast<unsigned long long>(st.full_heavy_flip +
                                      st.full_dirty_cone),
      static_cast<unsigned long long>(st.compactions), d.dirty.size(),
      static_cast<unsigned long long>(d.dropped_count()), d.edits.size(),
      delta_bytes, full_bytes,
      100.0 * static_cast<double>(delta_bytes) /
          static_cast<double>(full_bytes),
      delta_path);
  return 0;
}

int cmd_delta_apply(int argc, char** argv) {
  if (argc != 5) return usage();
  const auto base = core::LabelStore::open_mapped(argv[2]);
  std::ifstream din(argv[3], std::ios::binary);
  if (!din)
    throw util::IoError(argv[3], "open delta for reading",
                        errno != 0 ? errno : ENOENT);
  const core::LabelDelta d = core::LabelStore::load_delta(din);
  if (d.scheme != base.scheme || d.params != base.params) {
    std::fprintf(stderr, "delta is for scheme '%s' params '%s', base holds "
                 "'%s'/'%s'\n",
                 d.scheme.c_str(), d.params.c_str(), base.scheme.c_str(),
                 base.params.c_str());
    return 4;
  }
  const bits::LabelArena patched =
      core::LabelStore::apply_delta(base.labels, d);
  core::LabelStore::save_file(argv[4], d.scheme, patched, d.params);
  std::printf(
      "patched %zu -> %zu labels (%zu dirty, %llu dropped, %zu shape edits) "
      "-> %s\n",
      base.labels.size(), patched.size(), d.dirty.size(),
      static_cast<unsigned long long>(d.dropped_count()), d.edits.size(),
      argv[4]);
  return 0;
}

int cmd_journal(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string verb = argv[2];
  const std::string base_path = argv[3];
  core::DeltaJournal j = core::DeltaJournal::open(base_path);
  const auto& rec = j.recovery();
  std::printf(
      "journal %s: %zu records replayed, %llu bytes truncated%s%s\n"
      "state: %zu records (%llu bytes) pending, chain %016llx, %zu labels\n",
      core::DeltaJournal::journal_path(base_path).c_str(),
      static_cast<std::size_t>(rec.records_replayed),
      static_cast<unsigned long long>(rec.bytes_truncated),
      rec.journal_reset ? ", journal reset" : "",
      rec.created ? ", created" : "", static_cast<std::size_t>(j.record_count()),
      static_cast<unsigned long long>(j.journal_bytes()),
      static_cast<unsigned long long>(j.chain()), j.labels().size());

  if (verb == "info") {
    if (argc != 4) return usage();
    return 0;
  }
  if (verb == "append") {
    if (argc != 5) return usage();
    std::ifstream din(argv[4], std::ios::binary);
    if (!din)
      throw util::IoError(argv[4], "open delta for reading",
                          errno != 0 ? errno : ENOENT);
    core::LabelDelta d = core::LabelStore::load_delta(din);
    if (d.base_chain != j.chain()) {
      std::printf("rechaining delta %016llx -> journal chain %016llx\n",
                  static_cast<unsigned long long>(d.base_chain),
                  static_cast<unsigned long long>(j.chain()));
      core::LabelStore::rechain(d, j.chain());
    }
    j.append(d);
    std::printf("appended: %zu records (%llu bytes), chain %016llx, "
                "%zu labels\n",
                static_cast<std::size_t>(j.record_count()),
                static_cast<unsigned long long>(j.journal_bytes()),
                static_cast<unsigned long long>(j.chain()),
                j.labels().size());
    return 0;
  }
  if (verb == "checkpoint") {
    if (argc != 4) return usage();
    j.checkpoint();
    std::printf("checkpointed into %s (chain %016llx, %zu labels)\n",
                base_path.c_str(),
                static_cast<unsigned long long>(j.chain()),
                j.labels().size());
    return 0;
  }
  return usage();
}

// serve: SIGINT/SIGTERM ask the server for a graceful drain. The handler
// only touches async-signal-safe state (request_stop is one write() on the
// server's wake pipe, the flag is a lock-free atomic).
net::Server* g_signal_server = nullptr;
std::atomic<bool> g_signal_stop{false};
void serve_signal_handler(int) {
  g_signal_stop.store(true, std::memory_order_release);
  if (g_signal_server != nullptr) g_signal_server->request_stop();
}

int cmd_serve(int argc, char** argv) {
  if (argc < 4) return usage();
  const char* tree_path = argv[2];
  const char* base_path = argv[3];
  long long port = 0, edits = 0, wait_subscribers = 0;
  std::uint64_t seed = 1;
  const char* port_file = nullptr;
  for (int i = 4; i < argc; ++i) {
    const std::string name = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", name.c_str());
      return 2;
    }
    const char* val = argv[++i];
    if (name == "--port-file") {
      port_file = val;
      continue;
    }
    char* end = nullptr;
    const long long v = std::strtoll(val, &end, 10);
    if (*val == '\0' || *end != '\0' || v < 0) {
      std::fprintf(stderr, "bad value '%s' for %s\n", val, name.c_str());
      return 2;
    }
    if (name == "--port")
      port = v;
    else if (name == "--edits")
      edits = v;
    else if (name == "--seed")
      seed = static_cast<std::uint64_t>(v);
    else if (name == "--wait-subscribers")
      wait_subscribers = v;
    else
      return usage();
  }

  std::ifstream in(tree_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", tree_path);
    return 1;
  }
  const tree::Tree t = tree::read_text(in);
  core::IncrementalRelabeler relab(t);

  core::JournalOptions jopt;
  jopt.sync = false;  // the exit checkpoint is the durability point here
  jopt.checkpoint_records = 32;  // frequent folds: followers exercise the
                                 // snapshot catch-up path, not just deltas
  core::DeltaJournal journal =
      core::DeltaJournal::create(base_path, relab.to_loaded(), jopt);

  serve::ForestIndex index;
  const serve::TreeId tree0 = index.add(relab.to_loaded());

  net::ServerOptions sopt;
  sopt.port = static_cast<std::uint16_t>(port);
  net::Server server(index, sopt);
  server.attach_journal(&journal);
  server.start();
  g_signal_server = &server;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::printf("serving %zu %s labels on 127.0.0.1:%u (journal %s)\n",
              relab.labels().size(), core::IncrementalRelabeler::scheme_tag(),
              server.port(),
              core::DeltaJournal::journal_path(base_path).c_str());
  std::fflush(stdout);
  if (port_file != nullptr)
    util::atomic_write_file(port_file, std::to_string(server.port()));

  // Churn: random leaf inserts shipped as journal deltas, which the server
  // streams live to every subscriber.
  std::mt19937_64 rng(seed);
  int pending = 0;
  for (long long e = 0; e < edits && !g_signal_stop.load(); ++e) {
    (void)relab.insert_leaf(
        static_cast<tree::NodeId>(rng() % relab.size()),
        static_cast<std::uint32_t>(1 + rng() % 8));
    ++pending;
    if (rng() % 4 == 0) {
      const core::LabelDelta d = relab.make_delta();
      server.replicate(d);
      relab.advance_delta(d);
      index.apply_delta(tree0, d);
      pending = 0;
    }
    if (e % 16 == 15)  // stretch the stream so followers interleave
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (pending > 0) {
    const core::LabelDelta d = relab.make_delta();
    server.replicate(d);
    relab.advance_delta(d);
    index.apply_delta(tree0, d);
  }
  if (edits > 0)
    std::printf("churned %lld edits (chain %016llx)\n", edits,
                static_cast<unsigned long long>(journal.chain()));

  if (wait_subscribers > 0) {
    server.announce_end();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (server.subscribers_finished() <
               static_cast<std::uint64_t>(wait_subscribers) &&
           !g_signal_stop.load()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        std::fprintf(stderr, "timed out waiting for %lld subscriber(s)\n",
                     wait_subscribers);
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  } else {
    while (!g_signal_stop.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.stop();
  g_signal_server = nullptr;
  const net::Server::Stats st = server.stats();
  std::printf(
      "served: %llu conns, %llu batches (%llu queries), %llu deltas + "
      "%llu snapshots streamed, %llu bad frames, %llu shed\n",
      static_cast<unsigned long long>(st.accepted),
      static_cast<unsigned long long>(st.query_batches),
      static_cast<unsigned long long>(st.queries),
      static_cast<unsigned long long>(st.deltas_sent),
      static_cast<unsigned long long>(st.snapshots_sent),
      static_cast<unsigned long long>(st.bad_frames),
      static_cast<unsigned long long>(st.overloaded));
  journal.checkpoint();
  std::printf("checkpointed into %s (chain %016llx, %zu labels)\n",
              base_path, static_cast<unsigned long long>(journal.chain()),
              journal.labels().size());
  return 0;
}

int cmd_follow(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string target = argv[2];
  const char* out_path = argv[3];
  const char* stats_port_file = nullptr;
  long long linger_ms = 0;
  for (int i = 4; i < argc; ++i) {
    const std::string name = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", name.c_str());
      return 2;
    }
    const char* val = argv[++i];
    if (name == "--stats-port-file") {
      stats_port_file = val;
      continue;
    }
    char* end = nullptr;
    const long long v = std::strtoll(val, &end, 10);
    if (*val == '\0' || *end != '\0' || v < 0) {
      std::fprintf(stderr, "bad value '%s' for %s\n", val, name.c_str());
      return 2;
    }
    if (name == "--linger-ms")
      linger_ms = v;
    else
      return usage();
  }
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon + 1 >= target.size())
    return usage();
  const std::string host = target.substr(0, colon);
  const long long port = std::atoll(target.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return usage();

  // Any placeholder labeling works: its chain matches nothing the leader
  // ever had, so the first reply is a full snapshot.
  serve::ForestIndex index;
  const core::IncrementalRelabeler placeholder(tree::path(1));
  const serve::TreeId tree0 = index.add(placeholder.to_loaded());

  // The follower's own front end: while (and after) it converges, a peer
  // can query it and pull its metrics — replication-lag gauges included.
  std::optional<net::Server> stats_server;
  if (stats_port_file != nullptr) {
    stats_server.emplace(index);
    stats_server->start();
    util::atomic_write_file(stats_port_file,
                            std::to_string(stats_server->port()));
    std::printf("follower stats server on 127.0.0.1:%u\n",
                stats_server->port());
    std::fflush(stdout);
  }

  net::ReplicatorOptions ropt;
  ropt.host = host;
  ropt.port = static_cast<std::uint16_t>(port);
  ropt.tree = tree0;
  ropt.stop_on_end = true;
  ropt.max_attempts = 60;
  net::Replicator repl(index, ropt);
  std::printf("following %s:%lld ...\n", host.c_str(), port);
  std::fflush(stdout);
  const bool ended = repl.run();
  const net::Replicator::Stats rs = repl.stats();
  std::printf(
      "follower: %llu connects (%llu failed, %llu resubscribes), "
      "%llu snapshots + %llu deltas applied, %llu frame errors, "
      "%llu chain rejects\n",
      static_cast<unsigned long long>(rs.connects),
      static_cast<unsigned long long>(rs.connect_failures),
      static_cast<unsigned long long>(rs.reconnects),
      static_cast<unsigned long long>(rs.snapshots_applied),
      static_cast<unsigned long long>(rs.deltas_applied),
      static_cast<unsigned long long>(rs.frame_errors),
      static_cast<unsigned long long>(rs.chain_rejects));
  if (!ended) {
    std::fprintf(stderr, "gave up: leader made no progress for %d attempts\n",
                 ropt.max_attempts);
    // Nothing applied and every session cut short by a frame that failed
    // verification reads like a flaky link, but is nearly always a build
    // mismatch: the frame format carries no version to compare.
    if (rs.snapshots_applied + rs.deltas_applied == 0 && rs.connects > 0 &&
        rs.frame_errors >= rs.connects)
      std::fprintf(stderr,
                   "no frame from the leader verified in any of %llu "
                   "sessions: it likely runs a build with another frame "
                   "format (this build checks frames with CRC32C, earlier "
                   "builds with FNV-1a)\n",
                   static_cast<unsigned long long>(rs.connects));
    return 1;
  }
  const core::LabelStore::LoadedArena snap = index.snapshot_labels(tree0);
  core::LabelStore::save_file(out_path, snap.scheme, snap.labels,
                              snap.params);
  std::printf("converged at chain %016llx: wrote %zu labels -> %s\n",
              static_cast<unsigned long long>(index.chain(tree0)),
              snap.labels.size(), out_path);
  std::fflush(stdout);
  if (stats_server.has_value()) {
    // Stay probe-able past convergence so a peer can read the final gauges
    // (net.replicator.behind should be 0 here).
    if (linger_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
    stats_server->stop();
  }
  return 0;
}

int cmd_stats_remote(int argc, char** argv) {
  const std::string target = argv[2];
  const std::size_t colon = target.rfind(':');
  const std::string host = target.substr(0, colon);
  const long long port = std::atoll(target.c_str() + colon + 1);
  if (colon == 0 || port <= 0 || port > 65535) return usage();
  long long probe = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string name = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", name.c_str());
      return 2;
    }
    const char* val = argv[++i];
    char* end = nullptr;
    const long long v = std::strtoll(val, &end, 10);
    if (name != "--probe" || *val == '\0' || *end != '\0' || v < 0)
      return usage();
    probe = v;
  }

  net::QueryClient client(host, static_cast<std::uint16_t>(port));
  if (!client.connected()) {
    std::fprintf(stderr, "cannot connect to %s\n", target.c_str());
    return 1;
  }
  // Warm the server's query/latency metrics before the dump. Out-of-range
  // ids only degrade individual results (ForestIndex::query_batch), so
  // blind probes against a small tree are safe.
  std::mt19937_64 rng(1);
  for (long long b = 0; b < probe; ++b) {
    std::vector<serve::Request> reqs(64);
    for (auto& r : reqs) {
      r.tree = 0;
      r.u = static_cast<tree::NodeId>(rng() % 256);
      r.v = static_cast<tree::NodeId>(rng() % 256);
    }
    std::vector<serve::QueryResult> out;
    if (client.query_batch(reqs, out) == net::QueryClient::BatchStatus::kError) {
      std::fprintf(stderr, "probe batch failed against %s\n", target.c_str());
      return 1;
    }
  }
  std::vector<net::StatLine> lines;
  if (!client.stats(lines)) {
    std::fprintf(stderr, "stats request failed against %s\n", target.c_str());
    return 1;
  }
  for (const auto& l : lines)
    std::printf("%s %llu\n", l.name.c_str(),
                static_cast<unsigned long long>(l.value));
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3) return usage();
  // Dual mode: `host:port` probes a live server's metrics registry over
  // the wire; a plain path reports label-size statistics from a file.
  if (std::strchr(argv[2], ':') != nullptr) return cmd_stats_remote(argc, argv);
  if (argc != 3) return usage();
  return print_label_file(argv[2]);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "gen") == 0) return cmd_gen(argc, argv);
    if (std::strcmp(argv[1], "label") == 0) return cmd_label(argc, argv);
    if (std::strcmp(argv[1], "query") == 0) return cmd_query(argc, argv);
    if (std::strcmp(argv[1], "stats") == 0) return cmd_stats(argc, argv);
    if (std::strcmp(argv[1], "save") == 0) return cmd_save(argc, argv);
    if (std::strcmp(argv[1], "load") == 0) return cmd_load(argc, argv);
    if (std::strcmp(argv[1], "update") == 0) return cmd_update(argc, argv);
    if (std::strcmp(argv[1], "delta-save") == 0)
      return cmd_delta_save(argc, argv);
    if (std::strcmp(argv[1], "delta-apply") == 0)
      return cmd_delta_apply(argc, argv);
    if (std::strcmp(argv[1], "journal") == 0) return cmd_journal(argc, argv);
    if (std::strcmp(argv[1], "serve") == 0) return cmd_serve(argc, argv);
    if (std::strcmp(argv[1], "follow") == 0) return cmd_follow(argc, argv);
  } catch (const util::IoError& e) {
    // I/O failures (missing files, ENOSPC, permissions): exit 3, with the
    // path and errno the error carries. Must precede the runtime_error
    // handler — IoError derives from it.
    std::fprintf(stderr, "io error: %s\n", e.what());
    return 3;
  } catch (const std::runtime_error& e) {
    // Corrupt or invalid inputs (bad containers, torn deltas, bad chains).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
